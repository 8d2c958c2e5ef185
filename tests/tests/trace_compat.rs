//! The trace format has exactly one version. Trace files are a
//! re-recordable cache, so a file written by any other version of the
//! recorder — older or newer — is rejected with `BadVersion` (which the
//! bench harnesses treat as a cache miss), never half-understood.

use midway_apps::{AppKind, Scale};
use midway_core::codec::{fnv1a64, seal};
use midway_core::{BackendKind, MidwayConfig};
use midway_replay::{record_app, Trace, TraceError, VERSION};

/// A valid trace re-labelled as `version` and re-sealed, so the version
/// check is the only thing left to reject it.
fn relabelled(bytes: &[u8], version: u64) -> Vec<u8> {
    // The version sits right after the 4-byte magic; every version ever
    // shipped is below 0x80, a single-byte varint to overwrite in place.
    let mut out = bytes.to_vec();
    out[4] = u8::try_from(version).expect("single-byte version");
    out.truncate(out.len() - 8);
    seal(&mut out);
    out
}

#[test]
fn past_and_future_versions_are_rejected_as_bad_version() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt);
    let trace = record_app(AppKind::Sor, cfg, Scale::Small);
    let bytes = trace.encode();
    // The file this recorder writes for this run, by length and FNV; set
    // back to version 5 it is the byte-for-byte file of the version 5
    // recorder: a recording without the checker did not move when the
    // format gained the ops only a checked one holds.
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (19_326, 0xce9f_d357_cf8c_8331)
    );
    assert_eq!(fnv1a64(&relabelled(&bytes, 5)), 0xae92_ef77_b44f_2611);
    assert_eq!(Trace::decode(&relabelled(&bytes, VERSION)), Ok(trace));

    for version in [VERSION - 1, VERSION + 1] {
        assert_eq!(
            Trace::decode(&relabelled(&bytes, version)),
            Err(TraceError::BadVersion(version))
        );
    }
}

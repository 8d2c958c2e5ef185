//! The trace format has exactly one version. Trace files are a
//! re-recordable cache, so a file written by any other version of the
//! recorder — older or newer — is rejected with `BadVersion` (which the
//! bench harnesses treat as a cache miss), never half-understood.

use midway_apps::{AppKind, Scale};
use midway_core::codec::{fnv1a64, seal, Writer};
use midway_core::{BackendKind, Counters, MidwayConfig};
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

/// The plain sor recording every test here reads.
fn sor() -> Trace {
    record_app(
        AppKind::Sor,
        MidwayConfig::new(4, BackendKind::Rt),
        Scale::Small,
    )
}

#[test]
fn past_and_future_versions_are_rejected_as_bad_version() {
    let trace = sor();
    let bytes = trace.encode();
    // The file this recorder writes for this run, by length and FNV.
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (19_362, 0xf2bc_ef96_8210_0353)
    );
    assert_eq!(Trace::decode(&relabelled(&bytes, VERSION)), Ok(trace));

    for version in [VERSION - 1, VERSION + 1] {
        assert_eq!(
            Trace::decode(&relabelled(&bytes, version)),
            Err(TraceError::BadVersion(version))
        );
    }
}

/// Version 8 dropped seven header varints whose values no caller varies
/// and the code now holds as constants: the VM history cap (512) after
/// the processor count, the page size (4096) after the clock rate, and
/// after the fault plan's rates its two jitter windows (0 and 0 on the
/// disabled plan) and the reliable channel's timeout, backoff cap and
/// timer cost (250 000, 6, 150). The version 7 file of a run is its
/// version 8 file with those put back and the version byte set to 7.
fn version_7(trace: &Trace, bytes: &[u8]) -> Vec<u8> {
    let (m, mut cost) = (&trace.meta, trace.meta.cfg.cost);
    let (net, faults) = (m.cfg.net, m.cfg.faults);
    // The version 8 header up to each place a varint went.
    let mut head = b"MWTR".to_vec();
    head.varint(VERSION);
    head.bytes(m.app.as_bytes());
    head.bytes(m.scale.as_bytes());
    head.extend([u8::from(m.verified), m.cfg.backend.wire_tag()]);
    head.varint(m.cfg.procs as u64);
    let after_procs = head.len();
    head.varint(u64::from(cost.mhz));
    let after_mhz = head.len();
    for (_, v) in cost.cycle_fields_mut() {
        head.varint(*v);
    }
    for v in cost.us_fields_mut() {
        head.u64(v.to_bits());
    }
    for v in [
        net.latency_cycles,
        net.per_byte_millicycles,
        net.send_overhead_cycles,
        net.recv_overhead_cycles,
    ] {
        head.varint(v);
    }
    head.push(u8::from(faults.enabled));
    head.varint(faults.seed);
    for v in [
        faults.drop_ppm,
        faults.dup_ppm,
        faults.reorder_ppm,
        faults.delay_ppm,
    ] {
        head.varint(v.into());
    }
    assert_eq!(bytes[..head.len()], head[..], "the version 8 header");
    let varints = |vs: &[u64]| {
        let mut out = Vec::new();
        for &v in vs {
            out.varint(v);
        }
        out
    };
    let old = [
        &bytes[..after_procs],
        &varints(&[512]),
        &bytes[after_procs..after_mhz],
        &varints(&[4096]),
        &bytes[after_mhz..head.len()],
        &varints(&[0, 0, 250_000, 6, 150]),
        &bytes[head.len()..],
    ]
    .concat();
    relabelled(&old, 7)
}

/// The sor file is the version 7 recorder's byte for byte (pinned by
/// length and FNV at the version 7 parent commit) once the seven varints
/// — 12 bytes here — go back in.
#[test]
fn a_file_is_the_version_7_file_less_seven_constant_varints() {
    let trace = sor();
    let bytes = trace.encode();
    let old = version_7(&trace, &bytes);
    assert_eq!(old.len() - bytes.len(), 12);
    assert_eq!((old.len(), fnv1a64(&old)), (19_374, 0x262a_3bef_ee95_df91));
}

/// Version 7 added the delivery rows, last in each processor's counters
/// block. A fault-free run leaves them zero, so its version 7 file is the
/// version 6 recorder's file plus the version byte and one zero byte per
/// new row per processor. Cut those out, and it is that file byte for byte (pinned
/// by length and FNV at the version 6 parent commit); set back to version
/// 5, the version 5 recorder's, as before: a recording without the
/// checker did not move when version 6 gained the ops only a checked one
/// holds.
#[test]
fn a_fault_free_file_is_the_version_6_file_plus_zero_delivery_rows() {
    let trace = sor();
    let bytes = version_7(&trace, &trace.encode());
    let counters = &trace.meta.counters;
    assert!(counters.iter().all(|c| c.sans_delivery() == *c));
    let v6_rows = Counters::NAMES
        .iter()
        .position(|&row| row == "msgs_dropped")
        .expect("the delivery section opens with msgs_dropped");
    let block = |rows: usize| {
        let mut out = Vec::new();
        for c in counters {
            for v in &c.rows()[..rows] {
                out.varint(*v);
            }
        }
        out
    };
    let (v7, v6) = (block(Counters::ROWS), block(v6_rows));
    let new_rows = Counters::ROWS - v6_rows;
    assert_eq!(v7.len() - v6.len(), counters.len() * new_rows);
    let at: Vec<usize> = (0..bytes.len() - v7.len())
        .filter(|&i| bytes[i..i + v7.len()] == v7[..])
        .collect();
    assert_eq!(at.len(), 1, "the counters block occurs once");

    let mut old = [&bytes[..at[0]], &v6[..], &bytes[at[0] + v7.len()..]].concat();
    old = relabelled(&old, 6);
    assert_eq!((old.len(), fnv1a64(&old)), (19_326, 0xce9f_d357_cf8c_8331));
    assert_eq!(fnv1a64(&relabelled(&old, 5)), 0xae92_ef77_b44f_2611);
}

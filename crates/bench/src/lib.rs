//! Shared plumbing for the two harness drivers.
//!
//! | binary | runs |
//! |---|---|
//! | `paper <artefact>` | one table or figure of the paper, or an ablation; `paper --list` names them, and each has a committed `results/<artefact>.txt` that `ci.sh` compares byte for byte |
//! | `sweep <harness>` | `fault`, `crash`, `scale`, `svc`, `real`, `racecheck`, `fuzz`: grids beyond the paper, each with a `--smoke` cell in `ci.sh` |
//! | `benchmark` | the pinned host-time benchmark (`BENCHMARK.json`); `--smoke` is CI's host-time check |
//!
//! Three pieces carry both drivers: the flag table and selector parser
//! ([`BenchArgs`]: every flag spelled once, each harness accepting the
//! subset it names, anything else a usage error); the cell record
//! ([`Record`]: each field declared once, rendered as the table row and
//! the JSON object); and the suite-table builder (`bin/paper/suite.rs`,
//! beside its only callers: Tables 2–5 and Figures 3–4 as row lists over
//! one live RT-DSM and one live VM-DSM run per application).
//!
//! Every artefact runs the applications **live** under each system it
//! reports, as the paper does; at paper scale each takes seconds. Traces
//! appear only where the *method* is one fixed operation stream under
//! many fault plans (`sweep fault`, `sweep crash`: recorded in memory)
//! or where keeping the stream of a wall-clock run is the point (`sweep
//! real --trace DIR`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

mod args;
mod json;
mod record;

pub use {args::BenchArgs, json::Json, record::Record};

/// Runs `f` over independent simulation cells on up to `jobs` worker
/// threads, returning the results **in the items' original order**.
///
/// Every cell is an isolated deterministic simulation, so running them
/// concurrently cannot change any result; joining in fixed cell order
/// makes the harness output byte-identical to the sequential path (which
/// `jobs == 1` takes literally). A panic in any cell propagates to the
/// caller when the scope joins.
pub fn run_cells<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.into_iter().map(f).collect();
    }
    // A shared work index hands cells out dynamically (cell runtimes vary
    // wildly); each worker writes into the slot of the cell it took, so
    // the join below reads results in cell order regardless of which
    // thread finished when.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = work.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= work.len() {
                    break;
                }
                let item = work[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each cell taken once");
                let result = f(item);
                *slots[i].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every cell ran"))
        .collect()
}

/// Prints the standard scale/procs banner.
pub fn banner(title: &str, args: &BenchArgs) {
    println!("== {title} ==");
    println!("scale: {:?}, processors: {}", args.scale, args.procs);
    if args.scale != midway_apps::Scale::Paper {
        println!("(note: reduced input sizes; run with --scale paper for the paper's sizes)");
    }
    println!();
}

/// The seeded byte mutator the codec's decoders are swept with.
#[cfg(test)]
#[path = "../../net/tests/support/mutate.rs"]
mod mutate;

#[cfg(test)]
mod tests {
    use super::*;
    use midway_apps::{AppKind, Scale};
    use midway_core::{BackendKind, MidwayConfig};
    use midway_replay::{record_app, Trace, TraceError, VERSION};

    #[test]
    fn run_cells_preserves_order_at_any_job_count() {
        let items: Vec<usize> = (0..23).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 7).collect();
        for jobs in [1, 2, 4, 64] {
            let got = run_cells(jobs, items.clone(), |i| i * 7);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn run_cells_handles_empty_input() {
        let got: Vec<u32> = run_cells(8, Vec::<u32>::new(), |x| x);
        assert!(got.is_empty());
    }

    // The three tests below kept their names from the trace cache they
    // used to exercise. What survives of that behaviour is what `sweep
    // real --trace` (files) and `sweep fault|crash` (in memory) rely on:
    // a defective trace file is refused, never trusted, and a recorded
    // trace's header names the configuration that produced it.

    fn sor_trace() -> Trace {
        let cfg = MidwayConfig::new(2, BackendKind::Rt);
        record_app(AppKind::Sor, cfg, Scale::Small)
    }

    #[test]
    fn corrupt_cache_file_is_rerecorded_not_trusted() {
        let trace = sor_trace();
        let path = std::env::temp_dir().join(format!("midway-bench-{}.mwt", std::process::id()));
        trace.save(&path).expect("saving the trace");
        assert_eq!(Trace::load(&path).expect("a sound file loads"), trace);

        // One flipped payload byte: the checksum must refuse the file.
        let mut bytes = std::fs::read(&path).expect("reading the saved trace");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupting the saved trace");
        assert!(matches!(Trace::load(&path), Err(TraceError::BadChecksum)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_and_garbage_cache_files_are_rerecorded() {
        // A file an older recorder left behind: valid in every byte but
        // the version, checksum re-sealed.
        let sound = sor_trace().encode();
        let mut stale = sound.clone();
        stale[4] = u8::try_from(VERSION - 1).expect("single-byte version");
        stale.truncate(stale.len() - 8);
        midway_core::codec::seal(&mut stale);
        assert_eq!(
            Trace::decode(&stale),
            Err(TraceError::BadVersion(VERSION - 1))
        );

        for bad in [
            b"not a trace at all".to_vec(),
            b"MWTR".to_vec(),
            Vec::new(),
            sound[..sound.len() / 2].to_vec(),
        ] {
            assert!(Trace::decode(&bad).is_err(), "{} bytes decoded", bad.len());
        }
    }

    #[test]
    fn metadata_mismatch_is_detected_field_by_field() {
        let m = sor_trace().meta;
        assert_eq!(
            (m.app.as_str(), m.scale.as_str(), m.cfg.procs, m.cfg.backend),
            ("sor", "small", 2, BackendKind::Rt)
        );
        let cfg = MidwayConfig::new(4, BackendKind::Vm);
        let m = record_app(AppKind::Matmul, cfg, Scale::Medium).meta;
        assert_eq!(
            (m.app.as_str(), m.scale.as_str(), m.cfg.procs, m.cfg.backend),
            ("matrix", "medium", 4, BackendKind::Vm)
        );
    }
}

//! The `trace` tool refuses a command line it does not fully understand:
//! a misspelt flag used to be skipped (flags were looked up by position),
//! so a typo such as `--los 10000` ran with the default plan and printed
//! green. A subcommand or flag that no longer exists is refused the same
//! way, and a file the decoder rejects is an error, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use midway_apps::fuzz::{apply_mutation, execute, FuzzParams, MutantKind, Schedule};
use midway_apps::{AppKind, Scale};
use midway_core::codec::seal;
use midway_core::{
    AllocSpec, BackendKind, BarrierRanges, Counters, MidwayConfig, SpecBlueprint, TraceOp,
};
use midway_replay::{record_app, Trace, TraceMeta};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("the trace binary runs")
}

#[test]
fn unknown_flag_is_a_usage_error_listing_the_accepted_ones() {
    // Rejected before the file is even opened: it does not exist.
    for args in [
        &["check", "x.mwt", "--los", "10000"][..],
        &["check", "x.mwt", "--lenient"],
        &["replay", "x.mwt", "--check"],
        &["info", "x.mwt", "--check"],
    ] {
        let out = trace(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
        assert!(err.contains("accepted flags:"), "{args:?}: {err}");
    }
    let out = trace(&["check", "x.mwt", "--los", "10000"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--loss PPM") && err.contains("--race"),
        "{err}"
    );
}

#[test]
fn removed_subcommands_are_usage_errors_listing_the_accepted_ones() {
    for gone in ["faultcheck", "crashcheck", "racecheck", "sweep"] {
        let out = trace(&[gone, "x.mwt"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{gone}: {err}");
        for cmd in ["record", "replay", "check", "info", "diff"] {
            assert!(err.contains(&format!("trace {cmd} ")), "{gone}: {err}");
        }
        assert!(!err.contains(gone), "{gone}: {err}");
    }
}

#[test]
fn value_flag_followed_by_a_flag_is_a_usage_error() {
    for args in [
        &["check", "x.mwt", "--loss", "--race"][..],
        &["check", "x.mwt", "--interval"],
    ] {
        let out = trace(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("needs a value"), "{args:?}: {err}");
        assert!(err.contains("--fault-seed N"), "{args:?}: {err}");
    }
    // A well-formed command line still reaches the command, which then
    // fails on the missing file with the ordinary exit code.
    for args in [
        &["check", "x.mwt", "--loss", "10000", "--race"][..],
        &["check", "--crash", "x.mwt"],
    ] {
        let out = trace(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("x.mwt: cannot read trace"),
            "{args:?}: {err}"
        );
    }
    assert_eq!(trace(&[]).status.code(), Some(2));
}

/// `--procs 0` used to panic setting up a zero-processor run (exit 101,
/// "zero-length allocation"), and a `--procs` that is no number failed
/// the command (exit 1): both are usage errors listing the flags.
#[test]
fn a_processor_count_below_one_is_a_usage_error() {
    for procs in ["0", "eight"] {
        let out = trace(&["record", "--app", "sor", "--procs", procs]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--procs {procs}: {err}");
        assert!(err.contains("--procs takes a processor count"), "{err}");
        assert!(err.contains("accepted flags: --app NAME"), "{err}");
    }
}

/// A value no numeric flag can use — not a number, or past its type —
/// used to reach the command, which failed only when it read the flag
/// ("--loss takes a number", exit 1, no flags listed). It is a usage
/// error, as `--procs x` is, before the file is even opened.
#[test]
fn a_malformed_number_is_a_usage_error() {
    for (flag, v) in [
        ("--loss", "abc"),
        ("--loss", "-1"),
        ("--fault-seed", "1e3"),
        ("--interval", "4294967296"),
    ] {
        let out = trace(&["check", "x.mwt", flag, v]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {v}: {err}");
        assert!(err.contains(&format!("{flag} takes")), "{flag} {v}: {err}");
        assert!(err.contains(&format!("got {v:?}")), "{flag} {v}: {err}");
        assert!(err.contains("accepted flags: --loss PPM"), "{err}");
    }
    let out = trace(&["replay", "x.mwt", "--fault-seed", "seven"]);
    assert_eq!(out.status.code(), Some(2));
}

/// A one-processor trace with `allocs` as its allocations, one lock bound
/// to the first eight bytes of the first of them (to nothing if there are
/// none) and `op` as its one operation. The encoder checks nothing, so
/// the file is well sealed whatever the blueprint says.
fn forged(allocs: Vec<AllocSpec>, op: TraceOp) -> Trace {
    let lock = allocs.first().map(|a| a.addr..a.addr + 8);
    Trace {
        meta: TraceMeta {
            app: "forged".to_string(),
            scale: "small".to_string(),
            verified: true,
            cfg: MidwayConfig::new(1, BackendKind::Rt),
            finish_cycles: 1,
            messages: 0,
            counters: vec![Counters::default()],
        },
        blueprint: SpecBlueprint {
            allocs,
            locks: vec![lock.into_iter().collect()],
            barriers: vec![],
        },
        ops: vec![[op].into_iter().collect()],
    }
}

/// Runs `trace <args> FILE...` on each of `files` written to a temp file
/// of its own (tests run in parallel).
fn on_files(args: &[&str], files: &[&[u8]]) -> Output {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let paths: Vec<PathBuf> = files
        .iter()
        .map(|bytes| {
            let n = FILES.fetch_add(1, Ordering::Relaxed);
            let name = format!("midway-cli-{}-{n}.mwt", std::process::id());
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, bytes).expect("temp file");
            path
        })
        .collect();
    let mut args = args.to_vec();
    args.extend(paths.iter().map(|p| p.to_str().expect("utf-8 temp path")));
    let out = trace(&args);
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
    out
}

fn on_file(command: &str, bytes: &[u8]) -> Output {
    on_files(&[command], &[bytes])
}

/// `trace info` counted acquires per lock by indexing with the op's id,
/// so a well-sealed file naming a lock its blueprint lacks made it panic
/// (exit 101). The decoder refuses such a file now.
#[test]
fn info_on_a_forged_lock_id_is_an_error_not_a_panic() {
    let acquire = TraceOp::Acquire {
        lock: 0,
        exclusive: true,
    };
    // The payload ends `tag 3 · lock 0 · exclusive 1`: forge lock 7.
    let mut bytes = forged(vec![], acquire).encode();
    bytes.truncate(bytes.len() - 8);
    let at = bytes.len() - 2;
    assert_eq!(bytes[at - 1..], [3, 0, 1]);
    bytes[at] = 7;
    seal(&mut bytes);

    let out = on_file("info", &bytes);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("malformed trace: lock id outside the blueprint"),
        "{err}"
    );
}

/// A blueprint a replay cannot rebuild, or a write outside every
/// allocation, used to pass `trace info` and then panic `trace check`
/// and `trace replay` (exit 101) — or, for the write, fail inside a
/// processor. So did a barrier bound outside every allocation, and a
/// barrier with fewer partitions than processors; a lock bound outside
/// them passed all three. Every subcommand now refuses the file as
/// malformed.
#[test]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the point here
fn forged_blueprints_are_malformed_for_every_subcommand() {
    let x = AllocSpec {
        name: "x".to_string(),
        addr: 1 << 22,
        len: 64,
        private: false,
        line_shift: 3,
    };
    let work = TraceOp::Work { cycles: 1 };
    let wild = TraceOp::Write {
        addr: 0xdead_beef_0000,
        data: &[0; 8],
    };
    let moved = AllocSpec {
        addr: x.addr + 8,
        ..x.clone()
    };
    let wide = AllocSpec {
        line_shift: 40,
        ..x.clone()
    };
    let empty = AllocSpec {
        len: 0,
        ..x.clone()
    };
    let mut forgeries = vec![
        forged(vec![moved], work),
        forged(vec![wide], work),
        forged(vec![empty], work),
        forged(vec![x.clone()], wild),
    ];
    let mut lock_outside = forged(vec![x.clone()], work);
    lock_outside.blueprint.locks = vec![vec![0..8]];
    forgeries.push(lock_outside);
    let inside = x.addr..x.addr + 8;
    for (ranges, partitions) in [
        (vec![0..8], None),
        (vec![inside.clone()], Some(vec![])),
        (vec![inside], Some(vec![vec![0..8]])),
    ] {
        let mut barrier = forged(vec![x.clone()], TraceOp::Barrier { barrier: 0 });
        barrier.blueprint.barriers = vec![BarrierRanges { ranges, partitions }];
        forgeries.push(barrier);
    }
    for trace in forgeries {
        let bytes = trace.encode();
        for command in ["info", "check", "replay"] {
            let out = on_file(command, &bytes);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command}: {err}");
            assert!(err.contains("malformed trace: "), "{command}: {err}");
        }
    }
}

/// The app list in `trace record`'s error is `AppKind::every()`'s labels,
/// so a removed application is refused by name and never listed.
#[test]
fn an_unknown_app_is_refused_listing_every_app() {
    let out = trace(&["record", "--app", "socialgraph"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown app \"socialgraph\""), "{err}");
    let listed = err.split("(use ").nth(1).and_then(|l| l.split(')').next());
    assert_eq!(
        listed,
        Some("water|quicksort|matrix|sor|cholesky|kvstore|taskqueue"),
        "{err}"
    );
}

/// `trace diff` exits 0 on a file and itself, and on an RT and a VM
/// recording of one quicksort cell — whose task queue hands every
/// processor different work on the two backends — exits 1 naming, for
/// each processor, the first op at which the streams part and both ops.
#[test]
fn diff_names_each_processors_first_diverging_op() {
    let record = |b| record_app(AppKind::Quicksort, MidwayConfig::new(4, b), Scale::Small);
    let (rt, vm) = (record(BackendKind::Rt), record(BackendKind::Vm));
    let (rt_bytes, vm_bytes) = (rt.encode(), vm.encode());

    let same = on_files(&["diff"], &[&rt_bytes, &rt_bytes]);
    assert_eq!(same.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&same.stdout),
        "traces are identical\n"
    );

    let out = on_files(&["diff"], &[&rt_bytes, &vm_bytes]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("meta.backend: RT-DSM != VM-DSM"),
        "{stdout}"
    );
    for (p, (a, b)) in rt.ops.iter().zip(&vm.ops).enumerate() {
        let i = a.iter().zip(b).take_while(|(x, y)| x == y).count();
        assert!(i < a.len().min(b.len()), "proc {p} streams do not part");
        let report = format!(
            "proc {p}: first divergence at op {i}/{} vs {}:\n  a: {:?}\n  b: {:?}\n",
            a.len(),
            b.len(),
            a.iter().nth(i),
            b.iter().nth(i)
        );
        assert!(stdout.contains(&report), "missing {report:?} in {stdout}");
    }
}

/// `trace diff` names every counter row that differs, on every processor
/// where one does, not just the first processor's two whole records.
#[test]
fn diff_names_every_differing_counter_row_on_every_processor() {
    let a = record_app(
        AppKind::Sor,
        MidwayConfig::new(4, BackendKind::Rt),
        Scale::Small,
    );
    let mut b = a.clone();
    let set = a.meta.counters[1].dirtybits_set;
    b.meta.counters[1].dirtybits_set += 1;
    b.meta.counters[1].retransmits = 3;
    b.meta.counters[3].acks_sent = 2;

    let out = on_files(&["diff"], &[&a.encode(), &b.encode()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let lines = [
        format!(
            "meta.counters: processor 1: dirtybits_set {set} ≠ {}, retransmits 0 ≠ 3\n",
            set + 1
        ),
        "meta.counters: processor 3: acks_sent 0 ≠ 2\n".to_string(),
    ];
    assert_eq!(stdout, lines.concat());
}

/// `check --race` on a clean recording exits 0 and says there is no
/// finding.
#[test]
fn race_on_a_clean_recording_finds_nothing() {
    let trace = record_app(
        AppKind::Sor,
        MidwayConfig::new(4, BackendKind::Rt),
        Scale::Small,
    );
    let out = on_files(&["check", "--race"], &[&trace.encode()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("findings:     none"), "{stdout}");
}

/// A planted bug survives into a recording (writes and synchronization
/// are recorded; reads are not, so a read-ahead cannot), and `check
/// --race` fails on it, exit 1, naming the finding's kind and processor.
#[test]
fn race_on_a_recorded_planted_bug_exits_1_naming_it() {
    for kind in [MutantKind::DropAcquire, MutantKind::RogueRebind] {
        let base = Schedule::generate(0, FuzzParams::mutant());
        let s = apply_mutation(&base, kind, 0).expect("the base hosts the mutation");
        let cfg = MidwayConfig::new(s.params.procs, BackendKind::Rt);
        let run = execute(&s, cfg.record(true), None).expect("the mutant runs");
        let trace = Trace::from_run(kind.label(), "fuzz", false, &run);
        let out = on_files(&["check", "--race"], &[&trace.encode()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {err}", kind.label());
        let named = format!("{} proc {}", kind.finding().label(), s.mutant_proc);
        assert!(err.contains(&named), "{}: {err}", kind.label());
    }
}

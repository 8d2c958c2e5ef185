//! The `trace` command-line tool: record, inspect, replay and compare
//! Midway traces.
//!
//! ```text
//! trace record --app sor [--backend rt] [--scale small] [--procs 8] [--out FILE]
//! trace replay FILE [--backend rt|vm|blast|twinall|hybrid] [--check]
//! trace racecheck FILE
//! trace info FILE
//! trace diff A B
//! ```
//!
//! Each subcommand declares the flags it takes (`COMMANDS`); any other
//! flag, or a value flag with no value, is a usage error: exit 2 and the
//! accepted list, never a run that silently ignored a typo.
//!
//! `racecheck` replays a trace bit-for-bit with the dynamic entry-consistency
//! checker attached and reports its findings (write and synchronization
//! rules only — reads are local and never recorded).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use midway_apps::{AppKind, Scale};
use midway_core::{report, BackendKind, Counters, FaultPlan, MidwayConfig, MidwayRun};
use midway_replay::{
    racecheck_replay, record_app, replay, verify_crash_determinism, verify_crash_determinism_at,
    verify_crash_replay, verify_crash_replay_at, verify_fault_determinism, verify_fault_replay,
    verify_replay, Trace,
};
use midway_stats::TextTable;

/// A subcommand: its name, its operands, the flags it takes (`--name
/// VALUE`, or bare `--name` for a switch) and its body. The usage text is
/// printed from this table, so it cannot list a flag the parser rejects.
type Command = (
    &'static str,
    &'static str,
    &'static [&'static str],
    fn(&Args) -> Result<ExitCode, String>,
);

const COMMANDS: &[Command] = &[
    (
        "record",
        "",
        &[
            "--app NAME|all|service",
            "--backend rt|vm|blast|twinall|hybrid|none",
            "--scale paper|medium|small|dc",
            "--procs N",
            "--out FILE",
        ],
        cmd_record,
    ),
    (
        "replay",
        "<FILE>",
        &[
            "--backend rt|vm|blast|twinall|hybrid",
            "--check",
            "--loss PPM",
            "--fault-seed N",
        ],
        cmd_replay,
    ),
    (
        "faultcheck",
        "<FILE>",
        &["--loss PPM", "--fault-seed N", "--lenient"],
        cmd_faultcheck,
    ),
    (
        "crashcheck",
        "<FILE>",
        &[
            "--interval BOUNDARIES",
            "--loss PPM",
            "--fault-seed N",
            "--lenient",
        ],
        cmd_crashcheck,
    ),
    ("racecheck", "<FILE>", &[], cmd_racecheck),
    ("info", "<FILE>", &[], cmd_info),
    ("diff", "<A> <B>", &[], cmd_diff),
];

fn usage() -> String {
    let mut out = "usage:".to_string();
    for (name, operands, flags, _) in COMMANDS {
        out += format!("\n  trace {name} {operands}").trim_end();
        for flag in *flags {
            out += &format!(" [{flag}]");
        }
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|(n, ..)| n == name));
    let Some((name, _, accepted, run)) = command else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    // A misspelt flag is a usage error, never a silent run without it.
    let args = match Args::parse(&argv[1..], accepted) {
        Ok(args) => args,
        Err(what) => {
            eprintln!("trace {name}: {what}");
            eprintln!("accepted flags: {}", accepted.join(", "));
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// One subcommand's parsed command line.
struct Args {
    /// Arguments that are neither a flag nor a flag's value, in order.
    positional: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Accepts exactly the flags in `accepted`; anything else starting
    /// with `--`, or a value flag with no value (or another flag where
    /// its value should be), is an error.
    fn parse(argv: &[String], accepted: &[&'static str]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg.clone());
                continue;
            }
            let spec = accepted.iter().find(|s| s.split(' ').next() == Some(arg));
            let Some((name, hint)) = spec.map(|s| s.split_once(' ').unwrap_or((s, ""))) else {
                return Err(format!("unknown flag {arg:?}"));
            };
            let value = match hint {
                "" => None,
                _ => Some(
                    it.next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{name} needs a value ({hint})"))?
                        .clone(),
                ),
            };
            args.given.push((name, value));
        }
        Ok(args)
    }

    /// Whether a bare switch was passed.
    fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value passed with a flag, if it was.
    fn value(&self, name: &str) -> Option<&str> {
        let (_, v) = self.given.iter().find(|(n, _)| *n == name)?;
        v.as_deref()
    }

    /// The number following flag `name`, if the flag was given.
    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|s| s.parse().map_err(|_| format!("{name} takes a number")))
            .transpose()
    }

    /// Builds the lossy-network plan `--loss PPM` / `--fault-seed N`
    /// describe; `None` when neither flag was given.
    fn fault_plan(&self) -> Result<Option<FaultPlan>, String> {
        let (loss, seed) = (self.number("--loss")?, self.number("--fault-seed")?);
        if loss.is_none() && seed.is_none() {
            return Ok(None);
        }
        Ok(Some(FaultPlan::lossy(seed.unwrap_or(1), loss.unwrap_or(0))))
    }
}

fn parse_app(s: &str) -> Result<AppKind, String> {
    AppKind::every()
        .into_iter()
        .find(|k| k.label() == s)
        .ok_or_else(|| {
            format!(
                "unknown app {s:?} (use water|quicksort|matrix|sor|cholesky|\
                 kvstore|socialgraph|taskqueue)"
            )
        })
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "paper" => Ok(Scale::Paper),
        "medium" => Ok(Scale::Medium),
        "small" => Ok(Scale::Small),
        "dc" => Ok(Scale::Datacenter),
        _ => Err(format!("unknown scale {s:?} (use paper|medium|small|dc)")),
    }
}

fn load(path: &str) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("{path}: {e}"))
}

fn summarize(run: &MidwayRun<()>, cfg: &MidwayConfig) {
    let avg = Counters::average(&run.counters);
    println!("backend:      {}", cfg.backend.label());
    println!("exec time:    {:.3} s (simulated)", run.exec_secs());
    println!("messages:     {}", run.messages);
    println!("data moved:   {:.2} MB cluster-wide", run.data_mb_total());
    println!(
        "trapping:     {:.1} ms/proc, collection {:.1} ms/proc",
        report::trapping_millis(cfg.backend, &avg, &cfg.cost),
        report::collection_millis(cfg.backend, &avg, &cfg.cost).total()
    );
    if cfg.faults.enabled {
        let link = run.link_totals();
        let injected: u64 = run.reports.iter().map(|r| r.fault_stats.total()).sum();
        println!(
            "reliability:  {injected} faults injected, {} retransmits, {} acks, \
             {} dup frames dropped",
            link.retransmits, link.acks_sent, link.dup_frames_dropped
        );
    }
}

fn cmd_record(args: &Args) -> Result<ExitCode, String> {
    let apps = match args.value("--app") {
        Some("all") => AppKind::all().to_vec(),
        Some("service") => AppKind::service().to_vec(),
        Some(s) => vec![parse_app(s)?],
        None => return Err("record needs --app (or --app all|service)".to_string()),
    };
    let backend = args
        .value("--backend")
        .map(BackendKind::from_cli_name)
        .transpose()?
        .unwrap_or(BackendKind::Rt);
    let scale = args
        .value("--scale")
        .map(parse_scale)
        .transpose()?
        .unwrap_or(Scale::Small);
    let procs: usize = args.number("--procs")?.unwrap_or(8);
    let out = args.value("--out");
    if out.is_some() && apps.len() > 1 {
        return Err("--out only makes sense with a single --app".to_string());
    }
    for app in apps {
        let cfg = MidwayConfig::new(procs, backend);
        let t0 = Instant::now();
        let (outcome, trace) = record_app(app, cfg, scale);
        if !outcome.verified {
            return Err(format!("{} failed verification; not saving", app.label()));
        }
        let path = out.map(PathBuf::from).unwrap_or_else(|| {
            PathBuf::from(format!(
                "results/traces/{}-{}-{}p-{}.mwt",
                app.label(),
                scale.label(),
                procs,
                backend.cli_name()
            ))
        });
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        trace
            .save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{}: {} ops, {} written bytes, recorded in {:.1}s -> {}",
            app.label(),
            trace.total_ops(),
            trace.written_bytes(),
            t0.elapsed().as_secs_f64(),
            path.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    let [path] = args.positional.as_slice() else {
        return Err("replay takes exactly one trace file".to_string());
    };
    let trace = load(path)?;
    let mut cfg = trace.recorded_cfg();
    let mut exact = true;
    if let Some(b) = args.value("--backend") {
        cfg.backend = BackendKind::from_cli_name(b)?;
        exact = cfg.backend == trace.meta.cfg.backend;
    }
    if let Some(plan) = args.fault_plan()? {
        cfg.faults = plan;
        exact = false;
    }
    let t0 = Instant::now();
    let run = if exact {
        // Identical configuration: always run the equivalence oracle.
        verify_replay(&trace).map_err(|d| format!("replay diverged from recording: {d}"))?
    } else {
        if args.flag("--check") {
            return Err("--check requires the recorded configuration (no overrides)".to_string());
        }
        replay(&trace, cfg).map_err(|e| format!("replay failed: {e}"))?
    };
    let host = t0.elapsed().as_secs_f64();
    summarize(&run, &cfg);
    println!("replayed in:  {host:.2} s host time");
    if exact {
        println!("equivalence:  bit-for-bit identical to the recorded run");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_faultcheck(args: &Args) -> Result<ExitCode, String> {
    let [path] = args.positional.as_slice() else {
        return Err("faultcheck takes exactly one trace file".to_string());
    };
    let trace = load(path)?;
    // Default plan: 1% loss, seed 1 — overridable by the fault flags.
    let plan = args
        .fault_plan()?
        .unwrap_or_else(|| FaultPlan::lossy(1, 10_000));
    println!(
        "== fault-tolerance check: {} ({} on {}) ==",
        path,
        trace.meta.app,
        trace.meta.cfg.backend.label()
    );
    println!(
        "plan:         seed {}, drop {} ppm",
        plan.seed, plan.drop_ppm
    );
    let lenient = args.flag("--lenient");
    let t0 = Instant::now();
    let check = if lenient {
        verify_fault_determinism(&trace, plan)?
    } else {
        verify_fault_replay(&trace, plan)?
    };
    println!("baseline:     bit-for-bit identical to the recorded run");
    println!(
        "faulty:       deterministic across reruns; {} faults injected, \
         {} retransmits, {} acks",
        check.faults_injected, check.link.retransmits, check.link.acks_sent
    );
    if lenient {
        println!(
            "convergence:  skipped (--lenient: lock-order-dependent workload); \
             {:.2}x finish-time slowdown",
            check.slowdown()
        );
    } else {
        println!(
            "convergence:  final memory and counters match the fault-free run \
             ({:.2}x finish-time slowdown)",
            check.slowdown()
        );
    }
    println!(
        "checked in:   {:.2} s host time",
        t0.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_crashcheck(args: &Args) -> Result<ExitCode, String> {
    let [path] = args.positional.as_slice() else {
        return Err("crashcheck takes exactly one trace file".to_string());
    };
    let trace = load(path)?;
    // The crash scales with the recorded run so it always lands
    // mid-computation: fail at a third of the run, stay down for 5%.
    let proc = 1 % trace.meta.cfg.procs;
    let (at, down) = (trace.meta.finish_cycles / 3, trace.meta.finish_cycles / 20);
    let plan = args
        .fault_plan()?
        .unwrap_or_else(FaultPlan::none)
        .with_crash(proc, at, down);
    // The interval applies to the *crashed* replays only — the crash-free
    // baseline must stay bit-for-bit identical to the recording.
    let interval: Option<u32> = args.number("--interval")?;

    println!(
        "== crash-recovery check: {} ({} on {}) ==",
        path,
        trace.meta.app,
        trace.meta.cfg.backend.label()
    );
    let mut crashed_cfg = trace.meta.cfg.faults(plan);
    if let Some(k) = interval {
        crashed_cfg.checkpoint_every = k;
    }
    println!(
        "plan:         processor {proc} crashes at cycle {at}, down {down} cycles \
         (checkpoint every {} boundaries)",
        crashed_cfg
            .effective_checkpoint_every()
            .expect("crash plans imply checkpointing")
    );
    let lenient = args.flag("--lenient");
    let t0 = Instant::now();
    let check = match (lenient, interval) {
        (false, None) => verify_crash_replay(&trace, plan)?,
        (false, Some(k)) => verify_crash_replay_at(&trace, plan, k)?,
        (true, None) => verify_crash_determinism(&trace, plan)?,
        (true, Some(k)) => verify_crash_determinism_at(&trace, plan, k)?,
    };
    println!("baseline:     bit-for-bit identical to the recorded run");
    println!(
        "crashed:      deterministic across reruns; {} crash(es) taken, {} cycles down, \
         {} messages fenced",
        check.crashes, check.downtime_cycles, check.fenced_messages
    );
    println!(
        "recovery:     {} checkpoints ({} KB) + {} KB WAL; replayed {} KB in {} cycles",
        check.checkpoints_written,
        check.checkpoint_bytes / 1024,
        check.wal_bytes_logged / 1024,
        check.recovery_replay_bytes / 1024,
        check.recovery_cycles
    );
    if lenient {
        println!(
            "convergence:  skipped (--lenient: lock-order-dependent workload); \
             {:.2}x finish-time slowdown",
            check.slowdown()
        );
    } else {
        println!(
            "convergence:  final memory and counters match the crash-free run \
             ({:.2}x finish-time slowdown)",
            check.slowdown()
        );
    }
    println!(
        "checked in:   {:.2} s host time",
        t0.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_racecheck(args: &Args) -> Result<ExitCode, String> {
    let [path] = args.positional.as_slice() else {
        return Err("racecheck takes exactly one trace file".to_string());
    };
    let trace = load(path)?;
    println!(
        "== race check: {} ({} on {}) ==",
        path,
        trace.meta.app,
        trace.meta.cfg.backend.label()
    );
    let t0 = Instant::now();
    let run =
        racecheck_replay(&trace).map_err(|d| format!("replay diverged from recording: {d}"))?;
    let report = run.check.expect("racecheck_replay enables checking");
    println!("equivalence:  bit-for-bit identical to the recorded run");
    let applies: u64 = report.applies.iter().map(|a| a.count).sum();
    let apply_bytes: u64 = report.applies.iter().map(|a| a.bytes).sum();
    println!(
        "events:       {} checked, {applies} update applications ({apply_bytes} bytes)",
        report.events
    );
    println!(
        "checked in:   {:.2} s host time",
        t0.elapsed().as_secs_f64()
    );
    if report.is_clean() {
        println!("findings:     none");
        return Ok(ExitCode::SUCCESS);
    }
    println!("findings:     {}", report.summary());
    for f in &report.findings {
        println!("  {f}");
    }
    Ok(ExitCode::FAILURE)
}

fn cmd_info(args: &Args) -> Result<ExitCode, String> {
    let [path] = args.positional.as_slice() else {
        return Err("info takes exactly one trace file".to_string());
    };
    let trace = load(path)?;
    let m = &trace.meta;
    println!("app:          {} ({} scale)", m.app, m.scale);
    println!(
        "recorded on:  {} procs, {} backend, verified: {}",
        m.cfg.procs,
        m.cfg.backend.label(),
        m.verified
    );
    println!(
        "finish time:  {} cycles ({:.3} s simulated)",
        m.finish_cycles,
        m.cfg.cost.cycles_to_millis(m.finish_cycles) / 1000.0
    );
    println!("messages:     {}", m.messages);
    let [work, idle, write, acquire, release, rebind, barrier] = trace.op_histogram();
    println!(
        "ops:          {} total (work {work}, idle {idle}, write {write}, acquire {acquire}, \
         release {release}, rebind {rebind}, barrier {barrier})",
        trace.total_ops()
    );
    println!("bytes traced: {} written", trace.written_bytes());
    println!("allocations:  {}", trace.blueprint.allocs.len());
    println!(
        "sync objects: {} locks, {} barriers",
        trace.blueprint.locks.len(),
        trace.blueprint.barriers.len()
    );
    let mut t = TextTable::new(&["proc", "ops", "written bytes"]);
    for (p, ops) in trace.ops.iter().enumerate() {
        let bytes: u64 = ops
            .iter()
            .map(|op| match op {
                midway_core::TraceOp::Write { data, .. } => data.len() as u64,
                _ => 0,
            })
            .sum();
        t.row(&[p.to_string(), ops.len().to_string(), bytes.to_string()]);
    }
    println!("\n{t}");
    if !trace.blueprint.locks.is_empty() {
        let mut acquires = vec![0u64; trace.blueprint.locks.len()];
        let mut rebinds = vec![0u64; trace.blueprint.locks.len()];
        for op in trace.ops.iter().flatten() {
            match op {
                midway_core::TraceOp::Acquire { lock, .. } => acquires[*lock as usize] += 1,
                midway_core::TraceOp::Rebind { lock, .. } => rebinds[*lock as usize] += 1,
                _ => {}
            }
        }
        let nlocks = trace.blueprint.locks.len();
        let mut active: Vec<usize> = (0..nlocks)
            .filter(|&l| acquires[l] + rebinds[l] > 0)
            .collect();
        let rebound = active.iter().filter(|&&l| rebinds[l] > 0).count();
        println!(
            "lock bindings: {nlocks} locks: {} acquired, {rebound} rebound, {} never used; \
             {} acquires and {} rebinds in total",
            active.len(),
            nlocks - active.len(),
            acquires.iter().sum::<u64>(),
            rebinds.iter().sum::<u64>(),
        );
        const SHOWN: usize = 12;
        active.sort_by_key(|&l| std::cmp::Reverse((acquires[l], rebinds[l])));
        let mut t = TextTable::new(&[
            "lock",
            "initial ranges",
            "bound bytes",
            "acquires",
            "rebinds",
        ]);
        for &l in active.iter().take(SHOWN) {
            let ranges = &trace.blueprint.locks[l];
            let bytes: u64 = ranges.iter().map(|r| r.end - r.start).sum();
            t.row(&[
                l.to_string(),
                ranges.len().to_string(),
                bytes.to_string(),
                acquires[l].to_string(),
                rebinds[l].to_string(),
            ]);
        }
        println!("{t}");
        if active.len() > SHOWN {
            println!("({} more active locks not shown)", active.len() - SHOWN);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("diff takes exactly two trace files".to_string());
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    if a == b {
        println!("traces are identical");
        return Ok(ExitCode::SUCCESS);
    }
    if a.meta != b.meta {
        let (ma, mb) = (&a.meta, &b.meta);
        for (what, va, vb) in [
            ("app", ma.app.clone(), mb.app.clone()),
            ("scale", ma.scale.clone(), mb.scale.clone()),
            ("procs", ma.cfg.procs.to_string(), mb.cfg.procs.to_string()),
            (
                "backend",
                ma.cfg.backend.label().to_string(),
                mb.cfg.backend.label().to_string(),
            ),
            (
                "finish cycles",
                ma.finish_cycles.to_string(),
                mb.finish_cycles.to_string(),
            ),
            ("messages", ma.messages.to_string(), mb.messages.to_string()),
        ] {
            if va != vb {
                println!("meta.{what}: {va} != {vb}");
            }
        }
        if ma.counters != mb.counters {
            for (p, (ca, cb)) in ma.counters.iter().zip(&mb.counters).enumerate() {
                if ca != cb {
                    println!("meta.counters[{p}] differ: {ca:?} != {cb:?}");
                    break;
                }
            }
        }
    }
    if a.blueprint != b.blueprint {
        println!("blueprints differ");
    }
    if a.ops.len() != b.ops.len() {
        println!("proc counts differ: {} != {}", a.ops.len(), b.ops.len());
    } else {
        for (p, (oa, ob)) in a.ops.iter().zip(&b.ops).enumerate() {
            if oa == ob {
                continue;
            }
            let i = oa.iter().zip(ob).take_while(|(x, y)| x == y).count();
            println!(
                "proc {p}: first divergence at op {i}/{} vs {}:",
                oa.len(),
                ob.len()
            );
            println!("  a: {:?}", oa.get(i));
            println!("  b: {:?}", ob.get(i));
        }
    }
    Ok(ExitCode::FAILURE)
}

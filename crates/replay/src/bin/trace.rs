//! The `trace` command-line tool: record, inspect, replay and compare
//! Midway traces.
//!
//! ```text
//! trace record --app sor [--backend rt] [--scale small] [--procs 8] [--out FILE]
//! trace replay FILE [--backend rt|vm|blast|twinall|hybrid] [--loss PPM] [--fault-seed N]
//! trace check FILE [--loss PPM] [--fault-seed N] [--crash] [--interval K] [--race]
//!                                      (--race: write and sync rules; reads only if recorded)
//! trace info FILE
//! trace diff A B
//! ```
//!
//! Each subcommand declares the flags it takes (`COMMANDS`); any other
//! flag, or a value flag with no value, is a usage error: exit 2 and the
//! accepted list, never a run that silently ignored a typo.
//!
//! `record` saves only a run that passed the application's own check; one
//! that fails it stops the tool with a panic, as a deadlock does.
//! `replay` evaluates a design point and compares it with nothing; `check`
//! is `midway_replay::check` with the flags as its delivery axes. With no
//! flag it is the bit-for-bit equivalence oracle alone. `--crash` takes
//! processor 1 down a third of the way into the run; `--race` attaches the
//! dynamic entry-consistency checker to the replay, and `check` fails,
//! exit 1, on any finding, naming the first. A replay repeats the reads a
//! recording holds, and only a run recorded with the checker on holds
//! any (`record` records without it), so on a `record`ed trace the
//! checker applies the write and synchronization rules only.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use midway_apps::{AppKind, Scale};
use midway_core::{report, BackendKind, Counters, FaultPlan, MidwayConfig, MidwayRun};
use midway_replay::{check, record_app, replay, Axes, Comparison, Trace, Transport};
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
            "--loss PPM",
            "--fault-seed N",
        ],
        cmd_replay,
    ),
    (
        "check",
        "<FILE>",
        &[
            "--loss PPM",
            "--fault-seed N",
            "--crash",
            "--interval BOUNDARIES",
            "--race",
        ],
        cmd_check,
    ),
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
        // Every number is read here, so a command never meets one it
        // cannot use. A run needs a processor: setup panics on a
        // zero-length allocation.
        for (flag, ok, wants) in NUMBERS {
            if let Some(v) = args.value(flag) {
                if !ok(v) {
                    return Err(format!("{flag} takes {wants}, got {v:?}"));
                }
            }
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

    /// The number following flag `name`, if the flag was given; `parse`
    /// checked it against [`NUMBERS`].
    fn number<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| panic!("{name} {v:?} passed parse")),
        )
    }

    /// Builds the lossy-network plan `--loss PPM` / `--fault-seed N`
    /// describe; `None` when neither flag was given.
    fn fault_plan(&self) -> Option<FaultPlan> {
        let (loss, seed) = (self.number("--loss"), self.number("--fault-seed"));
        if loss.is_none() && seed.is_none() {
            return None;
        }
        Some(FaultPlan::lossy(seed.unwrap_or(1), loss.unwrap_or(0)))
    }
}

/// The flags that take a number: what a value must parse as, and how the
/// usage error says it.
type NumberCheck = (&'static str, fn(&str) -> bool, &'static str);

const NUMBERS: &[NumberCheck] = &[
    (
        "--procs",
        |v| v.parse::<usize>().is_ok_and(|n| n > 0),
        "a processor count of 1 or more",
    ),
    ("--loss", |v| v.parse::<u32>().is_ok(), "a drop rate in ppm"),
    ("--fault-seed", |v| v.parse::<u64>().is_ok(), "a seed"),
    (
        "--interval",
        |v| v.parse::<u32>().is_ok(),
        "a checkpoint interval",
    ),
];

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

fn summarize(run: &MidwayRun<()>) {
    let (cfg, avg) = (&run.cfg, run.avg_counters());
    let t = avg.totals();
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
        let injected = t.msgs_dropped + t.msgs_duplicated + t.msgs_reordered + t.msgs_delayed;
        println!(
            "reliability:  {injected} faults injected, {} retransmits, {} acks, \
             {} dup frames dropped",
            t.retransmits, t.acks_sent, t.dup_frames_dropped
        );
    }
    if let Some(every) = cfg.effective_checkpoint_every() {
        println!(
            "recovery:     checkpoint every {every} boundaries; {} crash(es), {} cycles down, \
             {} messages fenced; {} checkpoints ({} KB) + {} KB WAL; replayed {} KB in {} cycles",
            t.crashes,
            t.downtime_cycles,
            t.fenced_messages,
            t.checkpoints_written,
            t.checkpoint_bytes / 1024,
            t.wal_bytes_logged / 1024,
            t.recovery_replay_bytes / 1024,
            t.recovery_cycles
        );
    }
}

fn cmd_record(args: &Args) -> Result<ExitCode, String> {
    let apps = match args.value("--app") {
        Some("all") => AppKind::all().to_vec(),
        Some("service") => AppKind::service().to_vec(),
        Some(s) => vec![AppKind::from_label(s)?],
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
    let procs: usize = args.number("--procs").unwrap_or(8);
    let out = args.value("--out");
    if out.is_some() && apps.len() > 1 {
        return Err("--out only makes sense with a single --app".to_string());
    }
    for app in apps {
        let cfg = MidwayConfig::new(procs, backend);
        let t0 = Instant::now();
        let trace = record_app(app, cfg, scale);
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
    if let Some(b) = args.value("--backend") {
        cfg.backend = BackendKind::from_cli_name(b)?;
    }
    if let Some(plan) = args.fault_plan() {
        cfg.faults = plan;
    }
    let t0 = Instant::now();
    let run = replay(&trace, cfg).map_err(|e| format!("replay failed: {e}"))?;
    summarize(&run);
    println!(
        "replayed in:  {:.2} s host time",
        t0.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let [path] = args.positional.as_slice() else {
        return Err("check takes exactly one trace file".to_string());
    };
    let trace = load(path)?;
    let mut faults = args.fault_plan();
    if args.flag("--crash") {
        // Sized by the recorded run so it always lands mid-computation:
        // processor 1 fails a third of the way in and stays down for 5%.
        let len = trace.meta.finish_cycles;
        let plan = faults.unwrap_or_else(FaultPlan::none);
        faults = Some(plan.with_crash(1 % trace.meta.cfg.procs, len / 3, len / 20));
    }
    let axes = Axes {
        transport: Transport::Sim {
            faults,
            checkpoint_every: args.number("--interval"),
        },
        check: args.flag("--race"),
        ..Axes::default()
    };
    println!(
        "== check: {path} ({} on {}) ==",
        trace.meta.app,
        trace.meta.cfg.backend.label()
    );
    let t0 = Instant::now();
    let verdict = check(&trace, &axes)?;
    let (base, run) = (&verdict.baseline, &verdict.checked);
    println!("reference:    bit-for-bit identical to the recorded run");
    summarize(run);
    let times = run.finish_time.cycles() as f64 / base.finish_time.cycles().max(1) as f64;
    match verdict.comparison {
        Comparison::Exact => println!("convergence:  bit-for-bit identical to the baseline"),
        Comparison::Converged => println!(
            "convergence:  final memory and counters match the baseline, deterministic \
             across reruns ({times:.2}x finish time)"
        ),
        Comparison::Reported => println!(
            "convergence:  final memory {} the baseline's, deterministic across reruns \
             (not required: {} is lock-order dependent; {times:.2}x finish time)",
            if verdict.converged {
                "matches"
            } else {
                "differs from"
            },
            trace.meta.app
        ),
    }
    println!(
        "checked in:   {:.2} s host time",
        t0.elapsed().as_secs_f64()
    );
    let Some(report) = &run.check else {
        return Ok(ExitCode::SUCCESS);
    };
    let received: u64 = run.counters.iter().map(|c| c.data_bytes_received).sum();
    println!(
        "events:       {} ops checked, {received} update bytes received",
        report.events
    );
    println!("findings:     none");
    Ok(ExitCode::SUCCESS)
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
    let [work, idle, write, acquire, release, rebind, barrier, read, grant] = trace.op_histogram();
    println!(
        "ops:          {} total (work {work}, idle {idle}, write {write}, acquire {acquire}, \
         release {release}, rebind {rebind}, barrier {barrier}, read {read}, grant {grant})",
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
                midway_core::TraceOp::Acquire { lock, .. } => acquires[lock as usize] += 1,
                midway_core::TraceOp::Rebind { lock, .. } => rebinds[lock as usize] += 1,
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
        for line in Counters::diff(&ma.counters, &mb.counters) {
            println!("meta.counters: {line}");
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
            println!("  a: {:?}", oa.iter().nth(i));
            println!("  b: {:?}", ob.iter().nth(i));
        }
    }
    Ok(ExitCode::FAILURE)
}

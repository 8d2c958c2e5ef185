//! High-churn task queue: the service family's synchronization-bound
//! workload.
//!
//! Every client session contributes one *root* task with a budget of
//! `ops_per_client` tasks; processing a task spends its work charge,
//! writes a self-describing result record, and splits the remaining
//! budget across up to `branch` children pushed back on the shared
//! queue. The tree shape is therefore fixed by [`ServiceParams`] —
//! exactly `procs × clients × ops_per_client` tasks run, no matter which
//! processor pops which — while *placement* is fully dynamic, so the
//! queue lock and the per-task slot locks churn constantly. Per-task
//! work is Zipf-skewed: most tasks are cheap, a few are stragglers.
//!
//! Like quicksort (the paper's dynamic workload), each task slot has its
//! own lock, rebound to the task's result range when the task is pushed;
//! popping the task ships exactly that range. A `write_pct` fraction of
//! tasks additionally appends to a global audit log under a single hot
//! lock — the op-mix knob turns into direct lock contention.

use std::sync::Arc;

use midway_core::{
    BarrierId, LockId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RunError,
    SharedArray, SystemBuilder, SystemSpec, Transport,
};

use crate::service::{mix64, ServiceParams, Zipf};

/// Ranks of the Zipf-skewed work distribution.
const WORK_RANKS: usize = 32;
/// Salt for the deterministic "is this task audited" predicate.
const AUDIT_SALT: u64 = 0xA0D1_7C47;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Client count (roots per processor), per-root task budget
    /// (`ops_per_client`), work skew, audit mix, base work, seed.
    pub svc: ServiceParams,
    /// Maximum children per task split.
    pub branch: usize,
    /// Result words per task.
    pub result_words: usize,
}

impl Params {
    /// A production-shaped configuration.
    pub fn paper() -> Params {
        Params {
            svc: ServiceParams {
                ops_per_client: 40,
                ..ServiceParams::paper()
            },
            branch: 3,
            result_words: 2,
        }
    }

    /// A tiny configuration for tests.
    pub fn small() -> Params {
        Params {
            svc: ServiceParams {
                ops_per_client: 12,
                ..ServiceParams::small()
            },
            branch: 2,
            result_words: 2,
        }
    }

    /// Total tasks a run processes (exact, by construction).
    fn total_tasks(&self, procs: usize) -> usize {
        procs * self.svc.ops_per_proc()
    }

    /// Whether task `id` appends to the audit log.
    fn audited(&self, id: u64) -> bool {
        mix64(self.svc.seed ^ AUDIT_SALT, id) % 100 < u64::from(self.svc.write_pct)
    }

    /// The Zipf-skewed work charge for task `id`.
    fn work_for(&self, id: u64, zipf: &Zipf) -> u64 {
        let mut rng = midway_sim::SplitMix64::new(mix64(self.svc.seed, id));
        self.svc.think_cycles * (zipf.sample(&mut rng) as u64 + 1)
    }
}

/// Per-processor outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Tasks this processor processed.
    pub processed: u64,
    /// Children this processor spawned.
    pub spawned: u64,
    /// Audit-log appends this processor performed.
    pub audited: u64,
    /// Global verification verdict (computed by processor 0).
    pub queue_ok: Option<bool>,
}

struct Handles {
    /// Per-task budget, written when the task is pushed (slot index = id).
    tmeta: SharedArray<u64>,
    /// Per-task result records (`result_words` each).
    results: SharedArray<u64>,
    /// The task stack: slot ids, newest on top.
    qstack: SharedArray<u64>,
    /// `[stack size, next free slot, tasks done]`.
    qctl: SharedArray<u64>,
    /// `[audit count, audit xor]` under its own hot lock.
    audit: SharedArray<u64>,
    /// Per-processor `[processed, spawned]` tallies.
    stats: SharedArray<u64>,
    qlock: LockId,
    audit_lock: LockId,
    slot_locks: Vec<LockId>,
    done: BarrierId,
}

fn build(p: Params, procs: usize) -> (Arc<SystemSpec>, Handles) {
    let t = p.total_tasks(procs);
    let mut b = SystemBuilder::new();
    let tmeta = b.shared_array::<u64>("tmeta", t, 1);
    let results = b.shared_array::<u64>("results", t * p.result_words, 1);
    let qstack = b.shared_array::<u64>("qstack", t, 1);
    let qctl = b.shared_array::<u64>("qctl", 3, 1);
    let audit = b.shared_array::<u64>("audit", 2, 1);
    let stats = b.shared_array::<u64>("stats", procs * 2, 1);
    let qlock = b.lock(vec![
        tmeta.full_range(),
        qstack.full_range(),
        qctl.full_range(),
    ]);
    let audit_lock = b.lock(vec![audit.full_range()]);
    let slot_locks = (0..t).map(|_| b.lock(vec![])).collect();
    let done = b.barrier_partitioned(
        vec![stats.full_range()],
        (0..procs)
            .map(|q| vec![stats.range(q * 2..q * 2 + 2)])
            .collect(),
    );
    (
        b.build(),
        Handles {
            tmeta,
            results,
            qstack,
            qctl,
            audit,
            stats,
            qlock,
            audit_lock,
            slot_locks,
            done,
        },
    )
}

/// Runs the task queue under `cfg` and verifies the result.
///
/// # Panics
///
/// Panics if the simulation fails (deadlock or processor panic).
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, |proc: &mut Proc| worker(proc, p, &h))
        .expect("taskqueue simulation failed")
}

/// Runs the task queue over real sockets (`Midway::run_real`).
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RunError> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run_real(cfg, real, &spec, |proc| worker(proc, p, &h))
}

/// Reserves a fresh slot, rebinds its lock to the task's result range,
/// and publishes the task (budget first, stack entry last).
fn push_task<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    p: Params,
    h: &Handles,
    budget: u64,
) -> u64 {
    proc.acquire(h.qlock);
    let id = proc.read(&h.qctl, 1);
    assert!((id as usize) < h.slot_locks.len(), "task queue overflow");
    proc.write(&h.qctl, 1, id + 1);
    proc.write(&h.tmeta, id as usize, budget);
    proc.release(h.qlock);
    // Rebind before publishing: the slot is invisible, so this acquire is
    // uncontended, and the pusher becomes the owner of record.
    let r = id as usize * p.result_words;
    proc.acquire(h.slot_locks[id as usize]);
    proc.rebind(
        h.slot_locks[id as usize],
        vec![h.results.range(r..r + p.result_words)],
    );
    proc.release(h.slot_locks[id as usize]);
    proc.acquire(h.qlock);
    let size = proc.read(&h.qctl, 0);
    proc.write(&h.qstack, size as usize, id);
    proc.write(&h.qctl, 0, size + 1);
    proc.release(h.qlock);
    id
}

fn worker<T: Transport<Msg = NetMsg>>(proc: &mut Proc<'_, T>, p: Params, h: &Handles) -> Outcome {
    let me = proc.id();
    let total = p.total_tasks(proc.procs()) as u64;
    let zipf = Zipf::new(WORK_RANKS, p.svc.skew);
    let mut out = Outcome {
        processed: 0,
        spawned: 0,
        audited: 0,
        queue_ok: None,
    };

    // Every processor seeds one root per client session.
    for _ in 0..p.svc.clients {
        let id = push_task(proc, p, h, p.svc.ops_per_client as u64);
        out.spawned += 1;
        let _ = id;
    }

    loop {
        proc.acquire(h.qlock);
        let size = proc.read(&h.qctl, 0);
        let done = proc.read(&h.qctl, 2);
        let task = if size > 0 {
            let id = proc.read(&h.qstack, size as usize - 1);
            proc.write(&h.qctl, 0, size - 1);
            let budget = proc.read(&h.tmeta, id as usize);
            Some((id, budget))
        } else {
            None
        };
        proc.release(h.qlock);

        let Some((id, budget)) = task else {
            if done == total {
                break;
            }
            proc.idle(20_000); // backoff before re-polling
            continue;
        };

        // Process: the slot lock ships exactly this task's result range.
        proc.acquire(h.slot_locks[id as usize]);
        let r = id as usize * p.result_words;
        for w in 0..p.result_words {
            proc.write(&h.results, r + w, mix64(id, budget ^ w as u64));
        }
        proc.release(h.slot_locks[id as usize]);
        proc.work(p.work_for(id, &zipf));
        out.processed += 1;

        if p.audited(id) {
            proc.acquire(h.audit_lock);
            let n = proc.read(&h.audit, 0);
            let x = proc.read(&h.audit, 1);
            proc.write(&h.audit, 0, n + 1);
            proc.write(&h.audit, 1, x ^ mix64(id, budget));
            proc.release(h.audit_lock);
            out.audited += 1;
        }

        // Split the remaining budget across up to `branch` children.
        let mut rem = budget - 1;
        let mut share = rem.div_ceil(p.branch as u64).max(1);
        while rem > 0 {
            share = share.min(rem);
            push_task(proc, p, h, share);
            out.spawned += 1;
            rem -= share;
        }

        proc.acquire(h.qlock);
        let d = proc.read(&h.qctl, 2);
        proc.write(&h.qctl, 2, d + 1);
        proc.release(h.qlock);
    }

    proc.write(&h.stats, me * 2, out.processed);
    proc.write(&h.stats, me * 2 + 1, out.spawned);
    proc.barrier(h.done);

    out.queue_ok = (me == 0).then(|| verify(proc, p, h, total));
    out
}

/// Processor 0's global audit: exactly `total` tasks ran, every result
/// record matches its task, and the audit log matches the deterministic
/// audit set.
fn verify<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    p: Params,
    h: &Handles,
    total: u64,
) -> bool {
    let mut processed = 0u64;
    let mut spawned = 0u64;
    for q in 0..proc.procs() {
        processed += proc.read(&h.stats, q * 2);
        spawned += proc.read(&h.stats, q * 2 + 1);
    }
    proc.acquire_shared(h.qlock);
    let next = proc.read(&h.qctl, 1);
    let done = proc.read(&h.qctl, 2);
    let budgets: Vec<u64> = (0..total as usize)
        .map(|id| proc.read(&h.tmeta, id))
        .collect();
    proc.release_shared(h.qlock);
    if !(next == total && done == total && processed == total && spawned == total) {
        return false;
    }

    let mut want_audits = 0u64;
    let mut want_xor = 0u64;
    let mut results_ok = true;
    for (id, &budget) in budgets.iter().enumerate() {
        let id = id as u64;
        if budget == 0 {
            return false;
        }
        if p.audited(id) {
            want_audits += 1;
            want_xor ^= mix64(id, budget);
        }
        proc.acquire_shared(h.slot_locks[id as usize]);
        for w in 0..p.result_words {
            let got = proc.read(&h.results, id as usize * p.result_words + w);
            results_ok &= got == mix64(id, budget ^ w as u64);
        }
        proc.release_shared(h.slot_locks[id as usize]);
    }

    proc.acquire_shared(h.audit_lock);
    let audits = proc.read(&h.audit, 0);
    let xor = proc.read(&h.audit, 1);
    proc.release_shared(h.audit_lock);
    results_ok && audits == want_audits && xor == want_xor
}

/// Whether an outcome set passes verification.
pub fn verified(outcomes: &[Outcome]) -> bool {
    outcomes[0].queue_ok == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn churns_and_verifies_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let p = Params::small();
            let run = run(MidwayConfig::new(3, backend), p);
            assert!(verified(&run.results), "{backend:?}: {:?}", run.results);
            let processed: u64 = run.results.iter().map(|o| o.processed).sum();
            assert_eq!(processed, p.total_tasks(3) as u64, "exact task count");
        }
    }

    #[test]
    fn work_is_distributed_across_processors() {
        let run = run(MidwayConfig::new(4, BackendKind::Rt), Params::small());
        let busy = run.results.iter().filter(|o| o.processed > 0).count();
        assert!(busy >= 2, "only {busy} processors processed tasks");
    }

    #[test]
    fn standalone_processes_the_exact_task_count() {
        let p = Params::small();
        let run = run(MidwayConfig::standalone(), p);
        assert!(verified(&run.results));
        assert_eq!(run.results[0].processed, p.total_tasks(1) as u64);
        assert_eq!(run.messages, 0);
    }

    #[test]
    fn rebinding_slot_locks_causes_vm_full_sends() {
        let run = run(MidwayConfig::new(4, BackendKind::Vm), Params::small());
        let fulls: u64 = run.counters.iter().map(|c| c.full_data_sends).sum();
        assert!(fulls > 0, "slot rebinds should force full-data sends");
    }
}

//! N-body molecular dynamics (SPLASH `water`, paper §4).
//!
//! "The program evaluates forces and potentials for a system of 343 water
//! molecules in a liquid state for 5 steps. It exhibits medium-grained
//! sharing. Our version of water has the optimization suggested in [Singh
//! et al. 92], which collects changes to the molecules in private memory
//! during a time step, updating the shared molecules only at the end of
//! each time step."
//!
//! Each molecule carries nine position and nine force doubles (three atoms
//! × three coordinates). Forces are accumulated in private memory during
//! the pair phase and flushed into the shared force array under
//! per-molecule locks; owners then integrate their molecules and publish
//! positions through a partitioned barrier.

use std::sync::Arc;

use midway_core::{
    BarrierId, LockId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RunError,
    SharedArray, SystemBuilder, SystemSpec, Transport,
};

/// Cycles charged per molecule-pair interaction (calibrated so the
/// standalone run lands near the paper's 104.2 s; see `DESIGN.md`).
const CYCLES_PER_PAIR: u64 = 8_900;
/// Cycles charged per molecule integration.
const CYCLES_PER_INTEGRATE: u64 = 600;

/// Values per molecule: three atoms × three coordinates.
const DOF: usize = 9;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Molecules (paper: 343 = 7³).
    pub molecules: usize,
    /// Time steps (paper: 5).
    pub steps: usize,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Params {
        Params {
            molecules: 343,
            steps: 5,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Params {
        Params {
            molecules: 27,
            steps: 3,
        }
    }
}

/// Per-processor outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Checksum over the final positions of this processor's molecules.
    pub position_checksum: f64,
    /// Largest coordinate magnitude seen (sanity: the system stays bound).
    pub max_coord: f64,
}

struct Handles {
    pos: SharedArray<f64>,
    force: SharedArray<f64>,
    /// Velocities: per-molecule state a Midway port shares by default
    /// (heap data is shared unless annotated), written by the owner.
    vel: SharedArray<f64>,
    /// Accelerations from the previous step (velocity Verlet needs both).
    acc: SharedArray<f64>,
    mol_locks: Vec<LockId>,
    flush_done: BarrierId,
    step_done: BarrierId,
}

fn owner_of(n: usize, procs: usize, m: usize) -> usize {
    (m * procs / n.max(1)).min(procs - 1)
}

fn molecules_of(n: usize, procs: usize, p: usize) -> Vec<usize> {
    (0..n).filter(|m| owner_of(n, procs, *m) == p).collect()
}

fn build(p: Params, procs: usize) -> (Arc<SystemSpec>, Handles) {
    let n = p.molecules;
    let mut b = SystemBuilder::new();
    let pos = b.shared_array::<f64>("positions", n * DOF, 1);
    let force = b.shared_array::<f64>("forces", n * DOF, 1);
    let vel = b.shared_array::<f64>("velocities", n * DOF, 1);
    let acc = b.shared_array::<f64>("accelerations", n * DOF, 1);
    // The lock guards the molecule's whole mutable record, so transfers
    // also carry state only the owner writes — the source of the paper's
    // redundant-data observation for water.
    let mol_locks = (0..n)
        .map(|m| {
            b.lock(vec![
                force.range(m * DOF..(m + 1) * DOF),
                vel.range(m * DOF..(m + 1) * DOF),
                acc.range(m * DOF..(m + 1) * DOF),
            ])
        })
        .collect();
    // The flush barrier carries no data: forces travel under the locks.
    let flush_done = b.barrier(vec![]);
    // Position publication: each owner writes only its molecules.
    let partitions: Vec<_> = (0..procs)
        .map(|q| {
            molecules_of(n, procs, q)
                .into_iter()
                .map(|m| pos.range(m * DOF..(m + 1) * DOF))
                .collect()
        })
        .collect();
    let step_done = b.barrier_partitioned(vec![pos.full_range()], partitions);
    (
        b.build(),
        Handles {
            pos,
            force,
            vel,
            acc,
            mol_locks,
            flush_done,
            step_done,
        },
    )
}

/// Initial lattice position of atom `a` of molecule `m`.
fn initial(m: usize, a: usize, k: usize, side: usize) -> f64 {
    let cell = 3.8;
    let (x, y, z) = (m % side, (m / side) % side, m / (side * side));
    let base = [x as f64 * cell, y as f64 * cell, z as f64 * cell][k];
    // Small intra-molecular offsets per atom.
    base + 0.3 * a as f64 * [1.0, -0.5, 0.25][k]
}

/// Lennard-Jones-style force between molecule centres, clamped for
/// stability.
fn pair_force(ci: [f64; 3], cj: [f64; 3]) -> [f64; 3] {
    let d = [cj[0] - ci[0], cj[1] - ci[1], cj[2] - ci[2]];
    let r2 = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).max(1.0);
    if r2 > 36.0 {
        return [0.0; 3]; // cutoff
    }
    let inv = 1.0 / r2;
    let s6 = inv * inv * inv * 200.0;
    let mag = 24.0 * s6 * (1.0 - 2.0 * s6 * 0.05) * inv;
    [-mag * d[0], -mag * d[1], -mag * d[2]]
}

/// Runs water under `cfg`.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, |proc: &mut Proc| session(proc, p, &h))
        .expect("water simulation failed")
}

/// Runs water over real sockets (`Midway::run_real`).
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RunError> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run_real(cfg, real, &spec, |proc| session(proc, p, &h))
}

fn session<T: Transport<Msg = NetMsg>>(proc: &mut Proc<'_, T>, p: Params, h: &Handles) -> Outcome {
    let n = p.molecules;
    let side = (n as f64).cbrt().round() as usize;
    {
        let me = proc.id();
        let procs = proc.procs();
        let mine = molecules_of(n, procs, me);

        // Owners publish initial positions.
        for &m in &mine {
            for a in 0..3 {
                for k in 0..3 {
                    proc.write(&h.pos, m * DOF + a * 3 + k, initial(m, a, k, side));
                }
            }
        }
        proc.barrier(h.step_done);

        // Private per-processor force accumulation (the paper's
        // optimization); molecule state itself is shared.
        let mut local_force = vec![0.0f64; n * DOF];
        let dt = 0.002;

        for _step in 0..p.steps {
            // Phase 1: pair forces into private memory.
            let all_pos: Vec<f64> = proc.read_vec(&h.pos, 0..n * DOF);
            let centre = |m: usize| -> [f64; 3] {
                let mut c = [0.0f64; 3];
                for a in 0..3 {
                    for (k, ck) in c.iter_mut().enumerate() {
                        *ck += all_pos[m * DOF + a * 3 + k] / 3.0;
                    }
                }
                c
            };
            let mut pairs = 0u64;
            for &i in &mine {
                let ci = centre(i);
                for j in i + 1..n {
                    let f = pair_force(ci, centre(j));
                    pairs += 1;
                    for a in 0..3 {
                        for k in 0..3 {
                            local_force[i * DOF + a * 3 + k] += f[k] / 3.0;
                            local_force[j * DOF + a * 3 + k] -= f[k] / 3.0;
                        }
                    }
                }
            }
            proc.work(pairs * CYCLES_PER_PAIR);

            // Phase 2: flush private accumulations into the shared force
            // array under per-molecule locks.
            for m in 0..n {
                let any = local_force[m * DOF..(m + 1) * DOF]
                    .iter()
                    .any(|v| *v != 0.0);
                if !any {
                    continue;
                }
                proc.acquire(h.mol_locks[m]);
                for k in 0..DOF {
                    let cur = proc.read(&h.force, m * DOF + k);
                    proc.write(&h.force, m * DOF + k, cur + local_force[m * DOF + k]);
                    local_force[m * DOF + k] = 0.0;
                }
                proc.release(h.mol_locks[m]);
            }
            proc.barrier(h.flush_done);

            // Phase 3: owners integrate (velocity Verlet) and reset forces.
            for &m in &mine {
                proc.acquire(h.mol_locks[m]);
                for k in 0..DOF {
                    let i = m * DOF + k;
                    let a_new = proc.read(&h.force, i); // unit mass
                    let a_old = proc.read(&h.acc, i);
                    let v = proc.read(&h.vel, i) + 0.5 * (a_old + a_new) * dt;
                    let x = proc.read(&h.pos, i) + v * dt + 0.5 * a_new * dt * dt;
                    proc.write(&h.vel, i, v);
                    proc.write(&h.acc, i, a_new);
                    proc.write(&h.pos, i, x);
                    proc.write(&h.force, i, 0.0);
                }
                proc.release(h.mol_locks[m]);
            }
            proc.work(mine.len() as u64 * CYCLES_PER_INTEGRATE);
            proc.barrier(h.step_done);
        }

        // Checksum own molecules' final positions.
        let mut checksum = 0.0;
        let mut max_coord = 0.0f64;
        for &m in &mine {
            for k in 0..DOF {
                let x = proc.read(&h.pos, m * DOF + k);
                checksum += x * ((m * DOF + k) % 11 + 1) as f64;
                max_coord = max_coord.max(x.abs());
            }
        }
        Outcome {
            position_checksum: checksum,
            max_coord,
        }
    }
}

/// Total position checksum.
pub fn checksum(outcomes: &[Outcome]) -> f64 {
    outcomes.iter().map(|o| o.position_checksum).sum()
}

/// Sanity verification: the system stays bound and produced real numbers.
pub fn verified(outcomes: &[Outcome]) -> bool {
    outcomes
        .iter()
        .all(|o| o.max_coord.is_finite() && o.max_coord < 1.0e4 && o.position_checksum.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn stable_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let run = run(MidwayConfig::new(3, backend), Params::small());
            assert!(verified(&run.results), "{backend:?}");
        }
    }

    #[test]
    fn parallel_matches_standalone() {
        let solo = run(MidwayConfig::standalone(), Params::small());
        let par = run(MidwayConfig::new(4, BackendKind::Rt), Params::small());
        let a = checksum(&solo.results);
        let b = checksum(&par.results);
        // Force accumulation order differs across processor counts, so
        // agreement is approximate.
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(1.0),
            "standalone {a} vs parallel {b}"
        );
    }

    #[test]
    fn rt_and_vm_agree() {
        let rt = run(MidwayConfig::new(3, BackendKind::Rt), Params::small());
        let vm = run(MidwayConfig::new(3, BackendKind::Vm), Params::small());
        let a = checksum(&rt.results);
        let b = checksum(&vm.results);
        assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn forces_travel_under_locks_not_barriers() {
        let run = run(MidwayConfig::new(3, BackendKind::Rt), Params::small());
        let acquires: u64 = run.counters.iter().map(|c| c.lock_acquires).sum();
        // Every processor flushes most molecules every step.
        assert!(acquires > (Params::small().molecules * Params::small().steps) as u64);
    }

    #[test]
    fn molecule_partition_is_total() {
        for procs in [1, 3, 8] {
            let n = 343;
            let mut count = 0;
            for p in 0..procs {
                count += molecules_of(n, procs, p).len();
            }
            assert_eq!(count, n);
        }
    }
}

//! Scale-out configuration tests: combining-tree barriers and sharded
//! sync homes must be invisible to application semantics — same results,
//! same final memory — and bit-for-bit deterministic run to run.

use midway_core::{BackendKind, Midway, MidwayConfig, MidwayRun, Proc, SystemBuilder};

const DATA_BACKENDS: [BackendKind; 5] = [
    BackendKind::Rt,
    BackendKind::Vm,
    BackendKind::Blast,
    BackendKind::TwinAll,
    BackendKind::Hybrid,
];

/// A barrier-phased stencil over a partitioned array: each processor owns
/// a chunk, writes a function of the iteration into it, and reads its
/// neighbours' chunks after each barrier. Stresses exactly the
/// merged-update fan-in/fan-out the combining tree reshapes.
fn run_stencil(cfg: MidwayConfig, chunk: usize, iters: u64) -> MidwayRun<u64> {
    let procs = cfg.procs;
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", procs * chunk, 1);
    let parts = (0..procs)
        .map(|p| vec![data.range(p * chunk..(p + 1) * chunk)])
        .collect();
    let bar = b.barrier_partitioned(vec![data.full_range()], parts);
    let spec = b.build();
    Midway::run(cfg, &spec, |p: &mut Proc| {
        let me = p.id();
        let mut acc = 0u64;
        for it in 1..=iters {
            for i in 0..chunk {
                p.write(&data, me * chunk + i, (me as u64 + 1) * it + i as u64);
            }
            p.barrier(bar);
            let left = (me + procs - 1) % procs;
            let right = (me + 1) % procs;
            acc = acc
                .wrapping_add(p.read(&data, left * chunk))
                .wrapping_add(p.read(&data, right * chunk + chunk - 1));
            p.barrier(bar);
        }
        acc
    })
    .expect("stencil run completes")
}

/// Tree barriers deliver exactly the updates flat barriers deliver: the
/// application results and the final memory images agree on every data
/// backend, at processor counts that exercise ragged trees (odd, prime,
/// larger than arity squared).
#[test]
fn tree_barriers_match_flat_results_on_all_backends() {
    for backend in DATA_BACKENDS {
        for procs in [3, 7, 13] {
            let chunk = 4;
            let flat = run_stencil(MidwayConfig::new(procs, backend), chunk, 3);
            for arity in [2, 4] {
                let tree = run_stencil(
                    MidwayConfig::new(procs, backend).tree_barriers(arity),
                    chunk,
                    3,
                );
                assert_eq!(
                    tree.results, flat.results,
                    "{backend:?} P={procs} arity={arity}: results diverge"
                );
                assert_eq!(
                    tree.store_digests, flat.store_digests,
                    "{backend:?} P={procs} arity={arity}: final memory diverges"
                );
            }
        }
    }
}

/// Tree barriers (with sharded homes, the scale-out bundle) are
/// bit-for-bit deterministic: re-running the same configuration
/// reproduces the finish time, message count, every counter, and every
/// memory digest — on all six backends (the standalone `None` backend is
/// single-processor by definition, where the tree is a root and nothing
/// else).
#[test]
fn tree_barriers_are_bit_for_bit_deterministic() {
    fn fingerprint(run: &MidwayRun<u64>) -> (u64, u64, Vec<midway_core::Counters>, Vec<u64>) {
        (
            run.finish_time.cycles(),
            run.messages,
            run.counters.clone(),
            run.store_digests.clone(),
        )
    }
    for backend in DATA_BACKENDS {
        let cfg = MidwayConfig::new(9, backend).scale_out(2, 42);
        let first = run_stencil(cfg, 4, 3);
        for round in 0..2 {
            let again = run_stencil(cfg, 4, 3);
            assert_eq!(
                fingerprint(&again),
                fingerprint(&first),
                "{backend:?} round {round}: tree run is nondeterministic"
            );
        }
    }
    // The uniprocessor backend: a one-node tree must run and repeat.
    let cfg = MidwayConfig::new(1, BackendKind::None).tree_barriers(2);
    let first = run_stencil(cfg, 4, 3);
    let again = run_stencil(cfg, 4, 3);
    assert_eq!(fingerprint(&again), fingerprint(&first));
}

/// Sharded sync homes relocate coordination state but change no
/// semantics: a set of lock-protected counters sums to the same totals
/// under modulo and sharded placement, for several seeds, and every
/// processor observes the final values through a closing acquire pass.
#[test]
fn sharded_homes_match_modulo_semantics() {
    let slots = 8usize;
    let rounds = 10u64;
    let run_counters = |cfg: MidwayConfig| -> MidwayRun<Vec<u64>> {
        let mut b = SystemBuilder::new();
        let counter = b.shared_array::<u64>("counter", slots, 1);
        let locks: Vec<_> = (0..slots)
            .map(|i| b.lock(vec![counter.range(i..i + 1)]))
            .collect();
        let sync = b.barrier(vec![]);
        let spec = b.build();
        Midway::run(cfg, &spec, move |p: &mut Proc| {
            for r in 0..rounds {
                let slot = (p.id() + r as usize) % slots;
                p.acquire(locks[slot]);
                let v = p.read(&counter, slot);
                p.write(&counter, slot, v + 1);
                p.release(locks[slot]);
            }
            // All increments land before anyone reads final values.
            p.barrier(sync);
            // Closing read pass: acquiring each lock makes its slot
            // consistent here, so every processor returns the final image.
            (0..slots)
                .map(|slot| {
                    p.acquire(locks[slot]);
                    let v = p.read(&counter, slot);
                    p.release(locks[slot]);
                    v
                })
                .collect()
        })
        .expect("counter run completes")
    };
    for procs in [4, 7] {
        let modulo = run_counters(MidwayConfig::new(procs, BackendKind::Rt));
        // Slot s ends at the number of (processor, round) pairs that hashed
        // to it — interleaving-independent, so every configuration and
        // every processor must report exactly this image.
        let mut expected = vec![0u64; slots];
        for p in 0..procs {
            for r in 0..rounds as usize {
                expected[(p + r) % slots] += 1;
            }
        }
        for totals in &modulo.results {
            assert_eq!(totals, &expected, "P={procs}: wrong final counts");
        }
        for seed in [1u64, 99] {
            let sharded = run_counters(
                MidwayConfig::new(procs, BackendKind::Rt)
                    .home_map(midway_core::HomeMap::Sharded { seed }),
            );
            assert_eq!(
                sharded.results, modulo.results,
                "P={procs} seed={seed}: sharded homes changed semantics"
            );
        }
    }
}

/// Every detector hands the barrier a strictly address-sorted set — the
/// invariant that keeps the merge and the release's skip walk on their
/// linear paths. The engine asserts it on every collection in debug
/// builds (`DsmNode::collect_barrier`); this drives that assertion
/// through the five paper applications on every data backend, under both
/// barrier shapes.
#[cfg(debug_assertions)]
#[test]
fn barrier_collections_are_address_sorted_on_every_app_and_backend() {
    use midway_apps::{run_app, AppKind, Scale};
    for backend in DATA_BACKENDS {
        for kind in AppKind::all() {
            for cfg in [
                MidwayConfig::new(4, backend),
                MidwayConfig::new(5, backend).tree_barriers(2),
            ] {
                run_app(kind, cfg, Scale::Small);
            }
        }
    }
}

//! Per-layer probes: each times calls into one crate's public functions
//! on synthetic inputs built here. Nothing inside the program is
//! instrumented, so a probe measures exactly what a caller of that layer
//! pays. README.md says which end-to-end metric, on which workload, each
//! probe is predicted to move.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use midway_apps::sor;
use midway_core::{
    BackendKind, FaultPlan, Midway, MidwayConfig, NetMsg, Proc, RealConfig, SystemBuilder,
    Transport,
};
use midway_mem::diff::PageDiff;
use midway_mem::{
    BufPool, DirtyBits, LayoutBuilder, LocalStore, MemClass, PageTable, StoreKind, Template,
    WriteAccess, PAGE_SIZE,
};
use midway_proto::{
    rt, vm, Binding, HomeLock, Mode, RecvChannel, SendChannel, TreeSite, TreeStep, TreeTopology,
    UpdateItem, UpdateSet,
};
use midway_replay::{replay, Trace};
use midway_sim::{Cluster, ClusterConfig, ProcHandle};

use crate::host::{self, Pinned};
use crate::metrics::PER_LAYER;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{paper_app_input, record, run_input, Input, Size};

/// How much each probe repeats: a full run takes the median of `reps`
/// batches; a smoke run does a sliver of the work once.
struct Timer {
    reps: usize,
    shrink: usize,
}

impl Timer {
    fn new(smoke: bool) -> Timer {
        if smoke {
            Timer {
                reps: 1,
                shrink: 20,
            }
        } else {
            Timer { reps: 5, shrink: 1 }
        }
    }

    /// `n` scaled down for smoke runs.
    fn n(&self, n: usize) -> usize {
        (n / self.shrink).max(1)
    }

    fn median_of(&self, sample: impl FnMut() -> f64) -> f64 {
        let samples: Vec<f64> = std::iter::repeat_with(sample).take(self.reps).collect();
        median(&samples)
    }

    /// Median seconds per call of `f`, over batches of `iters` calls.
    fn per_call(&self, iters: usize, mut f: impl FnMut()) -> f64 {
        let iters = self.n(iters);
        f(); // warm: lazy allocation stays out of the samples
        self.median_of(|| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
    }

    /// Like [`per_call`](Self::per_call) for calls that need state
    /// rebuilt in between: `f` returns the seconds its measured part took.
    fn inner(&self, iters: usize, mut f: impl FnMut() -> f64) -> f64 {
        let iters = self.n(iters);
        f();
        self.median_of(|| (0..iters).map(|_| f()).sum::<f64>() / iters as f64)
    }

    /// Median seconds of a whole simulation run.
    fn whole(&self, f: impl FnMut() -> f64) -> f64 {
        self.inner(1, f)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

fn layer_of(name: &str) -> &'static str {
    let prefix = name.split('.').next().unwrap_or_default();
    [
        "calib", "apps", "mem", "proto", "sim", "core", "replay", "net",
    ]
    .into_iter()
    .find(|l| *l == prefix)
    .unwrap_or("benchmark")
}

struct Probes<'a> {
    t: Timer,
    spans: &'a mut Spans,
    out: Vec<(String, f64)>,
}

impl Probes<'_> {
    fn probe(&mut self, name: &str, f: impl FnOnce(&Timer) -> f64) {
        let t = &self.t;
        let value = self.spans.scope(name, layer_of(name), |_| f(t));
        self.out.push((name.to_string(), value));
    }
}

const MB: f64 = 1e6;
const LINES: usize = 65_536;

/// A twin page, and a copy with every word changed.
fn dense_page() -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; PAGE_SIZE];
    let dense = (0..PAGE_SIZE).map(|i| (i % 251) as u8 + 1).collect();
    (twin, dense)
}

/// A mostly-clean dirtybit array with a sprinkling of dirty and freshly
/// stamped lines: the shape a barrier-partition scan sees.
fn mixed_bits() -> DirtyBits {
    let mut bits = DirtyBits::new(LINES);
    for line in (0..LINES).step_by(97) {
        bits.mark(line);
    }
    for line in (1..LINES).step_by(193) {
        bits.stamp(line, 50);
    }
    bits
}

/// A store with one densely written region of `bytes`.
fn dense_store(bytes: usize) -> LocalStore {
    let mut b = LayoutBuilder::new();
    let r = b.alloc("dense", bytes, MemClass::Shared, 6);
    let mut store = LocalStore::new(b.build());
    for off in (0..bytes).step_by(8) {
        store.write_u64(r.addr + off as u64, off as u64 | 1);
    }
    store
}

fn calib(p: &mut Probes) {
    p.probe("calib.diff_reference_mbps", |t| {
        let (twin, dense) = dense_page();
        let s = t.per_call(400, || {
            black_box(PageDiff::compute_reference(black_box(&dense), &twin));
        });
        PAGE_SIZE as f64 / s / MB
    });
    p.probe("calib.scan_reference_mlps", |t| {
        let snapshot = mixed_bits();
        let mut bits = snapshot.clone();
        let s = t.inner(40, || {
            bits.clone_from(&snapshot);
            timed(|| bits.scan_reference(0..LINES, 10, 99))
        });
        LINES as f64 / s / MB
    });
    p.probe("calib.digest_reference_mbps", |t| {
        let bytes = t.n(2 << 20).next_multiple_of(64);
        let store = dense_store(bytes);
        let s = t.per_call(10, || {
            black_box(store.digest_reference());
        });
        bytes as f64 / s / MB
    });
    // Pure register arithmetic: touches no code of the repository and no
    // memory, so it tracks the host's clock and nothing else.
    p.probe("calib.spin_mops", |t| {
        const OPS: usize = 200_000;
        let s = t.per_call(20, || {
            let mut x = black_box(88_172_645_463_325_252u64);
            for _ in 0..OPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
        });
        OPS as f64 / s / MB
    });
}

/// The four host-speed references alone, for the untraced results file.
pub fn calibration(smoke: bool) -> Vec<(String, f64)> {
    let mut p = Probes {
        t: Timer::new(smoke),
        spans: &mut Spans::new(),
        out: Vec::new(),
    };
    calib(&mut p);
    p.out
}

/// `MidwayConfig::standalone()` runs: the kernel plus bare store
/// accessors, no detection, no protocol, one simulated processor.
fn apps(p: &mut Probes, size: Size) {
    for app in ["water", "quicksort", "matrix", "sor", "cholesky"] {
        p.probe(&format!("apps.standalone_s.{app}"), |t| {
            let input = paper_app_input(app, size);
            t.whole(|| timed(|| run_input(&input, MidwayConfig::standalone())))
        });
    }
}

fn mem(p: &mut Probes) {
    let (twin, dense) = dense_page();
    let mut sparse = twin.clone();
    for i in (0..PAGE_SIZE).step_by(64) {
        sparse[i] = 0xAB;
    }
    for (name, cur) in [
        ("mem.diff_identical_mbps", &twin),
        ("mem.diff_sparse_mbps", &sparse),
        ("mem.diff_dense_mbps", &dense),
    ] {
        p.probe(name, |t| {
            let mut diff = PageDiff::default();
            let s = t.per_call(2_000, || {
                PageDiff::compute_into(&mut diff, black_box(cur), &twin);
                black_box(&diff);
            });
            PAGE_SIZE as f64 / s / MB
        });
    }
    p.probe("mem.diff_apply_mbps", |t| {
        let diff = PageDiff::compute(&dense, &twin);
        let mut page = twin.clone();
        let s = t.per_call(2_000, || {
            black_box(&diff).apply(&mut page);
            black_box(&page);
        });
        PAGE_SIZE as f64 / s / MB
    });
    p.probe("mem.diff_restrict_ns", |t| {
        let diff = PageDiff::compute(&sparse, &twin);
        let ranges = [0..1024, 2048..3072];
        t.per_call(2_000, || {
            black_box(black_box(&diff).restrict(&ranges));
        }) * 1e9
    });
    p.probe("mem.scan_clean_mlps", |t| {
        let mut bits = DirtyBits::new(LINES);
        let mut out = midway_mem::ScanOutcome::default();
        let s = t.per_call(400, || {
            bits.scan_into(&mut out, 0..LINES, 10, 99);
            black_box(&out);
        });
        LINES as f64 / s / MB
    });
    p.probe("mem.scan_mixed_mlps", |t| {
        let snapshot = mixed_bits();
        let mut bits = snapshot.clone();
        let mut out = midway_mem::ScanOutcome::default();
        let s = t.inner(400, || {
            bits.clone_from(&snapshot);
            timed(|| bits.scan_into(&mut out, 0..LINES, 10, 99))
        });
        LINES as f64 / s / MB
    });

    // One 512 KB doubleword-line region for the accessor probes.
    const WORDS: usize = 65_536;
    let mut b = LayoutBuilder::new();
    let a = b.alloc("words", WORDS * 8, MemClass::Shared, 3);
    let layout = b.build();
    p.probe("mem.template_store_ns", |t| {
        let desc = layout.region_of(a.addr);
        let tpl = Template::for_region(desc);
        let mut bits = DirtyBits::new(desc.lines());
        let cost = MidwayConfig::new(1, BackendKind::Rt).cost;
        let s = t.per_call(100, || {
            for k in 0..WORDS as u64 {
                black_box(tpl.invoke(&mut bits, a.addr + k * 8, StoreKind::Doubleword, &cost));
            }
        });
        s / WORDS as f64 * 1e9
    });
    let mut store = LocalStore::new(Arc::clone(&layout));
    p.probe("mem.store_write_ns", |t| {
        let s = t.per_call(100, || {
            for k in 0..WORDS as u64 {
                store.write_u64(a.addr + k * 8, black_box(k));
            }
        });
        s / WORDS as f64 * 1e9
    });
    p.probe("mem.store_read_ns", |t| {
        let s = t.per_call(100, || {
            let mut acc = 0u64;
            for k in 0..WORDS as u64 {
                acc = acc.wrapping_add(store.read_u64(a.addr + k * 8));
            }
            black_box(acc);
        });
        s / WORDS as f64 * 1e9
    });
    p.probe("mem.store_digest_mbps", |t| {
        let bytes = 2 << 20;
        let store = dense_store(bytes);
        let s = t.per_call(40, || {
            black_box(store.digest());
        });
        bytes as f64 / s / MB
    });
    p.probe("mem.page_fault_twin_ns", |t| {
        let pages = WORDS * 8 / PAGE_SIZE;
        let region = a.addr.region_index();
        let mut table = PageTable::new(Arc::clone(&layout));
        let current = vec![7u8; PAGE_SIZE];
        let s = t.inner(100, || {
            let dt = timed(|| {
                for page in 0..pages {
                    if table.store_probe(region, page) == WriteAccess::Fault {
                        table.fault_in(region, page, &current);
                    }
                }
            });
            for page in 0..pages {
                table.clean(region, page);
            }
            dt
        });
        s / pages as f64 * 1e9
    });
    p.probe("mem.pool_cycle_ns", |t| {
        let mut pool = BufPool::new();
        let s = t.per_call(200, || {
            for _ in 0..1_000 {
                let buf = pool.get_with_capacity(64);
                pool.put(black_box(buf));
            }
        });
        s / 1_000.0 * 1e9
    });
}

/// `count` sorted 8-byte items, `stride` bytes apart from `base`.
fn item_set(base: u64, stride: u64, count: u64, ts: u64) -> UpdateSet {
    UpdateSet {
        items: (0..count)
            .map(|i| UpdateItem {
                addr: base + i * stride,
                data: i.to_le_bytes().to_vec(),
                ts,
            })
            .collect(),
    }
}

/// One barrier episode over a 64-node arity-4 combining tree: every
/// node's own arrival, every subtree's arrival at its parent, and the
/// release walked back down.
fn tree_episode(sites: &mut [TreeSite], sets: &[UpdateSet]) {
    let mut up: Vec<(usize, usize, UpdateSet)> = Vec::new();
    let mut merged = None;
    let mut handle = |step: TreeStep, me: usize, up: &mut Vec<_>| match step {
        TreeStep::Wait => {}
        TreeStep::SendUp { parent, set } => up.push((parent, me, set)),
        TreeStep::Release { merged: m } => merged = Some(m),
    };
    for (me, set) in sets.iter().enumerate() {
        let step = sites[me].arrive_own(set.clone()).expect("one arrival");
        handle(step, me, &mut up);
    }
    while let Some((to, from, set)) = up.pop() {
        let step = sites[to].arrive_child(from, set).expect("child arrival");
        handle(step, to, &mut up);
    }
    let merged = merged.expect("the root completes");
    let mut down = vec![0usize];
    while let Some(node) = down.pop() {
        let (children, local) = sites[node].on_release(&merged);
        black_box(local);
        down.extend(children);
    }
}

fn proto(p: &mut Probes) {
    // A 64K-line binding, 1% of it dirtied before each collection.
    let mut b = LayoutBuilder::new();
    let a = b.alloc("bound", LINES * 8, MemClass::Shared, 3);
    let layout = b.build();
    p.probe("proto.rt_collect_mlps", |t| {
        let mut store = LocalStore::new(Arc::clone(&layout));
        let mut dirty = rt::DirtyMap::new(&layout);
        let binding = Binding::new(vec![a.range()]);
        let mut pool = BufPool::new();
        let mut now = 100u64;
        let s = t.inner(60, || {
            for line in (0..LINES as u64).step_by(100) {
                rt::mark_write(&mut dirty, &layout, a.addr + line * 8, 8);
            }
            now += 1;
            let t0 = Instant::now();
            let scan = rt::collect_pooled(
                &mut store,
                &mut dirty,
                &layout,
                &binding,
                now - 1,
                now,
                &mut pool,
            );
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(scan.dirty_reads, LINES.div_ceil(100) as u64);
            for item in scan.set.items {
                pool.put(item.data);
            }
            dt
        });
        LINES as f64 / s / MB
    });
    p.probe("proto.rt_apply_mbps", |t| {
        let mut store = LocalStore::new(Arc::clone(&layout));
        let mut dirty = rt::DirtyMap::new(&layout);
        // 1024 eight-line runs, every other run of the binding.
        let mut set = UpdateSet {
            items: (0..1024u64)
                .map(|i| UpdateItem {
                    addr: a.addr.raw() + i * 128,
                    data: vec![i as u8; 64],
                    ts: 0,
                })
                .collect(),
        };
        let mut ts = 100u64;
        let s = t.inner(200, || {
            ts += 1;
            for item in &mut set.items {
                item.ts = ts;
            }
            timed(|| rt::apply(&mut store, &mut dirty, &layout, &set))
        });
        set.data_bytes() as f64 / s / MB
    });

    const PAGES: usize = 64;
    let mut b = LayoutBuilder::new();
    let a = b.alloc("pages", PAGES * PAGE_SIZE, MemClass::Shared, 6);
    let layout = b.build();
    let region = a.addr.region_index();
    p.probe("proto.vm_collect_pages_per_s", |t| {
        let mut store = LocalStore::new(Arc::clone(&layout));
        let mut table = PageTable::new(Arc::clone(&layout));
        let binding = Binding::new(vec![a.range()]);
        let mut round = 0u64;
        let s = t.inner(40, || {
            round += 1;
            for page in 0..PAGES {
                let base = a.addr + (page * PAGE_SIZE) as u64;
                let current = store.bytes(base, PAGE_SIZE).to_vec();
                table.fault_in(region, page, &current);
                for off in (0..PAGE_SIZE as u64).step_by(256) {
                    store.write_u64(base + off, round);
                }
            }
            let t0 = Instant::now();
            let out = vm::collect(&mut store, &mut table, &layout, &binding);
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(out.pages_cleaned, PAGES as u64);
            dt
        });
        PAGES as f64 / s
    });
    p.probe("proto.vm_apply_mbps", |t| {
        let mut store = LocalStore::new(Arc::clone(&layout));
        let mut table = PageTable::new(Arc::clone(&layout));
        let set = UpdateSet {
            items: (0..PAGES as u64)
                .map(|i| UpdateItem {
                    addr: a.addr.raw() + i * PAGE_SIZE as u64,
                    data: vec![i as u8; 1024],
                    ts: 0,
                })
                .collect(),
        };
        let s = t.per_call(400, || {
            black_box(vm::apply(&mut store, &mut table, black_box(&set)));
        });
        set.data_bytes() as f64 / s / MB
    });

    // Two sorted 4096-item sets; every other address collides.
    let mine = item_set(0, 16, 4096, 1);
    let mut theirs = item_set(0, 16, 4096, 2);
    for item in theirs.items.iter_mut().step_by(2) {
        item.addr += 8;
    }
    p.probe("proto.updateset_merge_ns_per_item", |t| {
        let s = t.inner(40, || {
            let (mut x, y) = (mine.clone(), theirs.clone());
            let dt = timed(|| x.merge_newer(y));
            black_box(x);
            dt
        });
        s / (mine.len() + theirs.len()) as f64 * 1e9
    });
    p.probe("proto.updateset_exclude_ns_per_item", |t| {
        let mut merged = mine.clone();
        merged.merge_newer(theirs.clone());
        let s = t.per_call(40, || {
            black_box(black_box(&merged).excluding_addrs_of(&mine));
        });
        s / merged.len() as f64 * 1e9
    });
    p.probe("proto.tree_arrival_ns", |t| {
        const P: usize = 64;
        let topo = TreeTopology::new(P, 4, 0);
        let mut sites: Vec<TreeSite> = (0..P).map(|me| TreeSite::new(me, topo)).collect();
        let sets: Vec<UpdateSet> = (0..P as u64).map(|i| item_set(i * 64, 8, 4, 1)).collect();
        let s = t.per_call(200, || tree_episode(&mut sites, &sets));
        s / (2 * P - 1) as f64 * 1e9
    });
    p.probe("proto.homelock_transition_ns", |t| {
        let mut lock = HomeLock::new(0);
        let s = t.per_call(100, || {
            for i in 0..1_000 {
                let writer = 1 + i % 7;
                black_box(lock.acquire(writer, Mode::Exclusive, (0, 0)));
                black_box(lock.release(writer, Mode::Exclusive));
                for reader in 0..3 {
                    black_box(lock.acquire(reader, Mode::Shared, (0, 0)));
                }
                for reader in 0..3 {
                    black_box(lock.release(reader, Mode::Shared));
                }
            }
        });
        s / 8_000.0 * 1e9
    });
    p.probe("proto.channel_frame_ns", |t| {
        let mut tx: SendChannel<u64> = SendChannel::new();
        let mut rx: RecvChannel<u64> = RecvChannel::new();
        let mut deliver = Vec::new();
        let s = t.per_call(100, || {
            for i in 0..1_000u64 {
                let seq = tx.stage(i, 64);
                black_box(rx.on_data(seq, i, &mut deliver));
                black_box(tx.on_ack(rx.cum_ack()));
                deliver.clear();
            }
        });
        s / 1_000.0 * 1e9
    });
}

fn cluster_secs<R: Send>(procs: usize, f: impl Fn(&mut ProcHandle<u64>) -> R + Send + Sync) -> f64 {
    timed(|| Cluster::run(ClusterConfig::new(procs), f).expect("bare cluster run"))
}

/// Every other processor sends one message to processor 0, which
/// answers each: the message shape of a flat barrier, without the DSM.
fn fanin_secs(procs: usize, rounds: usize) -> f64 {
    cluster_secs(procs, |p| {
        for _ in 0..rounds {
            if p.id() == 0 {
                for _ in 1..p.procs() {
                    p.recv();
                }
                for dst in 1..p.procs() {
                    p.send(dst, 0, 8);
                }
            } else {
                p.send(0, 1, 8);
                p.recv();
            }
        }
    })
}

/// Bare `Cluster::run`, no DSM: the scheduler, the thread handoff and
/// the per-processor cost, each on the smallest program that has it.
fn sim(p: &mut Probes) {
    p.probe("sim.pingpong_ns_per_event", |t| {
        let n = t.n(20_000);
        let s = t.whole(|| {
            cluster_secs(2, |p| {
                for i in 0..n as u64 {
                    if p.id() == 0 {
                        p.send(1, i, 8);
                        p.recv();
                    } else {
                        let (_, _, m) = p.recv();
                        p.send(0, m, 8);
                    }
                }
            })
        });
        s / (2 * n) as f64 * 1e9
    });
    for (name, procs, rounds) in [
        ("sim.fanin_ns_per_event.8p", 8, 2_000),
        ("sim.fanin_ns_per_event.64p", 64, 100),
    ] {
        p.probe(name, |t| {
            let rounds = t.n(rounds);
            let s = t.whole(|| fanin_secs(procs, rounds));
            s / (2 * (procs - 1) * rounds) as f64 * 1e9
        });
    }
    p.probe("sim.self_timer_ns", |t| {
        let n = t.n(200_000);
        let s = t.whole(|| {
            cluster_secs(1, |p| {
                for _ in 0..n {
                    p.post_self(0, 10);
                    p.recv();
                }
            })
        });
        s / n as f64 * 1e9
    });
    p.probe("sim.spawn_us_per_proc.64p", |t| {
        t.per_call(10, || {
            cluster_secs(64, |_| ());
        }) / 64.0
            * 1e6
    });
    // Resident memory of 64 parked processors: each announces itself to
    // processor 0 and blocks; processor 0 reads VmRSS once all have.
    p.probe("sim.rss_kb_per_proc.64p", |t| {
        t.median_of(|| {
            let before = host::status_kb("VmRSS:").unwrap_or(0);
            let out = Cluster::run(ClusterConfig::new(64), |p: &mut ProcHandle<u64>| {
                if p.id() == 0 {
                    for _ in 1..p.procs() {
                        p.recv();
                    }
                    let during = host::status_kb("VmRSS:").unwrap_or(0);
                    for dst in 1..p.procs() {
                        p.send(dst, 0, 8);
                    }
                    during
                } else {
                    p.send(0, 1, 8);
                    p.recv();
                    0
                }
            })
            .expect("bare cluster run");
            out.results[0].saturating_sub(before) as f64 / 64.0
        })
    });
}

/// One processor storing (or loading) `n` doublewords through `Proc`.
fn access_secs(cfg: MidwayConfig, n: usize, write: bool) -> f64 {
    const WORDS: usize = 65_536;
    let mut b = SystemBuilder::new();
    let a = b.shared_array::<u64>("a", WORDS, 1);
    let spec = b.build();
    timed(|| {
        Midway::run(cfg, &spec, |p: &mut Proc| {
            let mut acc = 0u64;
            for k in 0..n {
                if write {
                    p.write(&a, k % WORDS, k as u64);
                } else {
                    acc = acc.wrapping_add(p.read(&a, k % WORDS));
                }
            }
            acc
        })
        .expect("access probe")
    })
}

/// Every processor takes the lock `n` times, writing `words` of the
/// bound array each hold: the grant path plus collection and apply of
/// that much data.
fn lock_loop<T: Transport<Msg = NetMsg>>(
    p: &mut Proc<'_, T>,
    a: &midway_core::SharedArray<u64>,
    lock: midway_core::LockId,
    n: usize,
    payload: &[u64],
) {
    for i in 0..n {
        p.acquire(lock);
        if payload.len() == 1 {
            p.write(a, 0, i as u64);
        } else {
            p.write_slice(a, 0, payload);
        }
        p.release(lock);
    }
}

fn lock_spec(
    words: usize,
) -> (
    Arc<midway_core::SystemSpec>,
    midway_core::SharedArray<u64>,
    midway_core::LockId,
) {
    let mut b = SystemBuilder::new();
    let a = b.shared_array::<u64>("bound", words, 1);
    let lock = b.lock(vec![a.full_range()]);
    (b.build(), a, lock)
}

/// Seconds per acquire of an exclusive lock bounced between two
/// processors, `words` doublewords rewritten per hold.
fn lock_pingpong_secs(cfg: MidwayConfig, n: usize, words: usize) -> f64 {
    let (spec, a, lock) = lock_spec(words);
    let payload = vec![7u64; words];
    let secs = timed(|| {
        Midway::run(cfg, &spec, |p: &mut Proc| {
            lock_loop(p, &a, lock, n, &payload)
        })
        .expect("lock probe")
    });
    secs / (cfg.procs * n) as f64
}

fn barrier_secs(cfg: MidwayConfig, rounds: usize, payload: bool) -> f64 {
    const WORDS: usize = 128; // 1 KB per partition
    let mut b = SystemBuilder::new();
    let a = b.shared_array::<u64>("parts", cfg.procs * WORDS, 1);
    let bar = if payload {
        let parts = (0..cfg.procs)
            .map(|p| vec![a.range(p * WORDS..(p + 1) * WORDS)])
            .collect();
        b.barrier_partitioned(vec![a.full_range()], parts)
    } else {
        b.barrier(vec![])
    };
    let spec = b.build();
    let secs = timed(|| {
        Midway::run(cfg, &spec, |p: &mut Proc| {
            for r in 0..rounds {
                if payload {
                    p.write_slice(&a, p.id() * WORDS, &[r as u64 + 1; WORDS]);
                }
                p.barrier(bar);
            }
        })
        .expect("barrier probe")
    });
    secs / rounds as f64
}

/// `Midway::run` on small synthetic specs: one protocol path each.
fn core(p: &mut Probes) {
    let rt = |procs| MidwayConfig::new(procs, BackendKind::Rt);
    let vm = |procs| MidwayConfig::new(procs, BackendKind::Vm);
    for (name, cfg, write) in [
        ("core.write_trap_ns.none", MidwayConfig::standalone(), true),
        ("core.write_trap_ns.rt", rt(1), true),
        ("core.write_trap_ns.vm", vm(1), true),
        ("core.read_ns", rt(1), false),
    ] {
        p.probe(name, |t| {
            let n = t.n(1_000_000);
            t.whole(|| access_secs(cfg, n, write)) / n as f64 * 1e9
        });
    }
    p.probe("core.write_slice_mbps.rt", |t| {
        const SLICE: usize = 512; // one page of doublewords
        let n = t.n(10_000);
        let mut b = SystemBuilder::new();
        let a = b.shared_array::<u64>("a", 16 * SLICE, 1);
        let spec = b.build();
        let buf = [9u64; SLICE];
        let s = t.whole(|| {
            timed(|| {
                Midway::run(rt(1), &spec, |p: &mut Proc| {
                    for k in 0..n {
                        p.write_slice(&a, (k % 16) * SLICE, &buf);
                    }
                })
                .expect("slice probe")
            })
        });
        (n * SLICE * 8) as f64 / s / MB
    });
    for (name, cfg) in [
        ("core.lock_pingpong_us.rt", rt(2)),
        ("core.lock_pingpong_us.vm", vm(2)),
    ] {
        p.probe(name, |t| {
            let n = t.n(2_000);
            t.whole(|| lock_pingpong_secs(cfg, n, 8)) * 1e6
        });
    }
    p.probe("core.lock_shared_us.rt", |t| {
        let n = t.n(500);
        let (spec, a, lock) = lock_spec(8);
        let s = t.whole(|| {
            timed(|| {
                Midway::run(rt(8), &spec, |p: &mut Proc| {
                    let mut acc = 0;
                    for _ in 0..n {
                        p.acquire_shared(lock);
                        acc += p.read(&a, 0);
                        p.release_shared(lock);
                    }
                    acc
                })
                .expect("shared-lock probe")
            })
        });
        s / (8 * n) as f64 * 1e6
    });
    for (name, cfg) in [
        ("core.lock_payload_us_per_kb.rt", rt(2)),
        ("core.lock_payload_us_per_kb.vm", vm(2)),
    ] {
        p.probe(name, |t| {
            let n = t.n(40);
            t.whole(|| lock_pingpong_secs(cfg, n, 8_192)) / 64.0 * 1e6
        });
    }
    p.probe("core.rebind_us", |t| {
        const SPAN: usize = 128;
        let n = t.n(1_000);
        let mut b = SystemBuilder::new();
        let a = b.shared_array::<u64>("a", 2 * SPAN, 1);
        let lock = b.lock(vec![a.range(0..SPAN)]);
        let spec = b.build();
        let s = t.whole(|| {
            timed(|| {
                Midway::run(rt(2), &spec, |p: &mut Proc| {
                    for i in 0..n {
                        let at = (i % 2) * SPAN;
                        p.acquire(lock);
                        p.rebind(lock, vec![a.range(at..at + SPAN)]);
                        p.write(&a, at, i as u64);
                        p.release(lock);
                    }
                })
                .expect("rebind probe")
            })
        });
        s / (2 * n) as f64 * 1e6
    });
    for (name, cfg, rounds, payload) in [
        ("core.barrier_round_us.8p", rt(8), 400, false),
        (
            "core.barrier_round_us.64p_tree",
            rt(64).tree_barriers(4),
            20,
            false,
        ),
        (
            "core.barrier_payload_us.64p_tree",
            rt(64).tree_barriers(4),
            10,
            true,
        ),
    ] {
        p.probe(name, |t| {
            let rounds = t.n(rounds).max(2);
            t.whole(|| barrier_secs(cfg, rounds, payload)) * 1e6
        });
    }
    // The same lock ping-pong with one facility switched on, over plain.
    let n = p.t.n(1_000);
    let plain = p.t.whole(|| lock_pingpong_secs(rt(2), n, 8));
    for (name, cfg) in [
        ("core.check_overhead_ratio", rt(2).check(true)),
        ("core.record_overhead_ratio", rt(2).record(true)),
        (
            "core.reliable_overhead_ratio",
            rt(2).faults(FaultPlan::lossy(7, 10_000)),
        ),
    ] {
        p.probe(name, |t| t.whole(|| lock_pingpong_secs(cfg, n, 8)) / plain);
    }
}

fn record_probe(app: &str, backend: BackendKind, size: Size) -> (Input, Trace) {
    let input = paper_app_input(app, size);
    let trace = record(&input, MidwayConfig::new(8, backend)).expect("probe recording");
    (input, trace)
}

fn replay_secs(t: &Timer, trace: &Trace) -> f64 {
    t.whole(|| timed(|| replay(trace, trace.recorded_cfg()).expect("probe replay")))
}

fn replay_layer(p: &mut Probes, size: Size) {
    let (_, quicksort) = record_probe("quicksort", BackendKind::Rt, size);
    let bytes = quicksort.encode();
    p.probe("replay.encode_mbps", |t| {
        let s = t.per_call(5, || {
            black_box(black_box(&quicksort).encode());
        });
        bytes.len() as f64 / s / MB
    });
    p.probe("replay.decode_mbps", |t| {
        let s = t.per_call(5, || {
            black_box(Trace::decode(black_box(&bytes)).expect("decodes"));
        });
        bytes.len() as f64 / s / MB
    });
    let (_, cholesky) = record_probe("cholesky", BackendKind::Vm, size);
    for (name, trace) in [
        ("replay.ops_per_s.quicksort-rt", &quicksort),
        ("replay.ops_per_s.cholesky-vm", &cholesky),
    ] {
        p.probe(name, |t| trace.total_ops() as f64 / replay_secs(t, trace));
    }
    // Live over replay: the application kernel's share of a live run,
    // seen from outside.
    for app in ["matrix", "sor", "water"] {
        let (input, trace) = record_probe(app, BackendKind::Rt, size);
        p.probe(&format!("replay.live_over_replay.{app}"), |t| {
            let live = t.whole(|| timed(|| run_input(&input, trace.recorded_cfg())));
            live / replay_secs(t, &trace)
        });
    }
}

/// Real loopback TCP, two processors, unpinned (each processor is a
/// free-running OS thread here, not a coroutine). A host that forbids
/// sockets reports -1 rather than failing the traced run.
fn net(p: &mut Probes, pinned: &Pinned, size: Size) {
    if let Err(e) = host::set_affinity(&pinned.original) {
        eprintln!("net probes run pinned: {e}");
    }
    let unavailable = |what: &str, e: &dyn std::fmt::Display| {
        eprintln!("{what} unavailable: {e}");
        -1.0
    };
    p.probe("net.tcp_lock_rtt_us", |t| {
        let n = t.n(400);
        let (spec, a, lock) = lock_spec(8);
        let cfg = MidwayConfig::new(2, BackendKind::Rt);
        let t0 = Instant::now();
        match Midway::run_real(cfg, &RealConfig::tcp(), &spec, |p| {
            lock_loop(p, &a, lock, n, &[0])
        }) {
            Ok(_) => t0.elapsed().as_secs_f64() / (2 * n) as f64 * 1e6,
            Err(e) => unavailable("net.tcp_lock_rtt_us", &e),
        }
    });
    p.probe("net.tcp_sor_s", |_| {
        let Input::Sor(params) = paper_app_input("sor", size) else {
            unreachable!("sor input");
        };
        let cfg = MidwayConfig::new(2, BackendKind::Rt);
        let t0 = Instant::now();
        match sor::run_real(cfg, &RealConfig::tcp(), params) {
            Ok(run) if sor::verified(&run.results) => t0.elapsed().as_secs_f64(),
            Ok(_) => unavailable("net.tcp_sor_s", &"sor failed verification"),
            Err(e) => unavailable("net.tcp_sor_s", &e),
        }
    });
    if let Err(e) = host::set_affinity(&[pinned.cpu]) {
        eprintln!("re-pinning after the net probes failed: {e}");
    }
}

/// Every probe once, in [`PER_LAYER`] order.
pub fn run_all(smoke: bool, pinned: &Pinned, spans: &mut Spans) -> Vec<(String, f64)> {
    let size = if smoke { Size::Small } else { Size::Medium };
    let mut p = Probes {
        t: Timer::new(smoke),
        spans,
        out: Vec::new(),
    };
    calib(&mut p);
    // Paper inputs: at the reduced size a standalone run is over in a
    // millisecond and measures thread start-up, not the kernel.
    apps(&mut p, if smoke { Size::Small } else { Size::Paper });
    mem(&mut p);
    proto(&mut p);
    sim(&mut p);
    core(&mut p);
    replay_layer(&mut p, size);
    net(&mut p, pinned, size);
    let expected = PER_LAYER.iter().map(|m| m.name).take(p.out.len());
    assert!(
        p.out.iter().map(|(n, _)| n.as_str()).eq(expected),
        "probe names drifted from metrics::PER_LAYER"
    );
    p.out
}

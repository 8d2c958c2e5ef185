#!/usr/bin/env bash
# Repository CI: formatting, lints, build, full test suite, and a
# record/replay determinism smoke test. Runs fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test -p midway-sim --release"
# The coroutine switch (crates/sim/src/coro.rs) is hand-written assembly
# under Rust frames: it has to be right with and without frame pointers
# and inlining, so the simulator's tests run in both profiles.
cargo test -p midway-sim --release -q

echo "==> cargo test -p midway-mem --release"
# The page-diff and dirtybit-scan kernels are written for the
# autovectorizer: the code that runs in the harnesses is the optimized
# build, so their reference-equivalence tests run against that too.
cargo test -p midway-mem --release -q

echo "==> cargo test -p midway-apps --release"
# The applications' kernels run optimized in every harness and in the
# pinned benchmark, so each is held bit for bit to the loop it replaced,
# in the profile whose code generation it relies on: matrix's eight-output
# panel kernel to the one-accumulator dot, sor's one-colour row kernel to
# the per-cell branchy relaxation, and quicksort's counted leaf sort (its
# compares derived in O(n log n)) to the branchy bubble sort.
cargo test -p midway-apps --release -q

echo "==> cargo test --release: the byte codec, the three formats on it, and JSON"
# Wrapping arithmetic on a hostile length or range is a panic in the debug
# profile and a silently wrong value in this one, so the decoders' hostile
# input tests and mutation sweeps (the results-file JSON parser's too) run
# in both. midway-replay's tests also run the replay oracle's whole
# product of axes (barrier shape x home map x loss x crash, and sockets)
# over sor and matrix traces and over all seven applications live,
# holding sor and matrix to strict convergence, in well under 60 s.
cargo test -p midway-net -p midway-replay --release -q
cargo test -p midway-core -p midway-bench --release -q --lib

echo "==> one-execution-path guard"
# `unsafe` lives in the coroutine module (and the pinned benchmark's
# sched_setaffinity call) and nowhere else; the whole simulator stays
# single-threaded outside its tests.
# (Comment lines may say the word; code may not.)
if grep -rn --include='*.rs' -w unsafe crates/*/src |
    grep -v -e '^crates/sim/src/coro\.rs:' -e '^crates/bench/src/bin/benchmark/' \
        -e '^[^:]*:[0-9]*:[[:space:]]*//'; then
    echo "unsafe outside crates/sim/src/coro.rs" >&2
    exit 1
fi
# So does the whole real-socket transport: processors are coroutines
# there too, and there is no second execution model to keep in step.
for f in crates/sim/src/*.rs crates/net/src/*.rs; do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -E 'Condvar|Mutex|Atomic|thread::scope|thread::spawn'; then
        echo "thread machinery in non-test code of $f" >&2
        exit 1
    fi
done

# The barrier release shares one merged set and skips own addresses in
# place; the materializing forms survive only as the wrappers the pinned
# benchmark and proto's oracle tests call. The engine must not go back to
# them.
for f in $(find crates/core/src -name '*.rs'); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -E 'excluding_addrs_of|\.on_release\('; then
        echo "materializing barrier release in non-test code of $f" >&2
        exit 1
    fi
done
# An episode merges once: the flat site and the tree sites hold an
# episode's contributions and merge them in one `UpdateSet::merge_all`
# when the last is in. Merging arrival by arrival re-moves the growing set
# each time; `merge_newer` stays for the pinned benchmark's probe and the
# tests.
for f in crates/proto/src/home.rs crates/proto/src/tree.rs $(find crates/core/src -name '*.rs'); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -F 'merge_newer('; then
        echo "a per-arrival merge in non-test code of $f" >&2
        exit 1
    fi
done
# Likewise the collectors borrow the pieces of a diff that fall inside the
# binding (`PageDiff::restricted`); the materializing `restrict` is for
# the benchmark's probe and the tests.
for f in crates/proto/src/vm.rs $(find crates/core/src/detect -name '*.rs'); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -F '.restrict('; then
        echo "materializing diff restriction in non-test code of $f" >&2
        exit 1
    fi
done

# The detector layer speaks the live seams: the compatibility wrappers
# only the frozen benchmark still calls (`rt::apply`, `rt::collect_pooled`
# and the `BufPool` it draws from, `vm::apply`, the four-argument
# `vm::collect`; the unpooled `rt::collect` is gone) stay out of it, so
# grants are collected into packed sets, and a grant a detector cannot
# apply goes back to the engine as a protocol violation — no `panic!`
# there.
for f in $(find crates/core/src/detect -name '*.rs'); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -E '\b(rt|vm)::(apply|collect)\(|\bcollect_pooled\b|\bBufPool\b|panic!\('; then
        echo "a compatibility wrapper or panic! in non-test code of $f" >&2
        exit 1
    fi
done

# One dirtybit encoding: the array stores `timestamp - 1` in a u32, and
# only crates/mem/src/dirty.rs knows it. Everyone else reads and writes
# timestamps through get / stamp / mark / scan / take_newer, never the raw
# words, and never tests a stamp against the DIRTY marker by hand.
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/benchmark/*' \
    -not -path crates/mem/src/dirty.rs); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -E 'range_mut\(|midway_mem::DIRTY\b|[=!]=[[:space:]]*DIRTY\b|\bDIRTY[[:space:]]*[=!]='; then
        echo "dirtybit encoding outside crates/mem/src/dirty.rs, in $f" >&2
        exit 1
    fi
done

# One byte codec: the LEB128 loops and the byte-wise FNV-1a-64 are
# crates/net/src/wire.rs's, and socket frames, trace files and recovery
# storage are layouts over its bounds-checked Reader. The one exception
# is the store digest in crates/mem/src/store.rs, a different algorithm
# (several stores hashed in lockstep, zero blocks skipped) kept beside
# its reference oracle.
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/benchmark/*' \
    -not -path crates/net/src/wire.rs -not -path crates/mem/src/store.rs); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -E '0xcbf2_9ce4_8422_2325|& 0x7f'; then
        echo "a second varint loop or FNV-1a outside crates/net/src/wire.rs, in $f" >&2
        exit 1
    fi
done

# One oracle: convergence is judged by `midway_replay::check` alone. Final
# memory digests are made in crates/core/src/run.rs and compared in
# crates/replay/src/lib.rs; no other non-test code outside the pinned
# benchmark reads them (the fuzzer's model and the sweeps read `check`'s
# verdict), and nothing there calls the reference step (`verify_replay`)
# on its own.
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/benchmark/*' \
    -not -path crates/replay/src/lib.rs -not -path crates/core/src/run.rs); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -F 'store_digests'; then
        echo "a convergence judgement outside midway_replay::check, in $f" >&2
        exit 1
    fi
done
# Tests judge convergence through `check` too, except these, which may
# read the digests themselves:
#   tests/tests/scale.rs               its stencil is not a `Program`
#   tests/tests/racecheck.rs           a hand-built program, run twice
#   tests/tests/support/fingerprint.rs pins digests of fixed runs
for f in $(find tests crates/*/tests -name '*.rs' -not -path '*/target/*' \
    -not -path tests/tests/scale.rs -not -path tests/tests/racecheck.rs \
    -not -path tests/tests/support/fingerprint.rs); do
    if grep -n -F 'store_digests' "$f"; then
        echo "a convergence judgement outside midway_replay::check, in $f" >&2
        exit 1
    fi
done
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/benchmark/*'); do
    if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -F 'verify_replay(' | grep -vF 'fn verify_replay('; then
        echo "verify_replay called outside the pinned benchmark, in $f (use check)" >&2
        exit 1
    fi
done

# A run checks itself once: `run_on` (crates/apps/src/driver.rs), on the
# simulator or on sockets, returns a `MidwayRun` only after the
# application's own check passed, and an error naming the cell otherwise;
# `run_app` panics with it. Nothing else, code
# or test, re-checks a verified flag, calls an application's check by hand
# or builds a second run-result struct. A trace header's `verified` byte
# (`meta.verified`) is data, not a check; the pinned benchmark keeps its own.
for f in $(find crates tests examples -name '*.rs' -not -path 'crates/bench/src/bin/benchmark/*' \
    -not -path crates/apps/src/driver.rs -not -path '*/target/*'); do
    if awk '{ print FILENAME ":" FNR ": " $0 }' "$f" |
        grep -v '^[^:]*:[0-9]*:[[:space:]]*//' |
        grep -E 'AppOutcome|from_outcome|FuzzRun|\.verified\b|::verified\(' |
        grep -vE '\b(m|meta)\.verified\b'; then
        echo "a hand verification check or a second run result in $f (use run_app)" >&2
        exit 1
    fi
done

# The pinned benchmark is also a package of its own, and its committed
# Cargo.lock records every dependency edge among the crates it builds.
# Dropping one (say, an unused `midway-stats` dependency) would make cargo
# rewrite that frozen file the next time BENCHMARK.json's command runs;
# `--locked` turns that into an error here instead.
if ! cargo metadata --offline --locked --format-version 1 \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml >/dev/null; then
    echo "the crate graph no longer matches crates/bench/src/bin/benchmark/Cargo.lock" >&2
    exit 1
fi

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> trace record/check determinism smoke (every backend)"
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
for backend in rt vm blast twinall hybrid; do
    cargo run --release -q -p midway-replay --bin trace -- \
        record --app sor --scale small --procs 4 --backend "$backend" \
        --out "$smoke/sor-$backend.mwt"
    cargo run --release -q -p midway-replay --bin trace -- \
        check "$smoke/sor-$backend.mwt"
done

echo "==> fault tolerance smoke (every backend)"
# check with a loss plan replays the trace twice under it (the runs must
# be bit-for-bit identical) and, sor being lock-order independent,
# demands convergence to the fault-free final memory and counters.
for backend in rt vm blast twinall hybrid; do
    # 1% loss: real drops, retransmissions, and recovery.
    cargo run --release -q -p midway-replay --bin trace -- \
        check "$smoke/sor-$backend.mwt" --loss 10000 --fault-seed 7
    # 0% loss with the channel enabled: pure framing overhead must still
    # reproduce the fault-free oracle exactly.
    cargo run --release -q -p midway-replay --bin trace -- \
        check "$smoke/sor-$backend.mwt" --loss 0 --fault-seed 7
done
cargo run --release -q -p midway-replay --bin trace -- \
    replay "$smoke/sor-rt.mwt" --backend vm >/dev/null
cargo run --release -q -p midway-replay --bin trace -- \
    info "$smoke/sor-rt.mwt" >/dev/null
# A second recording of the same cell is the same trace: `diff` exits 0
# (1 on any divergence).
cargo run --release -q -p midway-replay --bin trace -- \
    record --app sor --scale small --procs 4 --backend rt \
    --out "$smoke/sor-rt-again.mwt"
cargo run --release -q -p midway-replay --bin trace -- \
    diff "$smoke/sor-rt.mwt" "$smoke/sor-rt-again.mwt"

echo "==> crash recovery smoke (every backend)"
# check --crash kills a processor a third of the way into the run and
# demands (a) determinism — the crashed replay reruns bit-for-bit — and
# (b) convergence: after checkpointed recovery the final memory digests
# and Table 2 counters match the crash-free run exactly.
for backend in rt vm blast twinall hybrid; do
    cargo run --release -q -p midway-replay --bin trace -- \
        check "$smoke/sor-$backend.mwt" --crash --interval 2
done
# A crash on top of a lossy network: frames lost to the link and to the
# crash window are all repaired by the same retransmission machinery.
cargo run --release -q -p midway-replay --bin trace -- \
    check "$smoke/sor-rt.mwt" --crash --loss 10000 --fault-seed 7

echo "==> crash sweep smoke"
# One RT cell at small scale: checkpoint-interval pricing end to end
# (premium row + claim row), convergence asserted inside the harness.
cargo run --release -q -p midway-bench --bin sweep -- \
    crash --smoke --out "$smoke/crash_sweep.json"

echo "==> fault sweep smoke"
# sor at small scale under every backend × six loss rates, each point
# asserted to converge to the trusted-network final memory.
cargo run --release -q -p midway-bench --bin sweep -- \
    fault --smoke --out "$smoke/fault_sweep.json"

echo "==> benchmark smoke"
# The pinned benchmark (BENCHMARK.json) at smoke size: every workload once
# against golden.json plus every per-layer probe, so a change that breaks
# what the driver will run fails here first.
cargo run --release -q -p midway-bench --bin benchmark -- --smoke

echo "==> real-transport loopback smoke"
# sor under RT and VM over actual loopback TCP sockets (processors are
# coroutines on one thread, as on the simulator): each cell is checked
# live and recording (`check` of the application over the sockets, its
# reference on the simulator), then the simulator run's recording is
# checked over the same sockets; both must reach the simulator's final
# memory. Then the same cells with 1% of the messages dropped and 1%
# duplicated at the send site, as the simulator's fault plan does, so the
# reliable channel masks genuine loss on the sockets end to end.
cargo run --release -q -p midway-bench --bin sweep -- \
    real --smoke --trace "$smoke/traces" --out "$smoke/realrun.json"
cargo run --release -q -p midway-bench --bin sweep -- \
    real --smoke --loss 10000 \
    --trace "$smoke/traces" --out "$smoke/realrun-lossy.json"

echo "==> scale sweep smoke (64 processors, tree barriers, sharded homes)"
# One 64-processor sor cell per backend (RT + VM) under the scale-out
# configuration — combining-tree barriers (arity 4) plus sharded sync
# homes — with peak-RSS sampling. Verifies the machinery end to end at a
# processor count far beyond the unit tests.
cargo run --release -q -p midway-bench --bin sweep -- \
    scale --smoke --out "$smoke/scale.json"

echo "==> paper gate: every artefact, byte for byte"
# Regenerating the paper's artefacts in CI: each runs its applications
# live on the flat 8-processor configuration (seconds each) and its
# stdout must be exactly the committed results/<artefact>.txt. `paper
# --list` and results/*.txt are held in bijection by a unit test, so a
# new artefact cannot skip this loop. Progress and the JSON path go to
# stderr.
for artefact in $(cargo run --release -q -p midway-bench --bin paper -- --list); do
    cargo run --release -q -p midway-bench --bin paper -- \
        "$artefact" --out "$smoke/$artefact.json" |
        cmp - "results/$artefact.txt"
done

echo "==> record/check determinism smoke (the other paper applications)"
# The bit-for-bit oracle beyond sor (recorded and checked on every
# backend above): the other four paper applications recorded under RT-DSM
# and VM-DSM at small scale must replay to the identical counters, finish
# time and message count.
for app in water quicksort matrix cholesky; do
    for backend in rt vm; do
        cargo run --release -q -p midway-replay --bin trace -- \
            record --app "$app" --scale small --procs 4 --backend "$backend" \
            --out "$smoke/$app-$backend.mwt"
        cargo run --release -q -p midway-replay --bin trace -- \
            check "$smoke/$app-$backend.mwt"
    done
done

echo "==> service workload smoke (sweep + record/replay)"
# The two service apps (kvstore, taskqueue) at small
# scale under RT, swept across two client counts, plus the saturation
# knee search (binary search on clients/proc to the 2x-latency point);
# every cell self-verifies inside the harness. Then one recorded
# kvstore run must replay bit-for-bit like any batch kernel.
cargo run --release -q -p midway-bench --bin sweep -- \
    svc --smoke --out "$smoke/svc.json"
cargo run --release -q -p midway-replay --bin trace -- \
    record --app kvstore --scale small --procs 4 --backend rt \
    --out "$smoke/kvstore-rt.mwt"
cargo run --release -q -p midway-replay --bin trace -- \
    check "$smoke/kvstore-rt.mwt"

echo "==> differential fuzz smoke (all six backends)"
# Fixed-seed schedules go through `midway_replay::check` on every
# applicable backend (single-processor seeds include the standalone build,
# so all six are in the matrix). Every run must match the schedule's
# model (read-back checksums, schedule-determined counters), the checker
# must find nothing, and the checked run must equal its baseline bit for
# bit; a run that deadlocks or panics fails the same way. Failures print
# the seed and the minimized schedule; the bin exits nonzero.
cargo run --release -q -p midway-bench --bin sweep -- fuzz --smoke

echo "==> racecheck smoke"
# Every application must pass `check` with the checker attached (no
# finding, the checked run bit for bit the unchecked one), and every
# planted bug kind must be caught with its provenance and shrunk, on the
# RT backend (the harness exits nonzero otherwise)...
cargo run --release -q -p midway-bench --bin sweep -- \
    racecheck --scale small --procs 4 --backends rt --out "$smoke/racecheck.json"
# ...and a trace recorded without the checker must replay bit-for-bit
# with it attached (the off-clock guarantee against a file on disk) and
# report no finding.
cargo run --release -q -p midway-replay --bin trace -- \
    check "$smoke/sor-rt.mwt" --race

echo "==> ci.sh: all green"

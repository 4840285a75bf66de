#!/usr/bin/env bash
# The one CI definition: .github/workflows/ci.yml installs the toolchain and
# runs this script, so a local run is exactly the hosted one.
#
# Offline-friendly by construction: all external dependencies are vendored
# path crates (vendor/README.md), so no step needs registry or network
# access. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --workspace --release

echo "== test (debug) =="
cargo test --workspace -q

echo "== test (release, includes the slow double-build determinism tests) =="
# The tests ignored under debug_assertions run here, among them the
# sim-mode matrix of tests/sim_equivalence.rs:
# - full_suite_matrix_is_mode_equivalent: the scaled-down suite must produce
#   byte-identical reports in both simulation modes, which catches
#   event-schedule bugs that the unit proptests' small machines might miss;
#   it also pins the digest of the 32-SM suite's normalized reports.
# - figure_machine_reports_are_pinned: the figures' 8-SM machine at 1/32
#   scale, the digest of its normalized reports.
# - warp_buffer_sweep_is_mode_equivalent: the suite's HSU traces at buffer
#   sizes 1/2/4/8/16, where the event loop sleeps through refused dispatches
#   into a full buffer.
# And tests/figures_smoke.rs pins Fig. 9's per-run speedup signs on the
# figure's own 8-SM machine at standard sizes.
cargo test --workspace -q --release

echo "== repository benchmark tests (breakdown + smoke) =="
# The benchmark under benchmark/ is a separate workspace whose traced
# set-ups mirror the HnswGraph::build and suite call sites, so an API change
# in the crates must fail here rather than at the next benchmark run.
cargo test --release --manifest-path benchmark/Cargo.toml

echo "== geometry bench smoke (compile only) =="
# The criterion hot-path benches (point distance batch, aabb ray-slab,
# triangle intersect) must keep building; timing runs stay local.
cargo bench -p hsu-geometry --no-run

echo "== sim modes (differential bench: stepped oracle vs event) =="
# Runs the suite matrix under both simulation modes, asserts the
# reports are identical, and appends wall time + ticks per mode to a
# throwaway trajectory file: BENCH_sim.json is the tracked record, and a CI
# run must not append to it. Quarter scale on the default 32-SM machine
# keeps this a few minutes; drop --quick for the full-scale numbers quoted
# in EXPERIMENTS.md.
BENCH_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_DIR"' EXIT
cargo run --release -p hsu-bench --bin simbench -- --quick --jobs 0 --pr ci \
    --out "$BENCH_DIR/BENCH_sim.json"

echo "== fault-injection smoke (typed errors + partial report, no aborts) =="
# Generates one healthy and four corrupted trace files (truncated, bit-flipped,
# a bogus class byte, a byte range past the end of the address space),
# replays them through the fault-tolerant pool, and asserts that repro exits
# nonzero while still producing a well-formed partial report (the healthy job
# must succeed, the corrupted ones must fail with typed errors rather than a
# process abort).
FAULT_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_DIR" "$FAULT_DIR"' EXIT
cargo run --release -q -p hsu-bench --bin repro -- --out "$FAULT_DIR" gen-fault-traces
if cargo run --release -q -p hsu-bench --bin repro -- --keep-going \
    --trace "$FAULT_DIR/healthy.hsut" --trace "$FAULT_DIR/truncated.hsut" \
    --trace "$FAULT_DIR/bitflip.hsut" --trace "$FAULT_DIR/bogus.hsut" \
    --trace "$FAULT_DIR/overflow.hsut" traces > "$FAULT_DIR/report.txt" 2>&1; then
  echo "FAIL: repro exited 0 despite corrupted traces"
  cat "$FAULT_DIR/report.txt"
  exit 1
fi
grep -q "job outcomes (5 jobs, 1 ok, 4 failed)" "$FAULT_DIR/report.txt"
grep -q "healthy.hsut .*ok" "$FAULT_DIR/report.txt"
grep -q "trace decode failed" "$FAULT_DIR/report.txt"
echo "fault-injection smoke OK"

echo "== archive round-trip + warm-cache smoke (cold vs warm byte-identical) =="
# Populates an .hsar cache dir on the first quick run, then re-runs warm:
# stdout must be byte-identical, the warm build phase must be all cache hits,
# and --no-cache must ignore the populated dir yet still match. This is the
# shell-level counterpart of tests/archive_cache.rs.
CACHE_DIR="$FAULT_DIR/hsar-cache"
cargo run --release -q -p hsu-bench --bin repro -- --quick --jobs 0 \
    --archive-dir "$CACHE_DIR" fig9 > "$FAULT_DIR/cold.txt" 2> "$FAULT_DIR/cold-err.txt"
cargo run --release -q -p hsu-bench --bin repro -- --quick --jobs 0 \
    --archive-dir "$CACHE_DIR" fig9 > "$FAULT_DIR/warm.txt" 2> "$FAULT_DIR/warm-err.txt"
diff "$FAULT_DIR/cold.txt" "$FAULT_DIR/warm.txt" \
  || { echo "FAIL: warm-cache run differs from cold run"; exit 1; }
grep -q ", 0 misses" "$FAULT_DIR/warm-err.txt" \
  || { echo "FAIL: warm run rebuilt instead of hitting the cache"; \
       cat "$FAULT_DIR/warm-err.txt"; exit 1; }
cargo run --release -q -p hsu-bench --bin repro -- --quick --jobs 0 \
    --archive-dir "$CACHE_DIR" --no-cache fig9 > "$FAULT_DIR/nocache.txt"
diff "$FAULT_DIR/cold.txt" "$FAULT_DIR/nocache.txt" \
  || { echo "FAIL: --no-cache run differs from cached runs"; exit 1; }
echo "warm-cache smoke OK"

echo "== servebench smoke (serving engine determinism cross-check) =="
# Opens all four index families, replays a small seeded stream across the
# batch x workers grid, and exits nonzero if any per-family replay
# hash diverges. --smoke keeps the query count small and skips the
# BENCH_sim.json append; the full open-loop numbers live under the pr8
# entry (see EXPERIMENTS.md "Serving").
cargo run --release -q -p hsu-serve --bin servebench -- --smoke

echo "== servebench chaos smoke (one batch lost, typed failure counts) =="
# Injects one worker panic and a stall on every batch into a smoke-scale
# btree run. servebench itself exits nonzero if any query fails with an
# unexpected error class, or if the panic went uncounted or cost more than
# its one batch; on top of that, assert the report shows exactly the one
# injected panic and the crashed queries surfaced as typed worker-crashed
# failures.
cargo run --release -q -p hsu-serve --bin servebench -- --smoke --chaos --family btree \
    > "$FAULT_DIR/chaos.txt"
grep -qE "panics 1$" "$FAULT_DIR/chaos.txt" \
  || { echo "FAIL: chaos report missing the injected worker panic"; \
       cat "$FAULT_DIR/chaos.txt"; exit 1; }
grep -qE "worker-crashed [1-9]" "$FAULT_DIR/chaos.txt" \
  || { echo "FAIL: no query surfaced as typed worker-crashed"; \
       cat "$FAULT_DIR/chaos.txt"; exit 1; }
grep -q "unexpected 0" "$FAULT_DIR/chaos.txt" \
  || { echo "FAIL: chaos run produced unexpected failure classes"; \
       cat "$FAULT_DIR/chaos.txt"; exit 1; }
echo "servebench chaos smoke OK"

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"

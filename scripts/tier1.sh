#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): standard build + the full ctest
# suite, then the parallel timing engine's determinism tests again under
# ThreadSanitizer with a multi-threaded pool, so data races in the
# level-synchronous sweeps fail the gate rather than shipping latent.
# The incremental fast-path suites join both sanitizer passes: under TSan
# because the frontier sweep's workers now write delay-cache entries and
# arc-change flags concurrently, and under ASan because the trial journal
# and bounded backward pass index scratch arrays that a stale size would
# overrun. The multi-corner (MCMM) and timing-shell tests run under
# ASan+UBSan, so an off-by-one in the corner-major SoA arena indexing —
# or a stale pointer across the shell's session resets — faults loudly
# instead of silently reading freed or neighboring memory. The solver
# fast-path suite (sparse SCG accumulators + incremental refit) runs under
# both: TSan because the sparse gradient's block partials and the refit's
# parallel path re-evaluation write shared scratch from pool workers, ASan
# because the refit session indexes cached rows/paths through arrays that
# a stale size after an ECO would overrun. The snapshot suite joins both:
# under TSan because the concurrent-reader stress has pool-independent reader
# threads scanning a pinned snapshot's chunks while the writer privatizes
# and re-times the head (the COW refcounts and chunk handoff must be
# race-free), and under ASan because releasing the last snapshot handle
# frees retained chunks whose stale reuse would read freed memory.
# The server suites join both sanitizer passes: under TSan because the
# daemon's reader connections answer query batches from the published
# snapshot view on their own threads while the session's writer thread
# mutates and re-times the live graph (the snapshot-isolation storm test
# is exactly the race TSan must clear), and under ASan because the
# protocol fuzz feeds truncated / oversized / garbage frames through the
# bounds-checked decoders — an off-by-one there reads out of the payload.
# The kernel suite (Kernel*) joins the ASan pass because the SIMD tiers
# read doubles through raw arena slices and index vectors — a bad tail
# mask or gather index reads past the slice. The path-engine suites
# (PathEngine*) join both passes: under TSan because the warm sweep's
# per-level recompute runs on pool workers writing disjoint rank-major
# arena slots and per-node changed flags concurrently, and under ASan
# because the candidate arena, frontier flags, and per-level pending
# lists index per-node/per-level arrays that a stale graph rebind after
# rebuild_graph would overrun — and the whole ctest suite
# then repeats under MGBA_SIMD=off (legacy per-node sweeps) and
# MGBA_SIMD=avx2 (widest tier, skipped with a note when the host lacks
# AVX2): the dispatch tier is a throughput choice, so every suite must
# pass with identical answers at the extremes of that choice.
# Finally the shell's
# golden-transcript smoke test runs at 1 and 4 threads: the transcript
# (including full-precision replayed slacks) must be byte-identical —
# and the server smoke drives the same script through the daemon +
# mgba_client (byte-identical transcript again) plus a kill -9 /
# --recover round trip that must reproduce the session's slacks bit for
# bit from the streamed recipe + ECO journal.
# Last, the end-to-end benchmark's own test (perfbench/test_bench.py) runs
# every workload at smoke size, untraced and traced, and checks that each
# correctness gate passes on the real answers and fails on an injected
# wrong one — so a change that breaks a benchmark gate fails here, not
# first in a benchmark run.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# The SIMD dispatch extremes: the legacy per-node baseline and the widest
# vector tier must both clear the entire suite (bit-identity is asserted
# inside the tests themselves).
MGBA_SIMD=off ctest --test-dir build --output-on-failure -j
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  MGBA_SIMD=avx2 ctest --test-dir build --output-on-failure -j
else
  echo "note: host lacks AVX2 — skipping the MGBA_SIMD=avx2 suite pass"
fi

cmake -B build-tsan -S . -DMGBA_SANITIZE=thread
cmake --build build-tsan -j --target mgba_tests
MGBA_THREADS=4 ./build-tsan/tests/mgba_tests --gtest_filter='Parallel*:ThreadPool*:Incremental*:SolverFastpath*:Snapshot*:Server*:PathEngine*'

cmake -B build-asan -S . -DMGBA_SANITIZE=address
cmake --build build-asan -j --target mgba_tests
MGBA_THREADS=4 ./build-asan/tests/mgba_tests --gtest_filter='Mcmm*:Parallel*:Shell*:Incremental*:SolverFastpath*:Snapshot*:Server*:Kernel*:PathEngine*'

for threads in 1 4; do
  ./scripts/shell_smoke.sh build/tools/mgba_timer \
      examples/close_timing.mgbash examples/close_timing.golden "$threads"
done

for threads in 1 4; do
  ./scripts/server_smoke.sh build/tools/mgba_timer build/tools/mgba_client \
      examples/close_timing.mgbash examples/close_timing.golden "$threads"
done
python3 perfbench/test_bench.py
echo "tier-1 OK (ctest + MGBA_SIMD=off/avx2 suite passes + TSan parallel/incremental/server/path-engine suites + ASan MCMM/shell/incremental/kernel/path-engine suites + shell and server smokes + benchmark self-test)"

#!/usr/bin/env bash
# Tier-1 verification: the canonical build + full test suite, then the
# fault-injection/corruption suites again under ASan+UBSan so the
# error paths are proven free of undefined behavior, not just of
# wrong answers, the cache-hierarchy, concurrency, network and
# observability suites again under TSan so the shared L1/L2/L3 caches,
# the batch pipeline, the shared symbol table, the router's threads and
# the metrics registry are proven free of data races, and the
# bit-sliced equivalence suite again under ASan so the word-indexed
# plane arithmetic (edge-masked partial ranges in particular) is
# proven in-bounds, and finally the oracle-equivalence suites under
# ASan so every FS1 kernel the host supports (scalar64/avx2/avx512)
# and the compiled FS2 routines run sanitized against the reference
# implementations in clare_oracle.  A symbol check keeps those
# reference implementations out of the deployed tools.
#
# Usage: scripts/tier1.sh [build-dir] [asan-build-dir] [tsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
ASAN_BUILD="${2:-build-asan}"
TSAN_BUILD="${3:-build-tsan}"

echo "== tier-1: default build + full ctest =="
# Allocation counting is on in the default build so the arena, FS2 and
# CRS suites' allocation assertions actually run (they skip themselves
# when the interpose is compiled out, e.g. under the sanitizers).
cmake -B "$BUILD" -S . -DCLARE_COUNT_ALLOCS=ON
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j

echo "== tier-1: allocation assertions ran =="
# The zero-allocation assertions (test_fs2's per-clause FS2 search,
# test_crs's per-clause SoftwareOnly scan, test_arena's warm serving
# loop) skip themselves when the counting hook is compiled out, and
# ctest reports a skipped test as passed.  They only prove something
# in this build, so a skip here is a failure.
for check in \
    test_fs2:Fs2EngineTest.SearchAllocationsDoNotGrowWithClauseCount \
    test_crs:CrsTest.SoftwareOnlyServeAllocationsDoNotGrowWithClauseCount \
    test_arena:ZeroCopyServingTest.SteadyStateWarmHitsAllocateAlmostNothing
do
    out=$("$BUILD/tests/${check%%:*}" --gtest_filter="${check#*:}")
    if ! grep -q '^\[       OK \]' <<<"$out" ||
        grep -q '^\[  SKIPPED \]' <<<"$out"; then
        echo "$out" >&2
        echo "allocation assertion ${check#*:} did not run" >&2
        exit 1
    fi
done

echo "== tier-1: no oracle code in the production binaries =="
# The reference paths (PLA plane, row-major scan, selector-level TUE,
# microcoded WCS and its assembler) live in clare_oracle, which only
# tests, benches and the microcode_trace example link.  A tool that
# pulled one in would be running, or carrying, a second path.
ORACLE_SYMBOLS='PlaMatcher|TueDatapath|Wcs::runClause|rowMajorScan|assembleMatchProgram'
for tool in clare_server clare_router clare_client clare_mkstore; do
    if nm -C "$BUILD/tools/$tool" | grep -E "$ORACLE_SYMBOLS"; then
        echo "oracle symbols linked into $tool" >&2
        exit 1
    fi
done

echo "== tier-1: ASan+UBSan build + faults-labeled tests =="
cmake -B "$ASAN_BUILD" -S . -DCLARE_SANITIZE=address
cmake --build "$ASAN_BUILD" -j
ctest --test-dir "$ASAN_BUILD" -L faults --output-on-failure -j

echo "== tier-1: ASan+UBSan build + wal-labeled tests =="
# The WAL/live-update suite fuzzes torn tails and byte-granular crash
# kill points through commit and checkpoint; running it sanitized
# proves the recovery walks (CRC checks, truncation, replay) stay
# in-bounds on every mangled input, not just correct.
ctest --test-dir "$ASAN_BUILD" -L wal --output-on-failure -j

echo "== tier-1: ASan+UBSan build + sliced-equivalence tests =="
ctest --test-dir "$ASAN_BUILD" -L sliced --output-on-failure -j

echo "== tier-1: ASan+UBSan build + shard-labeled tests =="
# The data-sharding suite runs a slice-backed 3x2 cluster with a
# poisoned replica and concurrent sub-batch fan-out through the
# router; running it sanitized proves the scatter/gather paths and
# slice load/save walks are in-bounds, not just bit-identical.
ctest --test-dir "$ASAN_BUILD" -L shard --output-on-failure -j

echo "== tier-1: ASan+UBSan build + oracle-equivalence tests =="
# The kernels-labeled suites sweep every FS1 kernel the host supports
# (skipping the rest) against the PLA plane and the row-major scan, and
# run the compiled FS2 routines against the WCS interpreter clause by
# clause, so one labeled run covers the whole registry.
ctest --test-dir "$ASAN_BUILD" -L kernels --output-on-failure -j

echo "== tier-1: ASan+UBSan build + arena-labeled tests =="
# The zero-copy serving suite replays goals through rewound bump
# arenas and ships cached response blobs verbatim; running it
# sanitized proves every access into reset-and-reused blocks (and
# every patched-blob send) is in-bounds.
ctest --test-dir "$ASAN_BUILD" -L arena --output-on-failure -j

echo "== tier-1: TSan build + cache-labeled tests =="
cmake -B "$TSAN_BUILD" -S . -DCLARE_SANITIZE=thread
cmake --build "$TSAN_BUILD" -j
ctest --test-dir "$TSAN_BUILD" -L cache --output-on-failure -j

echo "== tier-1: TSan build + arena-labeled tests =="
# Connection arenas reset while transactions invalidate the shared
# caches; the blob shared_ptr handles cross threads.  TSan proves the
# interleavings race-free.
ctest --test-dir "$TSAN_BUILD" -L arena --output-on-failure -j

echo "== tier-1: TSan build + tsan-labeled tests =="
# The concurrency suite: sharded scans, serveBatch pipelines, live
# writers racing snapshot readers, and cold serving (stored heads
# parsed through the shared symbol table on first touch) racing a
# writer that interns fresh atoms.
ctest --test-dir "$TSAN_BUILD" -L tsan --output-on-failure -j

echo "== tier-1: TSan build + net- and obs-labeled tests =="
# The router's probe thread and its sub-batch fan-out threads share
# backend state and metrics descriptor slots with the event loop; the
# observability suite first-touches instruments from a thread pool.
# (test_arena carries the net label too and already ran above.)
ctest --test-dir "$TSAN_BUILD" -L 'net|obs' -LE arena --output-on-failure -j

echo "== tier-1: loopback cluster smoke (replicated + sharded) =="
# Boots a 3-replica clare_server cluster (one backend fault-poisoned)
# behind clare_router and diffs every routed response against an
# in-process serve() on the same store — answers and modeled ticks
# must be bit-identical through the wire.  Then shards the store
# itself: 3 slices x 2 replicas behind a catalog-routed router, with
# the single and batched paths diffed against the unsharded store and
# per-backend footprint reported.
scripts/net_smoke.sh "$BUILD"

echo "== tier-1: crash-recovery smoke (kill -9 mid-ingest) =="
# Hard-kills a live-updating clare_server mid-WAL-stream and verifies
# the reopened store replays exactly the committed prefix.
scripts/crash_smoke.sh "$BUILD"

echo "tier-1 OK"

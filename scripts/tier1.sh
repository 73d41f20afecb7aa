#!/usr/bin/env bash
# Tier-1 gate: the full test suite on the plain build, then the robustness
# suites (fault injection, formats, IO) again under ASan+UBSan. Run from
# the repo root:
#
#   scripts/tier1.sh
#
# The sanitizer passes are scoped rather than suite-wide to keep the gate
# fast: ASan+UBSan covers the ingest/robustness, aggregation, thread-pool,
# single-analyzer and facility-inference tests, TSan covers the parallel
# scan/prefetch/runner/aggregation-merge tests. Both run the .scol decode
# parity test, because a row group's paths and columns decode on pool
# threads. SPIDER_SANITIZE=ON (address) or SPIDER_SANITIZE=thread works on
# any target if a full sanitized run is wanted.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> tier 1: plain build + full suite"
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "==> tier 1: bench smoke (tiny-scale harness run-through)"
ctest --test-dir build --output-on-failure -L bench-smoke -j"${JOBS}"

# Out-of-core regression guard: the mixed-residency streaming study must
# fit (and pass, bit-identical to resident) under a 512 MB address-space
# cap — a whole-series or whole-snapshot materialization sneaking back
# into the streamed path blows straight through it. Guarded because some
# environments forbid lowering RLIMIT_AS.
echo "==> tier 1: streaming study under a 512 MB address-space cap"
if bash -c 'ulimit -v 524288' 2>/dev/null; then
  bash -c 'ulimit -v 524288 && exec ./build/tests/study_streaming_test \
      --gtest_filter=StreamingStudyTest.MixedResidencyBudgetMatchesResident'
else
  echo "--> skipped: this environment does not permit ulimit -v"
fi

echo "==> tier 1: ASan+UBSan build + robustness suites"
cmake -B build-asan -S . -DSPIDER_SANITIZE=ON >/dev/null
cmake --build build-asan -j"${JOBS}" --target \
    snapshot_fault_injection_test snapshot_scol_test snapshot_scol_v2_test \
    snapshot_scol_stream_test snapshot_decode_parity_test \
    snapshot_psv_test snapshot_psv_fuzz_test \
    snapshot_series_test util_io_test util_retry_test util_status_test \
    util_parallel_test engine_agg_test engine_flat_map_test \
    engine_spill_test study_analyzers_test synth_infer_test \
    study_streaming_test study_checkpoint_test
# snapshot_scol_stream_test holds the row scan's parity sweep against
# decode_group on damaged images; synth_infer_test drives that scan
# through infer_facility on gapped, corrupt and salvaged series;
# snapshot_decode_parity_test checks the pooled group decode against
# row-by-row tables, including a failing group's rollback.
for t in snapshot_fault_injection_test snapshot_scol_test \
         snapshot_scol_v2_test snapshot_scol_stream_test \
         snapshot_decode_parity_test snapshot_psv_test \
         snapshot_psv_fuzz_test snapshot_series_test util_io_test \
         util_retry_test util_status_test util_parallel_test \
         engine_agg_test engine_flat_map_test engine_spill_test \
         study_analyzers_test synth_infer_test; do
  echo "--> ${t} (sanitized)"
  ./build-asan/tests/"${t}"
done
# Streaming parity under ASan: the damaged/gapped case drives the mmap'd
# group reader's salvage replay, partition-file regeneration, and the
# spill join's checksummed record framing against corrupt inputs — the
# out-of-core layer's hostile-input surface. The thread-width sweep stays
# in the plain build (big fixture; widths don't change what ASan sees).
echo "--> study_streaming_test (sanitized, damaged+gapped parity)"
./build-asan/tests/study_streaming_test \
    --gtest_filter='StreamingStudyFaultTest.*:StreamingStudyBoundaryTest.*'
# Crash-recovery under ASan: the codec, the resume validation paths, and
# the corruption/gap cases chew through every deserializer with hostile
# inputs — exactly where ASan earns its keep. The exhaustive kill sweep is
# skipped here (big fixture, hundreds of study runs); the resume cases
# drive the same save/load code on every analyzer.
echo "--> study_checkpoint_test (sanitized, codec+resume cases)"
./build-asan/tests/study_checkpoint_test \
    --gtest_filter='CheckpointCodecTest.*:CheckpointResumeTest.*'

echo "==> tier 1: TSan build + parallel scan/runner suites"
cmake -B build-tsan -S . -DSPIDER_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"${JOBS}" --target \
    util_parallel_test snapshot_decode_parity_test \
    engine_scan_test engine_stream_test \
    engine_partition_test engine_diff_parity_test engine_flat_map_test \
    study_runner_test study_scan_determinism_test study_incremental_test \
    study_streaming_test study_checkpoint_test
# snapshot_decode_parity_test: a row group's path stretches and its other
# columns decode concurrently on pools of 2, 7 and hardware width.
for t in util_parallel_test snapshot_decode_parity_test \
         engine_scan_test engine_stream_test \
         engine_partition_test engine_diff_parity_test engine_flat_map_test \
         study_runner_test; do
  echo "--> ${t} (tsan)"
  ./build-tsan/tests/"${t}"
done
# The big-fixture thread sweep re-runs the whole study six times — minutes
# under TSan for no extra interleaving coverage. The gap and fault cases
# drive the same parallel runner (multi-thread pools, prefetch, projection)
# on small series; races don't care about scale.
echo "--> study_scan_determinism_test (tsan, gap+fault cases)"
./build-tsan/tests/study_scan_determinism_test \
    --gtest_filter='ScanDeterminismGapTest.*:ScanDeterminismFaultTest.*'
# Incremental-vs-scan under TSan: the delta path shares the scan's thread
# pool (fused diff kernel + scan-only analyzer roster), so the gap and
# salvage re-baseline cases exercise the mode switch under contention. The
# full churn sweep is skipped for the same big-fixture reason as above.
echo "--> study_incremental_test (tsan, gap+salvage re-baseline cases)"
./build-tsan/tests/study_incremental_test \
    --gtest_filter='IncrementalStudyTest.GappedSeriesForcesRebaseline:IncrementalStudyTest.SalvagedWeekForcesRebaseline'
# Checkpoint/resume under TSan: checkpoint writes interleave with the
# prefetch pipeline and the resume path hands restored state to the
# parallel scan — the gap-resume case crosses both boundaries on a
# multi-thread pool. The exhaustive kill sweep stays in the plain build
# (same big-fixture reasoning as above).
echo "--> study_checkpoint_test (tsan, resume cases)"
./build-tsan/tests/study_checkpoint_test \
    --gtest_filter='CheckpointResumeTest.ResumeAcrossGapPreservesDataQuality:CheckpointResumeTest.ScanOnlyMarkersForceFullRun'
# Streaming parity under TSan: the mixed-residency case runs the streamed
# weeks' prefetch pipeline, the spill writers, and the resident weeks'
# parallel scan on one multi-thread pool — the residency boundary is
# where the out-of-core path shares state across threads. The scratch-
# loss case runs streamed weeks that lose their spill side mid-run. The
# full thread-width sweep stays in the plain build (same big-fixture
# reasoning as the determinism harness above).
echo "--> study_streaming_test (tsan, mixed-residency, boundary, scratch-loss cases)"
./build-tsan/tests/study_streaming_test \
    --gtest_filter='StreamingStudyTest.MixedResidencyBudgetMatchesResident:StreamingStudyBoundaryTest.*:StreamingStudyFaultTest.ScratchLossDegradesLikeResident'

echo "tier 1 OK"

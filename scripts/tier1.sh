#!/usr/bin/env bash
# Tier-1 gate: the full test suite on the plain build (the bench-smoke
# harness runs included), then the robustness suites (fault injection,
# formats, IO) again under ASan+UBSan and the parallel suites under TSan.
# Run from the repo root:
#
#   scripts/tier1.sh
#
# The full suite includes the streamed study's memory check
# (StreamingStudyMemoryTest in study_streaming_test): the streamed half of
# the mixed-residency study runs in a child process of its own and must
# keep its peak resident set (VmHWM) under 1.25 x its budget plus a fixed
# floor, and its bundles must match the resident run's. A streamed path
# that keeps each week's decoded groups for as long as the week, or every
# streamed week's, instead of one row group at a time fails it (96-97 MB
# and 143 MB against a 78.9 MB bound; the study measures 60-61 MB).
# Groups held only until a week's first pass ends stay under it, because
# the run peaks elsewhere. It replaced a 512 MB `ulimit -v` stage, which
# counted glibc's per-thread arenas and the pool's thread stacks (VmPeak
# ~715 MB against a VmHWM of ~270-310 MB) and so failed on every 4-thread
# host. Sanitized builds skip it: their shadow memory counts toward the
# peak.
#
# The sanitizer passes are scoped rather than suite-wide to keep the gate
# fast: ASan+UBSan covers the ingest/robustness, aggregation, thread-pool,
# single-analyzer and facility-inference tests, TSan covers the parallel
# scan/prefetch/runner/aggregation-merge tests and setup's concurrent
# traversal (snapshot_series_test and synth_infer_test: infer_facility
# scans the weeks on pool threads and merges them in slot order, at pool
# widths 1, 2, 7 and hardware). Both run the .scol decode
# parity test, because a row group's paths and columns decode on pool
# threads, the spill join test, because partition loads and the join's
# probe run on pool threads, and the diff parity test, because the diff
# kernel probes its chunks on pool threads and indexes its chunk registry
# by each morsel's chunk. Both run all of study_runner_test: the
# analyzers index the first-seen verdicts by candidate position and read
# each candidate's row through the morsel, so a chunk lookup that names
# the wrong chunk (the misaligned-group case) reads past a staging table,
# and an exception on either side of the prefetch pipeline must reach the
# caller after the analyst thread is joined. SPIDER_SANITIZE=ON (address) or
# SPIDER_SANITIZE=thread works on any target if a full sanitized run is
# wanted.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> tier 1: plain build + full suite"
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "==> tier 1: ASan+UBSan build + robustness suites"
cmake -B build-asan -S . -DSPIDER_SANITIZE=ON >/dev/null
cmake --build build-asan -j"${JOBS}" --target \
    snapshot_fault_injection_test snapshot_scol_test snapshot_scol_v2_test \
    snapshot_scol_stream_test snapshot_decode_parity_test \
    snapshot_psv_test snapshot_psv_fuzz_test \
    snapshot_series_test util_io_test util_retry_test util_status_test \
    util_parallel_test util_serialize_test util_misc_test engine_agg_test \
    engine_flat_map_test engine_spill_test engine_diff_parity_test \
    study_analyzers_test study_runner_test synth_infer_test \
    study_streaming_test study_checkpoint_test
# snapshot_scol_stream_test holds the row scan's parity sweep against
# decode_group on damaged images; synth_infer_test drives that scan
# through infer_facility on gapped, corrupt and salvaged series;
# snapshot_decode_parity_test checks the pooled group decode against
# row-by-row tables, including a failing group's rollback;
# util_serialize_test holds the golden bytes of every StateWriter method,
# which append straight into a checkpoint image; engine_spill_test flips
# every bit of a spill partition's trailer and of a directory entry,
# damages and cuts each block of a partition, and re-checksums damaged
# records, so the reader's checks meet hostile bytes; util_misc_test
# hashes every length up to 200 at each alignment with hash_path, whose
# unaligned word loads end exactly at the string's last byte and whose
# 128-bit products are shifted and folded, so a read past the end or a bad
# shift is reported here; engine_diff_parity_test drives the diff kernel,
# whose chunk registry is indexed by each morsel's chunk, on collision,
# empty and dirs-only pairs at pool widths 1, 2, 7 and hardware.
for t in snapshot_fault_injection_test snapshot_scol_test \
         snapshot_scol_v2_test snapshot_scol_stream_test \
         snapshot_decode_parity_test snapshot_psv_test \
         snapshot_psv_fuzz_test snapshot_series_test util_io_test \
         util_retry_test util_status_test util_parallel_test \
         util_serialize_test util_misc_test engine_agg_test \
         engine_flat_map_test engine_spill_test engine_diff_parity_test \
         study_analyzers_test study_runner_test synth_infer_test; do
  echo "--> ${t} (sanitized)"
  ./build-asan/tests/"${t}"
done
# Streaming parity under ASan: the damaged/gapped case drives the mmap'd
# group reader's salvage replay, partition-file regeneration, and the
# spill join's trailer, directory and block checks against corrupt
# inputs — the out-of-core layer's hostile-input surface. The thread-width
# sweep stays in the plain build (big fixture; widths don't change what
# ASan sees).
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
    engine_scan_test engine_stream_test engine_spill_test \
    engine_partition_test engine_diff_parity_test engine_flat_map_test \
    snapshot_series_test synth_infer_test \
    study_runner_test study_scan_determinism_test study_incremental_test \
    study_streaming_test study_checkpoint_test
# snapshot_decode_parity_test: a row group's path stretches and its other
# columns decode concurrently on pools of 2, 7 and hardware width.
# engine_spill_test: the join checks and decodes each partition's blocks
# and probes its records on pools of 1, 2, 7 and hardware width.
# snapshot_series_test and synth_infer_test: setup's traversal runs each
# week's visitor on a pool worker and folds the gaps and retry counts in
# slot order afterwards; a visitor's exception crosses back to the caller.
for t in util_parallel_test snapshot_decode_parity_test \
         engine_scan_test engine_stream_test engine_spill_test \
         engine_partition_test engine_diff_parity_test engine_flat_map_test \
         snapshot_series_test synth_infer_test \
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
# multi-thread pool. Each checkpoint is hashed on the study pool and
# written on a thread of its own behind the next week: the width-2 file
# case and the cadence case run that writer beside prefetch. The
# exhaustive kill sweep stays in the plain build (same big-fixture
# reasoning as above).
echo "--> study_checkpoint_test (tsan, resume and write-behind cases)"
./build-tsan/tests/study_checkpoint_test \
    --gtest_filter='CheckpointResumeTest.ResumeAcrossGapPreservesDataQuality:CheckpointResumeTest.ScanOnlyMarkersForceFullRun:CheckpointResumeTest.CadenceEveryNWritesFewerCheckpoints:Widths/CheckpointFileTest.*/t2'
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

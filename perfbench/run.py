#!/usr/bin/env python3
"""The SpiderStudy benchmark: "analyze a snapshot series", end to end.

    python3 perfbench/run.py --workload resident_full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the study libraries and
the harness from source (CMake, into $CARGO_TARGET_DIR or .bench_build),
generates the seeded snapshot series into .bench_cache (outside timing,
reused while its checksums hold), runs the workload, checks every rendered
bundle against the reference digest, prints each metric by name with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
per-layer suite instead. See perfbench/README.md for the definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

SCALE = 2e-4
WEEKS = 12
WORKLOADS = ("resident_full", "budget_stream", "weekly_checkpoint")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CACHE = os.path.join(ROOT, ".bench_cache")
KEEP_SERIES = 12  # cached series kept besides the one in use

# name -> unit
END_TO_END = {
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "study_peak_rss_mb": "MB",
    "ok_week_frac": "fraction",
}

PER_LAYER = {
    "synth.infer_s": "s",
    "synth.self_s": "s",
    "snapshot.open_s": "s",
    "snapshot.decode_s": "s",
    "snapshot.decode_rows_per_s": "rows/s",
    "snapshot.group_decode_s": "s",
    "snapshot.file_bytes_per_row": "B/row",
    "snapshot.self_s": "s",
    "engine.index_build_s": "s",
    "engine.diff_probe_s": "s",
    "engine.diff_sweep_s": "s",
    "engine.spill_write_s": "s",
    "engine.spill_join_s": "s",
    "engine.spill_bytes_per_row": "B/row",
    "engine.self_s": "s",
    "study.runner_s": "s",
    "study.user_profile_s": "s",
    "study.participation_s": "s",
    "study.census_s": "s",
    "study.extensions_s": "s",
    "study.languages_s": "s",
    "study.access_patterns_s": "s",
    "study.striping_s": "s",
    "study.growth_s": "s",
    "study.file_age_s": "s",
    "study.burstiness_s": "s",
    "study.network_s": "s",
    "study.collaboration_s": "s",
    "study.incremental_over_scan": "ratio",
    "study.checkpoint_write_s": "s",
    "study.checkpoint_bytes": "B",
    "study.written_bytes_per_row": "B/row",
    "study.self_s": "s",
    "util.cpu_util": "ratio",
    "tracing_overhead": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout, env=None, capture=True):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("timed out: " + " ".join(cmd[:2]))
    if proc.returncode != 0:
        raise BenchError("failed (exit %d): %s" % (proc.returncode,
                                                   " ".join(cmd[:2])))
    return out


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures on first use, then builds incrementally."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run(["cmake", "-S", BENCH_DIR, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            timeout=300, capture=False)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", out, "-j", jobs], timeout=900, capture=False)
    return os.path.join(out, "spider_bench")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest():
    """Content hash of the study sources, the provenance when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            h.update(sha256_file(path).encode())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return run(["git", "rev-parse", "--short", "HEAD"], timeout=30).strip()
    except (BenchError, OSError):
        return "unknown"


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def threads():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def bench_env(scratch):
    """Spill files and other temp files stay inside the checkout."""
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def series_ok(manifest, scol):
    names = sorted(f["name"] for f in manifest["files"])
    present = sorted(n for n in os.listdir(scol) if n.endswith(".scol"))
    if names != present:
        return False
    return all(sha256_file(os.path.join(scol, f["name"])) == f["sha256"]
               for f in manifest["files"])


def ensure_series(binary, seed):
    """The seeded series and its reference digest, generated once per key."""
    key = "series-%d-%g-%d" % (seed, SCALE, WEEKS)
    home = os.path.join(CACHE, key)
    scol = os.path.join(home, "scol")
    manifest_path = os.path.join(home, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        if series_ok(manifest, scol):
            os.utime(home)
            return scol, manifest
        log("cached series %s failed its checksums; regenerating" % key)
    shutil.rmtree(home, ignore_errors=True)
    os.makedirs(home)
    log("generating %s" % key)
    generated = json.loads(run(
        [binary, "generate", "--dir=" + scol, "--seed=%d" % seed,
         "--scale=%g" % SCALE, "--weeks=%d" % WEEKS], timeout=600))
    for f in generated["files"]:
        f["sha256"] = sha256_file(os.path.join(scol, f["name"]))
    # The reference rendering: one thread, no prefetch, resident scan.
    scratch = os.path.join(home, "reference")
    os.makedirs(scratch)
    result = json.loads(run(
        [binary, "study", "--dir=" + scol, "--mode=reference", "--seconds=0",
         "--out=" + scratch], timeout=600, env=bench_env(scratch)))
    rep = result["reps"][0]
    if "error" in rep or unplanned_gaps(rep, generated["planned_gaps"]):
        raise BenchError("reference run failed on the generated series")
    manifest = {
        "seed": seed, "scale": SCALE, "weeks": WEEKS,
        "files": generated["files"],
        "planned_gaps": generated["planned_gaps"],
        "rows": sum(f["rows"] for f in generated["files"]),
        "reference_digest": sha256_file(rep["bundle"]),
    }
    shutil.rmtree(scratch)
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1)
    evict(keep=home)
    return scol, manifest


def evict(keep):
    """Bounds the cache: the newest series besides `keep` survive."""
    others = [os.path.join(CACHE, d) for d in os.listdir(CACHE)
              if d.startswith("series-") and os.path.join(CACHE, d) != keep]
    others.sort(key=os.path.getmtime, reverse=True)
    for old in others[KEEP_SERIES:]:
        shutil.rmtree(old, ignore_errors=True)


def committed_digest(seed):
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        table = json.load(f)
    return table.get("%g/%d/%d" % (SCALE, WEEKS, seed))


def unplanned_gaps(rep, planned):
    """Gaps the generator did not plan: damaged files or unexpected holes."""
    return [g for g in rep["gaps"]
            if g["file"] or g["week"] not in planned]


def check_rep(rep, manifest, expected):
    """Returns (weeks attempted, weeks failed) for one repetition."""
    if "error" in rep:
        raise BenchError("repetition failed: " + rep["error"])
    if not rep.get("peak_reset"):
        raise BenchError("the kernel refused the VmHWM reset (clear_refs)")
    weeks = int(rep["weeks"])
    failed = len(unplanned_gaps(rep, manifest["planned_gaps"]))
    digest = sha256_file(rep["bundle"]) if rep["bundle"] else ""
    if digest != expected:
        log("bundle digest %s does not match %s" % (digest[:16],
                                                     expected[:16]))
        failed = weeks
    return weeks, failed


def expected_digest(manifest, seed):
    """The digest committed for this seed, else the reference run's."""
    return committed_digest(seed) or manifest["reference_digest"]


def written_per_row(reps):
    """wchar over the study call and the bundle write, divided by rows."""
    return statistics.median([r["written_bytes"] / r["rows"] for r in reps])


def end_to_end(binary, scol, workload, seconds, scratch, manifest, seed):
    result = json.loads(run(
        [binary, "study", "--dir=" + scol, "--mode=" + workload,
         "--threads=%d" % threads(), "--seconds=%g" % seconds,
         "--out=" + scratch], timeout=170, env=bench_env(scratch)))
    expected = expected_digest(manifest, seed)
    attempted = failed = 0
    for rep in result["reps"]:
        a, f = check_rep(rep, manifest, expected)
        attempted += a
        failed += f
    # The first repetition is a warm-up: the first child of a run often
    # runs slow. It is checked above but not timed.
    reps = result["reps"][1:] or result["reps"]
    med = statistics.median
    metrics = {
        "rows_per_s": med([r["rows"] / r["study_s"] for r in reps]),
        "setup_s": med([r["setup_s"] for r in reps]),
        "peak_rss_mb": med([r["peak_rss_kb"] / 1024 for r in reps]),
        "study_peak_rss_mb": med([r["study_peak_rss_kb"] / 1024 for r in reps]),
        "ok_week_frac": 1 - failed / attempted,
    }
    # Printed but not bounded: exact per seed, but the spill carries paths,
    # so it follows the seed's path lengths (see README, Steadiness).
    extra = {"written_bytes_per_row": (written_per_row(reps), "B/row"),
             "failed_week_frac": (failed / attempted, "fraction")}
    log("%d repetitions in %.1f s" % (len(reps), result["elapsed_s"]))
    return metrics, extra, attempted, failed, len(reps)


def per_layer(binary, scol, workload, scratch, manifest, seed, meta):
    result = json.loads(run(
        [binary, "layers", "--dir=" + scol, "--mode=" + workload,
         "--threads=%d" % threads(), "--out=" + scratch,
         "--meta=" + json.dumps(meta)], timeout=170, env=bench_env(scratch)))
    plain = result["untraced"]
    traced = [result["traced"]["e2e"], result["traced_again"]]
    expected = expected_digest(manifest, seed)
    attempted = failed = 0
    for rep in plain + traced:
        a, f = check_rep(rep, manifest, expected)
        attempted += a
        failed += f
    metrics = dict(result["traced"]["metrics"])
    # The checkpointed study writes nothing but its checkpoints.
    metrics["study.checkpoint_bytes"] = (
        traced[0]["study_written_bytes"]
        if workload == "weekly_checkpoint" else 0)
    metrics["study.written_bytes_per_row"] = written_per_row(plain)
    metrics["util.cpu_util"] = statistics.mean(
        r["cpu_s"] / (r["study_s"] * r["threads"]) for r in plain)
    rate = lambda reps: statistics.mean(r["rows"] / r["study_s"] for r in reps)
    metrics["tracing_overhead"] = rate(plain) / rate(traced)
    missing = [m for m in PER_LAYER if m not in metrics]
    if missing:
        raise BenchError("per-layer metrics missing: " + ", ".join(missing))
    trace_copy = os.path.join(CACHE, "trace-%s-%d.json" % (workload, seed))
    with open(result["trace_file"]) as f:
        trace = json.load(f)
    trace["metadata"]["per_layer"] = {m: metrics[m] for m in PER_LAYER}
    with open(trace_copy, "w") as f:
        json.dump(trace, f)
    log("trace written to %s" % os.path.relpath(trace_copy, ROOT))
    return ({m: metrics[m] for m in PER_LAYER}, {}, attempted, failed, 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
        os.makedirs(CACHE, exist_ok=True)
        scol, manifest = ensure_series(binary, args.seed)
        scratch = os.path.join(CACHE, "run-%d" % os.getpid())
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        provenance = {
            "workload": args.workload, "seed": args.seed, "scale": SCALE,
            "weeks": WEEKS, "rows": manifest["rows"],
            "snapshots": len(manifest["files"]), "threads": threads(),
            "build_type": build_type(), "commit": commit(),
            "source_sha256": source_digest(),
            "reference_digest": manifest["reference_digest"][:16],
        }
        try:
            if args.trace:
                metrics, extra, attempted, failed, reps = per_layer(
                    binary, scol, args.workload, scratch, manifest, args.seed,
                    provenance)
                units = PER_LAYER
            else:
                metrics, extra, attempted, failed, reps = end_to_end(
                    binary, scol, args.workload, args.seconds, scratch,
                    manifest, args.seed)
                units = END_TO_END
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("benchmark failed: %s" % e)
        return 1

    provenance["repetitions"] = reps
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, unit in units.items():
        print("%-28s %16.6g %s" % (name, metrics[name], unit))
    for name, (value, unit) in extra.items():
        print("%-28s %16.6g %s" % (name, value, unit))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

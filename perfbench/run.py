"""ladderlab benchmark: drives the `ladderlab` CLI over one seeded workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

With --trace 0 the benchmark makes the workload's inputs (several times, to
time set-up), then runs the workload's CLI stages, one child process per
stage and each after the previous one ends, again and again for --seconds.
It checks every run's outputs and prints the end-to-end metrics.  With
--trace 1 it instead replays the stages in-process, with spans around the
calls into each ladderlab module, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A full record (provenance, stage
times, digests, degradation counts, spans) goes to perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MAX_RUN_S = 170  # every run must end within 180 s
STAGE_METRICS = {  # stage name -> stage-time metric it adds to
    "rd_build": "rd_build_s",
    "hull": "hull_s",
    "features_vod": "features_vod_s",
    "features_live": "features_live_s",
    "train_p1": "train_s",
    "train_p2": "train_s",
    "train_p3": "train_s",
    "predict": "predict_s",
    "evaluate": "evaluate_s",
}


class StageFailed(Exception):
    pass


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(top):
    """{relative path: sha256} of every file under `top`."""
    out = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, top)] = sha256_file(path)
    return dict(sorted(out.items()))


def combined_digest(digests):
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def provenance(seed):
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for rel, digest in tree_digests(os.path.join(SRC, "ladderlab")).items():
        if rel.endswith(".py"):
            src_hash.update(f"{rel} {digest}\n".encode())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
    }


class SubprocessStages:
    """Runs each stage as `python3 perfbench/stage.py ...` and records it."""

    def __init__(self, status_dir, deadline):
        self.status_dir = status_dir
        self.deadline = deadline
        self.records = []
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def __call__(self, name, argv):
        status = os.path.join(self.status_dir, f"{name}.status.json")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "stage.py"), status, *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired as exc:
            raise StageFailed(f"{name}: timed out") from exc
        wall = time.monotonic() - t0
        if proc.returncode != 0 or not os.path.isfile(status):
            raise StageFailed(f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        with open(status) as f:
            st = json.load(f)
        os.remove(status)
        self.records.append({
            "stage": name,
            "wall_s": wall,
            "startup_s": st["imported_at"] - t0,
            "peak_rss_mb": st["vmhwm_kb"] / 1024.0 if st["vmhwm_kb"] else None,
        })


def measure(wl, args, work, deadline):
    """Untraced run: set-up repeats, then pipeline repeats for --seconds."""
    inputs = os.path.join(work, "inputs")
    setup_times, input_digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        t0 = time.perf_counter()
        ctx = wl.setup(inputs, args.seed)
        setup_times.append(time.perf_counter() - t0)
        input_digests.add(combined_digest(tree_digests(inputs)))

    checks = [("setup_deterministic", len(input_digests) == 1,
               f"{len(input_digests)} distinct input digest(s) over {SETUP_REPEATS} set-ups")]
    reps, failures = [], []
    t_start = time.monotonic()
    while True:
        out = os.path.join(work, f"rep{len(reps)}")
        os.makedirs(out)
        stages = SubprocessStages(work, deadline)
        t0 = time.monotonic()
        try:
            wl.pipeline(stages, ctx, out)
        except StageFailed as exc:
            failures.append(str(exc))
            break
        last = time.monotonic() - t0
        reps.append({"stages": stages.records, "digests": tree_digests(out)})
        if len(reps) > 1:
            shutil.rmtree(out)
        now = time.monotonic()
        if now - t_start + last > args.seconds or now + 2 * last > deadline:
            break

    counts, quality = {}, {}
    if reps:
        try:
            wl_checks, counts, quality = wl.check(ctx, os.path.join(work, "rep0"))
        except Exception as exc:  # malformed output: report it, keep the result line
            wl_checks = [("workload_checks", False, f"{type(exc).__name__}: {exc}")]
        checks += wl_checks
        distinct = {combined_digest(r["digests"]) for r in reps}
        checks.append(("artifacts_identical_across_repeats", len(distinct) == 1,
                       f"{len(distinct)} distinct artifact digest(s) over {len(reps)} runs"))
    return setup_times, reps, failures, checks, counts, quality


def summarize(setup_times, reps):
    """End-to-end metrics plus the per-stage table (medians over repeats)."""
    per_rep = []
    for rep in reps:
        stage_s = {}
        for r in rep["stages"]:
            key = STAGE_METRICS[r["stage"]]
            stage_s[key] = stage_s.get(key, 0.0) + r["wall_s"]
        stage_s["startup_s"] = sum(r["startup_s"] for r in rep["stages"])
        stage_s["pipeline_s"] = sum(r["wall_s"] for r in rep["stages"])
        stage_s["peak_rss_mb"] = max(r["peak_rss_mb"] or 0.0 for r in rep["stages"])
        per_rep.append(stage_s)
    table = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]} if per_rep else {}
    table["setup_s"] = statistics.median(setup_times)
    return table, per_rep


UNIT_SUFFIXES = (  # first match wins; "_ms_per_frame" reads as ms
    ("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_mb", "MB"), ("_pct", "%"), ("_bytes", "B"),
    ("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio"),
    ("_speedup_jobs2", "ratio"), ("_r2", "R2"), ("_accuracy", "ratio"),
)


def unit_of(name):
    metric = name.split(".")[1] if "." in name else name
    for suffix, unit in UNIT_SUFFIXES:
        if metric.endswith(suffix) or f"{suffix}_per_" in metric:
            return unit
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ladderlab", "cli.py")):
        sys.stderr.write(f"error: ladderlab sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + MAX_RUN_S
    record = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed)}
    work = os.path.join(HERE, "work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            from trace_run import traced_run

            metrics, checks, extra = traced_run(wl, args, work)
            record.update(extra)
            attempted, failures = len(checks), []
        else:
            setup_times, reps, failures, checks, counts, quality = measure(wl, args, work, deadline)
            table, per_rep = summarize(setup_times, reps)
            metrics = {k: table[k] for k in ("setup_s", "pipeline_s", "peak_rss_mb")
                       if k in table}
            record.update({
                "setup_times_s": setup_times, "stage_table": table, "per_rep": per_rep,
                "stage_records": [r["stages"] for r in reps], "counts": counts,
                "quality": quality, "failures": failures,
                "artifacts": reps[0]["digests"] if reps else {},
                "artifacts_sha256": combined_digest(reps[0]["digests"]) if reps else None,
            })
            attempted = sum(len(r["stages"]) for r in reps) + len(failures) + len(checks)
            _print_table(wl.name, table, quality, counts, record["artifacts_sha256"], len(reps))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures) + sum(not ok for _, ok, _ in checks)
    record["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for msg in failures:
        print(f"stage FAILED: {msg}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def _print_table(workload, table, quality, counts, digest, n_reps):
    print(f"workload {workload}: {n_reps} pipeline run(s), medians")
    for name, value in {**table, **quality}.items():
        print(f"  {name:22s} {value:12.4f} {unit_of(name)}")
    for name, value in counts.items():
        print(f"  {name:22s} {value:12d} count")
    print(f"  artifacts_sha256       {digest}")


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of graphmend's correction loop.

    python3 perfbench/run.py --workload global-2k --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Closed loop, one client: correction runs go one after another, each in
a fresh worker process (perfbench/worker.py), until the next run would
overrun --seconds; at least one run (with --trace 1, one untraced and
one traced run) always happens.  Inputs are generated from --seed with
graphmend.synth before any clock starts.

--trace 0 reports the end-to-end metrics, --trace 1 the per-module
metrics from a traced run plus the tracing overhead.  Each run's
outputs are checked (label and confidence ranges, the CLI reports
reloading, an accuracy floor, one final-label digest across every run
of the seed, traced or not).  A run that ends in a GraphmendError is
counted as failed and the benchmark goes on.  The last line of output
is one JSON object: correct, attempted, failed, metrics.  The exit code
is 1 when a check fails and 2 when the program cannot be found.
"""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402
from perfbench.spans import LAYER_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_REPEATS = 7
# every worker is stopped by this many seconds after a workload starts,
# so a run of the benchmark ends within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "correct_s": "s",
    "sample_epochs_per_s": "sample-epochs/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "correction_accuracy": "fraction",
    "failed_share": "fraction",
}

# a fresh interpreter up to inputs ready
SETUP_CODE = (
    "import sys, graphmend; from graphmend import core; "
    "core.load_features(sys.argv[1]); core.load_label_columns(sys.argv[2])"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    # never more BLAS threads than cores this process may run on
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def measure_setup(paths, env):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, paths["features"], paths["labels"]],
                   env=env, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - start


def run_worker(w, seed, paths, trace, workdir, env, timeout):
    """One correction run in a fresh process; the worker's result dict,
    or a dict with `crash` set when the worker itself failed."""
    job = {
        "workload": dataclasses.asdict(w),
        "seed": seed,
        "paths": paths,
        "trace": trace,
        "result": os.path.join(workdir, "result.json"),
        "spans": os.path.join(workdir, "spans.json"),
    }
    if os.path.exists(job["result"]):
        os.remove(job["result"])
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", json.dumps(job)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": "worker exceeded %.0f s" % timeout, "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        tail = (proc.stderr or "").strip().splitlines()[-5:]
        return {"crash": "worker exited %d: %s" % (proc.returncode, " | ".join(tail)),
                "wall_s": wall}
    with open(job["result"]) as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    result["trace"] = trace
    if trace:
        shutil.copy(job["spans"], os.path.join(ROOT, "perfbench", "results",
                                               "%s-s%d-spans.json" % (w.name, seed)))
    return result


def run_workload(w, seed, seconds, trace):
    """Run workload `w` for about `seconds`; returns the summary dict."""
    deadline = time.perf_counter() + DEADLINE_S
    workdir = os.path.join(ROOT, "perfbench", "work", "%s-s%d" % (w.name, seed))
    os.makedirs(os.path.join(ROOT, "perfbench", "results"), exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env()
    try:
        paths = write_inputs(w, seed, workdir)
        setup = [] if trace else [measure_setup(paths, env) for _ in range(SETUP_REPEATS)]
        runs = []
        start = time.perf_counter()
        while True:
            traced = trace and len(runs) % 2 == 1
            timeout = max(deadline - time.perf_counter(), 1.0)
            runs.append(run_worker(w, seed, paths, traced, workdir, env, timeout))
            if "crash" in runs[-1]:
                break
            elapsed = time.perf_counter() - start
            typical = stats.median([r["wall_s"] for r in runs])
            pair_done = not trace or len(runs) % 2 == 0
            if pair_done and elapsed + typical > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(w, seed, trace, setup, runs)


def summarize(w, seed, trace, setup, runs):
    problems = [r["crash"] for r in runs if "crash" in r]
    done = [r for r in runs if "crash" not in r]
    ok = [r for r in done if r["ok"]]
    for r in ok:
        problems.extend(r["problems"])
    digests = sorted({r.get("digest") for r in ok})
    if len(digests) > 1:
        problems.append("final-label digests differ between runs of one seed: %s"
                        % ", ".join(str(d) for d in digests))
    if not ok:
        problems.append("no correction run completed")
    out = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(runs),
        "failed": sum(1 for r in done if not r["ok"]),
        "errors": sorted({r["error"] for r in done if not r["ok"]}),
        "problems": problems,
        "env": done[0]["env"] if done else None,
        "digest": digests[0] if len(digests) == 1 else None,
        "runs": runs,
        "metrics": {},
    }
    if not ok:
        return out
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    m = out["metrics"]
    if not trace:
        correct_s = [r["correct_s"] for r in ok]
        out["correct_s"] = stats.summary(correct_s)
        m["correct_s"] = stats.median(correct_s)
        m["sample_epochs_per_s"] = w.n_samples * ok[0]["epochs_run"] / m["correct_s"]
        m["setup_s"] = stats.median(setup)
        m["peak_rss_mb"] = stats.median([r["peak_rss_mb"] for r in ok])
        m["correction_accuracy"] = ok[0]["accuracy"]
        m["failed_share"] = out["failed"] / out["attempted"]
        out["setup_s"] = stats.summary(setup)
    elif traced:
        for name in LAYER_UNITS:
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            if values:
                m[name] = stats.median(values)
        out["absent"] = [name for name in LAYER_UNITS if name not in m]
        out["calls_ms"] = traced[-1]["calls_ms"]
        traced_s = stats.median([r["correct_s"] for r in traced])
        out["traced_correct_s"] = traced_s
        out["accounted_s"] = stats.median([r["accounted_s"] for r in traced])
        if untraced:
            out["trace_overhead_s"] = traced_s - stats.median([r["correct_s"] for r in untraced])
    return out


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def report(s):
    """Human-readable lines, then the one-line JSON result."""
    end_to_end, per_layer = declared_metrics()
    declared = end_to_end if not s["trace"] else per_layer
    units = END_TO_END_UNITS if not s["trace"] else LAYER_UNITS
    print("== %s  seed %d  trace %d  runs %d  failed %d"
          % (s["workload"], s["seed"], s["trace"], s["attempted"], s["failed"]))
    if s["env"]:
        print("env  " + "  ".join("%s %s" % kv for kv in s["env"].items()))
    for name, unit in units.items():
        if name in s["metrics"]:
            print("  %-26s %14s %s" % (name, fmt(s["metrics"][name]), unit))
        elif s["trace"] and name in s.get("absent", ()):
            print("  %-26s %14s" % (name, "absent"))
    for key in ("correct_s", "setup_s"):
        if key in s:
            print("  %s over runs: %s" % (key, json.dumps(s[key])))
    if s["trace"] and "traced_correct_s" in s:
        print("  traced correct_s %.6g s; module self times account for %.6g s (%.4f%%)"
              % (s["traced_correct_s"], s["accounted_s"],
                 100.0 * s["accounted_s"] / s["traced_correct_s"]))
        if "trace_overhead_s" in s:
            print("  tracing overhead (traced - untraced correct_s) %.6g s" % s["trace_overhead_s"])
        for name, summary in s["calls_ms"].items():
            print("  per-call %s ms: %s" % (name, json.dumps(summary)))
    print("  digest %s" % s["digest"])
    for err in s["errors"]:
        print("  failed run: %s" % err)
    for p in s["problems"]:
        print("  CHECK FAILED: %s" % p)
    result = {
        "correct": not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {d["name"]: {"value": s["metrics"][d["name"]], "unit": d["unit"]}
                    for d in declared if d["name"] in s["metrics"]},
    }
    print(json.dumps(result), flush=True)
    return result


def save(s):
    path = os.path.join(ROOT, "perfbench", "results",
                        "%s-s%d-trace%d.json" % (s["workload"], s["seed"], s["trace"]))
    with open(path, "w") as fh:
        json.dump(s, fh, indent=1)


def find_program():
    """Import graphmend from this checkout's src/, and nowhere else."""
    init = os.path.join(SRC, "graphmend", "__init__.py")
    if not os.path.isfile(init):
        return "no graphmend sources at %s" % os.path.relpath(init, ROOT)
    sys.path.insert(0, SRC)
    import graphmend

    if os.path.realpath(graphmend.__file__) != os.path.realpath(init):
        return "imported graphmend from %s, not from this checkout" % graphmend.__file__
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    problem = find_program()
    if problem:
        print("perfbench: %s" % problem, file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        s = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        save(s)
        correct &= report(s)["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

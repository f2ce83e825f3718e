"""One correction run of one workload, in a fresh process.

perfbench/run.py starts it as `python3 -m perfbench.worker JOB`, where
JOB is a JSON object naming the workload, the seed, the input files and
where to write the result.  The inputs are loaded before the clock
starts; the timed region is `run_correction` (in-memory workloads) or
`graphmend.pipeline.main(["correct", ...])` (the CLI workload).  With
tracing on, the spans are kept in memory and written after the run.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import sys
import time

import numpy as np
import scipy

from graphmend import core, pipeline

from perfbench import spans, stats
from perfbench.workloads import Workload, pipeline_config


def blas_threads():
    """Thread count OpenBLAS reports in this process, if it is loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    try:
        from graphmend import accel

        backend = accel.BACKEND
    except (ImportError, AttributeError):
        backend = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "accel.BACKEND": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def digest(corrected, confidence):
    h = hashlib.sha256()
    h.update(np.asarray(corrected, dtype="<i8").tobytes())
    h.update(np.asarray(confidence, dtype="<f8").tobytes())
    return h.hexdigest()


def cli_argv(seed, paths):
    return ["correct", "--features", paths["features"], "--labels", paths["labels"],
            "--out", paths["out"], "--config", paths["config"], "--seed", str(seed),
            "--dump-suggestions"]


def reload_cli_outputs(paths):
    """The CLI run's epoch reports (via core.load_report) and final labels."""
    found = glob.glob(os.path.join(paths["out"], "epoch_*", "report.txt"))
    found.sort(key=lambda p: int(re.search(r"epoch_(\d+)", p).group(1)))
    reports = [core.load_report(p) for p in found]
    final, _ = core.load_label_columns(os.path.join(paths["out"], "final", "labels.csv"))
    return reports, final


def check_outputs(w, reports, final, noisy, clean):
    """Problems found in a finished run's outputs, and its accuracy."""
    problems = []
    if len(reports) != w.outer_epochs:
        problems.append("%d epoch reports, expected %d" % (len(reports), w.outer_epochs))
    for r in reports:
        if r.corrected.size and (r.corrected.min() < 0 or r.corrected.max() >= w.classes):
            problems.append("epoch %d: corrected label outside [0, %d)" % (r.epoch, w.classes))
        if not np.all((r.confidence >= 0) & (r.confidence <= 1)):
            problems.append("epoch %d: confidence outside [0, 1]" % r.epoch)
    if not reports:
        return problems, None
    if final is not None and not np.array_equal(final, reports[-1].corrected):
        problems.append("final/labels.csv differs from the last epoch report")
    accuracy = pipeline.evaluate(noisy, reports[-1].corrected, clean)["correction_accuracy"]
    if accuracy < w.accuracy_floor:
        problems.append("correction_accuracy %.4f below floor %.2f" % (accuracy, w.accuracy_floor))
    return problems, accuracy


def run(job):
    w = Workload(**job["workload"])
    seed = job["seed"]
    paths = job["paths"]
    features = core.load_features(paths["features"])
    noisy, clean = core.load_label_columns(paths["labels"])
    shutil.rmtree(paths["out"], ignore_errors=True)
    cfg = pipeline_config(w, seed)
    argv = cli_argv(seed, paths)

    tracer = hooks = None
    if job["trace"]:
        tracer = spans.Tracer()
        hooks = spans.Hooks(tracer)
    error = None
    reports = None
    try:
        start = time.perf_counter()
        if w.kind == "cli":
            code = pipeline.main(argv)
            if code != 0:
                error = "graphmend correct exited with code %d" % code
        else:
            try:
                reports = pipeline.run_correction(cfg, features=features, labels=noisy, clean=clean)
            except core.GraphmendError as err:
                error = "%s: %s" % (type(err).__name__, err)
        elapsed = time.perf_counter() - start
    finally:
        if hooks is not None:
            hooks.restore()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ok": error is None, "error": error, "correct_s": elapsed,
              "peak_rss_mb": peak_kib / 1024.0, "env": environment()}
    if error is None:
        final = None
        if w.kind == "cli":
            reports, final = reload_cli_outputs(paths)
        problems, accuracy = check_outputs(w, reports, final, noisy, clean)
        result.update(problems=problems, accuracy=accuracy, epochs_run=len(reports))
        if reports:
            result["digest"] = digest(reports[-1].corrected, reports[-1].confidence)
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, hooks.installed)
        result["accounted_s"] = sum(spans.self_times(tracer.spans).values())
        result["calls_ms"] = {
            name: stats.summary([1e3 * t for t in spans.call_times(tracer.spans, name)])
            for name in ("accel.matvec", "propagate.solve", "graph.knn")
            if name in hooks.installed and spans.call_times(tracer.spans, name)
        }
        with open(job["spans"], "w") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
    return result


def main(argv):
    job = json.loads(argv[1])
    result = run(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

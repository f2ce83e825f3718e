"""End-to-end correction loop and the batch command-line interface.

Each outer epoch: (1) re-split the dataset on the latest embedding
features, (2) refresh ensemble branch parameters as a random convex mix
of the corrected-branch and noisy-branch parameters, (3) run one
training pass, (4) build one k-NN graph per ensemble branch from its
hidden-layer features, (5) propagate every branch's label planes
through every graph, (6) vote, renormalize confidence, and update the
corrected labels, (7) write the epoch report.  Epoch 1 splits on the
ingested features, starts from corrected = noisy with confidence 1, and
trains all branches from one shared random initialization.

Step (4) runs every kNN search first and then normalizes the M
adjacencies, replacing each A by its W in the one list: each A is freed
as its W is made, and no normalization temporary is live during a
search.  An epoch's graphs, label planes and suggestions are freed
before the next epoch's searches.

Step (5) is M*M independent solves, one per (graph m, label set j).
The calling thread and min(usable CPUs, M*M) - 1 helper threads take
the pairs in row-major order.  Usable CPUs are the process's affinity
mask (os.cpu_count() where the OS has none) capped by its cgroup's CPU
quota, so `taskset` restricts them and no option does; one usable CPU
starts no helper.  Each pair writes only its own (m, j) slices of the
suggestion arrays and sums nothing across pairs, so the labels are the
same bits for every thread count.  scipy's CSR product and numpy's
elementwise kernels release the GIL and CG calls no BLAS; each thread
keeps one CG block and its Z live.  The calling thread runs the step
alone while a function it calls by public name (solve_propagation,
suggest_labels and certainty_weights as bound here, and
accel.make_csr_matvec) has been replaced by code from outside graphmend:
such a wrapper (perfbench's tracer keeps one span stack) need not be
safe to call from several threads at once.  Failures surface in serial
order: once a pair fails no thread takes another, and after every
helper has stopped the error of the first failing pair in row-major
order is raised unchanged.
"""

import argparse
import copy
import dataclasses
import itertools
import json
import math
import os
import sys
import threading

import numpy as np

from . import accel, propagate
from .branches import (
    BranchModel,
    ModelSet,
    TrainConfig,
    forward,
    init_model,
    save_model,
    train_epoch,
)
from .core import (
    CorrectionReport,
    FeatureMatrix,
    GraphmendError,
    LabelState,
    TrainingError,
    ValidationError,
    cast_fields,
    check_pairing,
    ensure_dir,
    load_features,
    load_label_columns,
    save_features,
    save_labels,
    save_report,
)
from .correct import apply_correction, decide_all, normalize_confidence
from .graph import GraphConfig, build_adjacency, normalize_graph
from .propagate import (
    NO_SUGGESTION,
    PropagationConfig,
    SuggestionTensor,
    build_partial_labels,
    certainty_weights,
    solve_propagation,
    suggest_labels,
)
from .splitter import SplitConfig, mix_parameters, split_dataset
from .synth import NOISE_KINDS, SynthConfig, make_noisy_dataset

# substream tags for the master seed; keeping them distinct means no
# phase can consume another phase's randomness
TAG_INIT = 0
TAG_SPLIT = 1
TAG_MIX = 2
TAG_TRAIN = 3

# samples per chunk of one (m, j) block of the suggestion dump
_DUMP_CHUNK = 512


@dataclasses.dataclass
class PipelineConfig:
    split: SplitConfig = dataclasses.field(default_factory=SplitConfig)
    graph: GraphConfig = dataclasses.field(default_factory=GraphConfig)
    prop: PropagationConfig = dataclasses.field(default_factory=PropagationConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    outer_epochs: int = 15
    resplit_each_epoch: bool = True
    seed: int = 0
    dump_suggestions: bool = False
    early_stop: bool = False

    def __post_init__(self):
        if self.outer_epochs < 1:
            raise ValidationError("outer_epochs must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        cast_fields(self)


SECTIONS = {
    field.name: field.type
    for field in dataclasses.fields(PipelineConfig)
    if dataclasses.is_dataclass(field.type)
}

# Fields that no config-file key sets: SplitConfig's rng_seed, because
# every split is seeded from `seed` and the epoch number, and the debug
# switches dump_suggestions and early_stop, which are flags only.
NOT_CONFIG_KEYS = ("rng_seed", "dump_suggestions", "early_stop")

# Every config-file key: (section of PipelineConfig holding it, or None
# for PipelineConfig itself; value kind).  Keys, kinds and defaults are
# the fields of the config dataclasses, read in SECTIONS order and then
# PipelineConfig's own; that is the order of run_config.txt and of the
# README table.
CONFIG_KEYS = {
    field.name: (section, field.type)
    for section, cls in (*SECTIONS.items(), (None, PipelineConfig))
    for field in dataclasses.fields(cls)
    if field.name not in SECTIONS and field.name not in NOT_CONFIG_KEYS
}


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _write_run_config(path, cfg):
    """Echo every resolved setting; the file reads back as a config file."""
    with open(path, "w") as fh:
        for key, (section, kind) in CONFIG_KEYS.items():
            value = getattr(cfg if section is None else getattr(cfg, section), key)
            if kind is bool:
                value = "true" if value else "false"
            fh.write("%s = %s\n" % (key, value))


def _embed(model, features):
    """The model's hidden-layer features as a FeatureMatrix; non-finite
    ones, from training that diverged, are a TrainingError."""
    hidden, _ = forward(model, features.data)
    hidden = hidden.astype(np.float32)
    if not np.isfinite(hidden).all():
        raise TrainingError("training diverged: non-finite embedding")
    return FeatureMatrix(hidden)


def evaluate(noisy, corrected, clean):
    """Correction quality against known clean labels."""
    noisy = np.asarray(noisy, dtype=np.int64)
    corrected = np.asarray(corrected, dtype=np.int64)
    clean = np.asarray(clean, dtype=np.int64)
    if not (noisy.shape == corrected.shape == clean.shape):
        raise ValidationError("label arrays differ in length")
    flipped = noisy != clean
    restored = corrected == clean
    out = {
        "correction_accuracy": float(restored[flipped].mean()) if flipped.any() else 1.0,
        "clean_preservation": (
            float((corrected == noisy)[~flipped].mean()) if (~flipped).any() else 1.0
        ),
        "residual_noise_rate": float((corrected != clean).mean()),
    }
    return out


def save_suggestions(path, suggestions):
    """Debug dump of every (graph, label set, sample, plane) suggestion.

    Each (m, j) block is written in chunks of _DUMP_CHUNK samples: only
    the "sample plane " prefixes span a whole block, and every other
    per-line list and the chunk's text hold 2 * _DUMP_CHUNK lines.
    """
    with open(path, "w") as fh:
        fh.write("MLCT v1\n")
        fh.write(
            "n_branches %d\nn_samples %d\nn_classes %d\n"
            % (suggestions.n_branches, suggestions.n_samples, suggestions.n_classes)
        )
        fh.write("columns m j sample plane label weight\n")
        M, n = suggestions.n_branches, suggestions.n_samples
        # "sample plane " text of one (m, j) block and "label " text of each
        # class (index label + 1, so -1 lands at 0), each formatted once
        rows = ["%d %d " % (i, q) for i in range(n) for q in range(2)]
        label_text = np.array(
            ["%d " % c for c in range(NO_SUGGESTION, suggestions.n_classes)], dtype=object
        )
        for m in range(M):
            for j in range(M):
                block = "%d %d " % (m, j)
                for start in range(0, n, _DUMP_CHUNK):
                    stop = start + _DUMP_CHUNK
                    # each weight bit pattern is formatted once per chunk,
                    # so 0.0 and -0.0 keep their own text
                    bits, at = np.unique(
                        suggestions.weights[m, j, start:stop].ravel().view(np.int64),
                        return_inverse=True,
                    )
                    weight_text = np.array(
                        ["%r\n" % w for w in bits.view(np.float64).tolist()], dtype=object
                    )
                    columns = (
                        itertools.repeat(block),
                        rows[2 * start:2 * stop],
                        label_text[suggestions.labels[m, j, start:stop].ravel() + 1].tolist(),
                        weight_text[at].tolist(),
                    )
                    fh.write("".join(map("".join, zip(*columns))))


def _check_branch_count(n_branches, n_samples):
    """More branches than samples leave branches empty, and a huge count
    exhausts memory in the split; reject it before any work."""
    if n_branches > n_samples:
        raise ValidationError(
            "n_branches %d exceeds the sample count %d" % (n_branches, n_samples)
        )


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS keeps
    one, else every CPU, capped by its cgroup's CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _quota_cpus() or cpus)


_CGROUP = "/sys/fs/cgroup"


def _quota_cpus():
    """The cgroup's CPU quota (v2 cpu.max, else v1 cfs) rounded up to
    whole CPUs, or None where none is set or readable."""
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            fields = []
            for name in names:
                with open(os.path.join(_CGROUP, name)) as f:
                    fields += f.read().split()
            quota, period = fields[:2]
            if quota in ("max", "-1"):
                return None
            return max(1, math.ceil(int(quota) / int(period)))
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return None


def _thread_count(n_tasks):
    """Threads for step 5, the calling thread included (see the module
    docstring)."""
    called = (solve_propagation, suggest_labels, certainty_weights, accel.make_csr_matvec)
    if any(getattr(fn, "__module__", None) not in (propagate.__name__, accel.__name__)
           for fn in called):
        return 1
    return min(_usable_cpus(), n_tasks)


def _propagate_all(graphs, planes, prop, n_classes):
    """Suggestions of every graph m for every label set j, solved by the
    calling thread and its helpers (see the module docstring, step 5)."""
    M, n = len(graphs), planes[0].shape[0]
    sug_labels = np.empty((M, M, n, 2), dtype=np.int64)
    sug_weights = np.empty((M, M, n, 2))
    todo = itertools.product(range(M), repeat=2)
    lock = threading.Lock()
    failed = {}

    def drain():
        # take pairs in row-major order until none is left or one failed
        while True:
            with lock:
                pair = None if failed else next(todo, None)
            if pair is None:
                return
            m, j = pair
            try:
                Z = solve_propagation(graphs[m], planes[j], prop)
                sug_labels[m, j] = suggest_labels(Z)
                sug_weights[m, j] = certainty_weights(Z)
            except BaseException as exc:
                with lock:
                    failed[pair] = exc

    helpers = [threading.Thread(target=drain) for _ in range(_thread_count(M * M) - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return SuggestionTensor(sug_labels, sug_weights, n_classes)


def run_correction(cfg, features=None, labels=None, clean=None, output_dir=None):
    """Run the full iterative correction; returns the per-epoch reports."""
    if features is None or labels is None:
        raise ValidationError("run_correction needs features and labels")
    labels = np.asarray(labels, dtype=np.int64)
    check_pairing(features, labels)
    if clean is not None:
        clean = np.asarray(clean, dtype=np.int64)
        if clean.shape != labels.shape:
            raise ValidationError("label arrays differ in length")
    if labels.size == 0:
        raise ValidationError("label file is empty")
    C = int(labels.max()) + 1  # from the noisy labels; clean ones only score
    M = cfg.split.n_branches
    n = labels.shape[0]
    if C < 2:
        raise ValidationError("labels hold %d class; correction needs at least 2" % C)
    if not cfg.graph.k_graph < n:
        raise ValidationError("k_graph must be smaller than the sample count")
    _check_branch_count(M, n)

    state = LabelState(labels, labels.copy(), np.ones(n), C)
    # every model is sized by C: reject an absent class id before making one
    classes = np.unique(labels)
    if classes.size < C:
        missing = int(np.flatnonzero(classes != np.arange(classes.size))[0])
        raise ValidationError("class %d has no samples" % missing)
    dim = features.dim
    H = cfg.train.hidden_width
    base = init_model(dim, H, C, _stream(cfg.seed, TAG_INIT))
    models = ModelSet(
        [base.clone() for _ in range(M)], base.clone(), base.clone()
    )

    if output_dir is not None:
        ensure_dir(output_dir)
        _write_run_config(os.path.join(output_dir, "run_config.txt"), cfg)
    assignment = None
    reports = []
    prev_corrected = state.corrected.copy()
    for epoch in range(1, cfg.outer_epochs + 1):
        # steps 1-4: a diverging run overflows in training and embedding, where
        # every non-finite result raises TrainingError; warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            if assignment is None or cfg.resplit_each_epoch:
                # a re-split reads the noisy branch's embedding, made only here
                split_features = features
                if assignment is not None:
                    split_features = _embed(models.noisy, features)
                assignment = split_dataset(
                    split_features,
                    state.noisy,
                    cfg.split,
                    rng=np.random.SeedSequence(cfg.seed, spawn_key=(TAG_SPLIT, epoch)),
                )
            if epoch >= 2:
                mix_rng = _stream(cfg.seed, TAG_MIX, epoch)
                for m in range(M):
                    alpha_m = float(mix_rng.uniform())
                    theta = mix_parameters(
                        models.corrected.theta, models.noisy.theta, alpha_m
                    )
                    models.ensemble[m] = BranchModel(dim, H, C, theta)
            train_epoch(
                models,
                assignment,
                features,
                state,
                cfg.train,
                _stream(cfg.seed, TAG_TRAIN, epoch),
                epoch=epoch,
            )

            graphs = [
                build_adjacency(_embed(models.ensemble[m], features), cfg.graph)
                for m in range(M)
            ]
        for m in range(M):
            graphs[m] = normalize_graph(graphs[m])
        planes = [build_partial_labels(assignment, j, state) for j in range(M)]
        suggestions = _propagate_all(graphs, planes, cfg.prop, C)

        winners, _, omega_hat, _ = decide_all(suggestions)
        state = apply_correction(state, winners, normalize_confidence(omega_hat))

        accuracy = None
        if clean is not None:
            accuracy = evaluate(state.noisy, state.corrected, clean)[
                "correction_accuracy"
            ]
        report = CorrectionReport(
            epoch, state.noisy, state.corrected, state.confidence, accuracy
        )
        reports.append(report)
        if output_dir is not None:
            edir = ensure_dir(os.path.join(output_dir, "epoch_%d" % epoch))
            save_report(os.path.join(edir, "report.txt"), report)
            if cfg.dump_suggestions:
                save_suggestions(os.path.join(edir, "suggestions.txt"), suggestions)
            save_model(os.path.join(edir, "corrected_model.bin"), models.corrected)
            save_model(os.path.join(edir, "noisy_model.bin"), models.noisy)

        # freed before the next epoch's searches, which would otherwise
        # run beside this epoch's M graphs and suggestion arrays
        del graphs, planes, suggestions
        changed = int((state.corrected != prev_corrected).sum())
        prev_corrected = state.corrected.copy()
        if cfg.early_stop and changed == 0:
            break
    if output_dir is not None:
        fdir = ensure_dir(os.path.join(output_dir, "final"))
        save_labels(os.path.join(fdir, "labels.csv"), state.corrected)
        save_model(os.path.join(fdir, "corrected_model.bin"), models.corrected)
    return reports


def run_sweep(
    cfg, sweep_m, sweep_b, features=None, labels=None, clean=None, output_dir=None
):
    """One full run per distinct (M, B) in the two grids; returns sorted
    result rows."""
    if not sweep_m or not sweep_b:
        raise ValidationError("sweep needs nonempty M and B grids")
    rows = []
    for M in sorted(set(sweep_m)):
        for B in sorted(set(sweep_b)):
            sub = copy.copy(cfg)
            sub.split = SplitConfig(M, B)
            subdir = None
            if output_dir is not None:
                subdir = os.path.join(output_dir, "sweep_M%d_B%d" % (M, B))
            reports = run_correction(
                sub, features=features, labels=labels, clean=clean, output_dir=subdir
            )
            final = reports[-1]
            if clean is not None:
                metrics = evaluate(final.noisy, final.corrected, clean)
                rows.append(
                    (
                        M,
                        B,
                        metrics["correction_accuracy"],
                        metrics["residual_noise_rate"],
                    )
                )
            else:
                rows.append((M, B, None, None))
    if output_dir is not None:
        ensure_dir(output_dir)
        with open(os.path.join(output_dir, "sweep.csv"), "w") as fh:
            fh.write("M,B,correction_accuracy,residual_noise_rate\n")
            for M, B, acc, resid in rows:
                fh.write(
                    "%d,%d,%s,%s\n"
                    % (
                        M,
                        B,
                        "" if acc is None else repr(acc),
                        "" if resid is None else repr(resid),
                    )
                )
    return rows


# ---------------------------------------------------------------- CLI

def _parse_finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def int64(text):
    """int(text), limited to int64 as label values are."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError("%s lies outside int64" % text.strip())
    return value


def _parse_bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


def _parse_int_item(item):
    try:
        return int64(item)
    except ValueError:
        raise ValueError("bad item %r" % item.strip())


def _parse_list(text):
    return [_parse_int_item(v) for v in text.split(",") if v.strip()]


def _parse_mapping(text):
    """`src:dst` pairs separated by commas, as a {src: dst} dict."""
    mapping = {}
    for part in text.split(","):
        src, sep, dst = part.partition(":")
        if not sep:
            raise ValueError("bad item %r, expected src:dst" % part.strip())
        mapping[_parse_int_item(src)] = _parse_int_item(dst)
    return mapping


PARSERS = {int: int64, float: _parse_finite, bool: _parse_bool}


def _parse_option(flag, text, parse):
    """Parse a command-line value; a malformed one raises ValidationError."""
    try:
        return parse(text)
    except ValueError as err:
        raise ValidationError("%s %r: %s" % (flag, text, err))


def parse_config_file(path):
    """Read `key = value` lines; # starts a comment."""
    values = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValidationError("config file is not valid UTF-8", row=lineno)
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError("expected key = value", row=lineno)
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in CONFIG_KEYS:
                raise ValidationError("unknown config key %r" % key, row=lineno)
            try:
                values[key] = PARSERS[CONFIG_KEYS[key][1]](text)
            except ValueError:
                raise ValidationError(
                    "bad value %r for config key %r" % (text, key), row=lineno
                )
    return values


def build_config(values):
    """Assemble a PipelineConfig from a flat key -> value mapping.

    Missing keys take the config dataclasses' defaults.
    """
    kwargs = {section: {} for section in (None, *SECTIONS)}
    for key, value in values.items():
        if key not in CONFIG_KEYS:
            raise ValidationError("unknown config key %r" % key)
        kwargs[CONFIG_KEYS[key][0]][key] = value
    sections = {name: cls(**kwargs[name]) for name, cls in SECTIONS.items()}
    return PipelineConfig(**sections, **kwargs[None])


def _load_inputs(args):
    features = load_features(args.features)
    noisy, clean = load_label_columns(args.labels)
    check_pairing(features, noisy)
    return features, noisy, clean


def _config_from_args(args):
    values = parse_config_file(args.config) if args.config else {}
    if args.seed is not None:
        values["seed"] = args.seed
    cfg = build_config(values)
    if args.no_resplit:
        cfg.resplit_each_epoch = False
    # sweep has no --dump-suggestions
    if getattr(args, "dump_suggestions", False):
        cfg.dump_suggestions = True
    if args.early_stop:
        cfg.early_stop = True
    return cfg


def _cmd_synth(args):
    cfg = SynthConfig(
        n_classes=args.classes,
        per_class=args.per_class,
        dim=args.dim,
        class_separation=args.separation,
        noise_rate=args.noise_rate,
        noise_kind=args.noise_kind,
        rng_seed=args.seed,
    )
    mapping = None
    if args.mapping:
        mapping = _parse_option("--mapping", args.mapping, _parse_mapping)
    features, noisy, clean = make_noisy_dataset(cfg, mapping=mapping)
    save_features(args.out_features, features)
    save_labels(args.out_labels, noisy, clean)
    print(
        "wrote %d samples (%d flipped) to %s / %s"
        % (
            features.n_samples,
            int((noisy != clean).sum()),
            args.out_features,
            args.out_labels,
        )
    )
    return 0


def _cmd_split(args):
    features, noisy, _ = _load_inputs(args)
    cfg = SplitConfig(args.branches, args.packages, args.seed)
    _check_branch_count(cfg.n_branches, noisy.shape[0])
    assignment = split_dataset(features, noisy, cfg)
    with open(args.out, "w") as fh:
        fh.write("MLCS v1\n")
        fh.write(
            "n_samples %d\nn_branches %d\nn_packages %d\n"
            % (assignment.n_samples, assignment.n_branches, len(assignment.packages))
        )
        fh.write("columns index branch package\n")
        fh.writelines(
            "%d %d %d\n" % row
            for row in zip(
                range(assignment.n_samples),
                assignment.branch_of.tolist(),
                assignment.package_of.tolist(),
            )
        )
    print("wrote split of %d samples to %s" % (assignment.n_samples, args.out))
    return 0


def _cmd_correct(args):
    features, noisy, clean = _load_inputs(args)
    cfg = _config_from_args(args)
    reports = run_correction(
        cfg, features=features, labels=noisy, clean=clean, output_dir=args.out
    )
    print(json.dumps({"epochs_run": len(reports), **reports[-1].summary()}, sort_keys=True))
    return 0


def _cmd_sweep(args):
    features, noisy, clean = _load_inputs(args)
    cfg = _config_from_args(args)
    sweep_m = _parse_option("--sweep-m", args.sweep_m, _parse_list)
    sweep_b = _parse_option("--sweep-b", args.sweep_b, _parse_list)
    rows = run_sweep(
        cfg, sweep_m, sweep_b,
        features=features, labels=noisy, clean=clean, output_dir=args.out,
    )
    for M, B, acc, resid in rows:
        print(
            "M=%d B=%d correction_accuracy=%s residual_noise_rate=%s"
            % (M, B, acc, resid)
        )
    return 0


def _cmd_eval(args):
    noisy, clean = load_label_columns(args.labels)
    if clean is None:
        raise ValidationError("eval needs a two-column label file (noisy,clean)")
    corrected = np.asarray(
        load_label_columns(args.corrected)[0], dtype=np.int64
    )
    metrics = evaluate(noisy, corrected, clean)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="graphmend",
        description="Correct noisy labels via multi-graph propagation and voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a noisy blob dataset")
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--classes", type=int64, default=SynthConfig.n_classes)
    p.add_argument("--per-class", type=int64, default=SynthConfig.per_class)
    p.add_argument("--dim", type=int64, default=SynthConfig.dim)
    p.add_argument("--separation", type=float, default=SynthConfig.class_separation)
    p.add_argument("--noise-rate", type=float, default=SynthConfig.noise_rate)
    p.add_argument("--noise-kind", choices=NOISE_KINDS, default=SynthConfig.noise_kind)
    p.add_argument("--mapping", help="asymmetric arrows, e.g. 0:1,1:0")
    p.add_argument("--seed", type=int64, default=SynthConfig.rng_seed)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="write one package split")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--branches", type=int64, default=SplitConfig.n_branches)
    p.add_argument(
        "--packages", type=int64, default=SplitConfig.packages_per_class_per_branch
    )
    p.add_argument("--seed", type=int64, default=SplitConfig.rng_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    # the flags of a correction run, shared by correct and sweep
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--features", required=True)
    run.add_argument("--labels", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--config")
    run.add_argument("--seed", type=int64)
    run.add_argument("--no-resplit", action="store_true")
    run.add_argument("--early-stop", action="store_true")

    p = sub.add_parser("correct", parents=[run], help="run the full correction loop")
    p.add_argument("--dump-suggestions", action="store_true")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("sweep", parents=[run], help="run the (M, B) sweep grid")
    p.add_argument("--sweep-m", required=True)
    p.add_argument("--sweep-b", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="score corrected labels against clean ones")
    p.add_argument("--labels", required=True,
                   help="two-column label file with noisy,clean rows")
    p.add_argument("--corrected", required=True)
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphmendError as err:
        print("error: %s" % err, file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

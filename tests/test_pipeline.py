"""End-to-end correction runs, config parsing, and the CLI."""

import argparse
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import graphmend
from graphmend import pipeline, propagate
from graphmend.core import (
    FeatureMatrix,
    GraphmendError,
    SolverError,
    ValidationError,
    load_features,
    load_label_columns,
    load_report,
    save_features,
    save_labels,
)
from graphmend.graph import GraphConfig
from graphmend.pipeline import (
    CONFIG_KEYS,
    PARSERS,
    SECTIONS,
    PipelineConfig,
    _write_run_config,
    build_config,
    evaluate,
    make_parser,
    parse_config_file,
    run_correction,
    run_sweep,
    save_suggestions,
)
from graphmend.propagate import NO_SUGGESTION, PropagationConfig, SuggestionTensor
from graphmend.branches import TrainConfig
from graphmend.splitter import SplitConfig, split_dataset
from graphmend.synth import NOISE_KINDS, SynthConfig, make_blobs, make_noisy_dataset
from test_propagate import cg_reference


def small_cfg(seed=0, M=3, B=2, outer_epochs=2, **kwargs):
    return PipelineConfig(
        split=SplitConfig(M, B, seed),
        graph=GraphConfig(k_graph=6, gamma=3.0),
        prop=PropagationConfig(alpha_prop=0.9, cg_tolerance=1e-6, cg_max_iters=300),
        train=TrainConfig(hidden_width=16, batch_size=32, pair_sample_count=64),
        outer_epochs=outer_epochs,
        seed=seed,
        **kwargs,
    )


def noisy_blobs(seed=0, per_class=60, C=3):
    cfg = SynthConfig(
        n_classes=C,
        per_class=per_class,
        dim=6,
        class_separation=4.0,
        noise_rate=0.25,
        noise_kind="confusing",
        rng_seed=seed,
    )
    return make_noisy_dataset(cfg)


def test_evaluate_hand_example():
    noisy = [0, 1, 1, 0]
    clean = [0, 1, 0, 0]
    corrected = [0, 1, 0, 1]
    out = evaluate(noisy, corrected, clean)
    assert out["correction_accuracy"] == 1.0
    assert out["clean_preservation"] == pytest.approx(2.0 / 3.0)
    assert out["residual_noise_rate"] == 0.25


def test_evaluate_no_flips_scores_one():
    out = evaluate([0, 1], [0, 1], [0, 1])
    assert out["correction_accuracy"] == 1.0
    assert out["clean_preservation"] == 1.0
    assert out["residual_noise_rate"] == 0.0


def test_evaluate_length_mismatch():
    with pytest.raises(ValidationError):
        evaluate([0, 1], [0], [0, 1])


def test_run_reduces_noise_on_blobs(tmp_path):
    feats, noisy, clean = noisy_blobs(seed=3)
    cfg = small_cfg(seed=3, outer_epochs=3)
    reports = run_correction(
        cfg, features=feats, labels=noisy, clean=clean, output_dir=str(tmp_path)
    )
    assert len(reports) == 3
    before = (noisy != clean).mean()
    after = (reports[-1].corrected != clean).mean()
    assert after < before
    # the report keeps the original labels untouched in every epoch
    for r in reports:
        assert np.array_equal(r.noisy, noisy)


def test_run_preserves_clean_labels(tmp_path):
    cfg_synth = SynthConfig(
        n_classes=3, per_class=50, dim=6, class_separation=6.0,
        noise_kind="none", rng_seed=4,
    )
    feats, noisy, clean = make_noisy_dataset(cfg_synth)
    cfg = small_cfg(seed=4, outer_epochs=2)
    reports = run_correction(cfg, features=feats, labels=noisy, clean=clean)
    assert (reports[-1].corrected == clean).mean() >= 0.99


def test_run_early_stop_breaks_on_stable_epoch():
    cfg_synth = SynthConfig(
        n_classes=3, per_class=50, dim=6, class_separation=6.0,
        noise_kind="none", rng_seed=5,
    )
    feats, noisy, clean = make_noisy_dataset(cfg_synth)
    cfg = small_cfg(seed=5, outer_epochs=6, early_stop=True)
    reports = run_correction(cfg, features=feats, labels=noisy, clean=clean)
    assert len(reports) < 6


def test_run_deterministic():
    feats, noisy, clean = noisy_blobs(seed=6, per_class=40)
    out = []
    for rep in range(2):
        reports = run_correction(
            small_cfg(seed=6), features=feats, labels=noisy, clean=clean
        )
        out.append(reports[-1])
    assert np.array_equal(out[0].corrected, out[1].corrected)
    assert np.array_equal(out[0].confidence, out[1].confidence)


def test_run_no_resplit_mode():
    feats, noisy, clean = noisy_blobs(seed=7, per_class=40)
    cfg = small_cfg(seed=7, resplit_each_epoch=False)
    reports = run_correction(cfg, features=feats, labels=noisy, clean=clean)
    assert len(reports) == 2


@pytest.mark.parametrize("resplit", [True, False])
def test_run_embeds_the_noisy_branch_only_for_a_resplit(monkeypatch, resplit):
    # each epoch embeds its M ensemble branches for the kNN graphs; the
    # noisy branch is embedded only right before a re-split reads it, so
    # not after the last epoch and not at all without re-splitting
    feats, noisy, clean = noisy_blobs(seed=7, per_class=40)
    calls = []
    embed = pipeline._embed

    def record_embed(model, features):
        calls.append(model)
        return embed(model, features)

    monkeypatch.setattr(pipeline, "_embed", record_embed)
    M, E = 3, 3
    cfg = small_cfg(seed=7, M=M, outer_epochs=E, resplit_each_epoch=resplit)
    run_correction(cfg, features=feats, labels=noisy, clean=clean)
    assert len(calls) == M * E + (E - 1 if resplit else 0)


def test_run_output_layout(tmp_path):
    feats, noisy, clean = noisy_blobs(seed=8, per_class=40)
    cfg = small_cfg(seed=8, dump_suggestions=True)
    run_correction(
        cfg, features=feats, labels=noisy, clean=clean, output_dir=str(tmp_path)
    )
    n = feats.n_samples
    for epoch in (1, 2):
        edir = tmp_path / ("epoch_%d" % epoch)
        report = load_report(str(edir / "report.txt"))
        assert report.epoch == epoch
        assert report.n_samples == n
        assert (edir / "corrected_model.bin").exists()
        assert (edir / "noisy_model.bin").exists()
        lines = (edir / "suggestions.txt").read_text().splitlines()
        header = 5
        assert len(lines) == header + 2 * 3 * 3 * n
        # on well-connected blob graphs nearly every propagation lands
        labels = np.array([int(l.split()[4]) for l in lines[header:]])
        assert (labels >= 0).mean() > 0.9
    final = tmp_path / "final" / "labels.csv"
    stored, nothing = load_label_columns(str(final))
    assert nothing is None
    report2 = load_report(str(tmp_path / "epoch_2" / "report.txt"))
    assert np.array_equal(stored, report2.corrected)
    assert (tmp_path / "final" / "corrected_model.bin").exists()


def test_epoch_one_solves_each_class_once(monkeypatch):
    feats, noisy, clean = noisy_blobs(seed=9, per_class=40, C=4)
    splits, calls, layouts = [], [], []
    split = pipeline.split_dataset
    cg = propagate._cg

    def record_split(*args, **kwargs):
        splits.append(split(*args, **kwargs))
        return splits[-1]

    def record_cg(W, b, cfg):
        # the solves run on a thread pool in no fixed order: key each call
        # by its graph and by the label set owning the block's first row
        first = np.flatnonzero(b.any(axis=1))[0]
        calls.append(((id(W), int(splits[0].branch_of[first])), b.shape[1]))
        layouts.append(b.flags.f_contiguous)
        return cg(W, b, cfg)

    monkeypatch.setattr(pipeline, "split_dataset", record_split)
    monkeypatch.setattr(propagate, "_cg", record_cg)
    M = 3
    run_correction(small_cfg(seed=9, M=M, outer_epochs=1), features=feats, labels=noisy)
    # both planes hold the same labels at epoch 1: one column per class
    # present in label set j, for every graph m
    present = [np.unique(noisy[splits[0].branch_of == j]).size for j in range(M)]
    assert min(present) >= 2
    widths = dict(calls)
    assert len(calls) == len(widths) == M * M
    assert len({graph for graph, _ in widths}) == M
    assert all(width == present[j] for (_, j), width in widths.items())
    # the solver gets the F-ordered slice flat[:, cols]; CG's reductions
    # sum in another order on a C-ordered block
    assert all(layouts)


def test_epoch_searches_every_graph_before_normalizing(monkeypatch):
    # all M kNN searches run first; then each A is replaced by its W, so
    # no normalization temporary is live during a search, and every A is
    # freed by the time the next graph is normalized.  No search runs
    # beside an earlier epoch's graphs or suggestions
    feats, noisy, clean = noisy_blobs(seed=9, per_class=40, C=4)
    events, built, normalized, suggested = [], [], [], []
    split, build, normalize, propagate_all = (
        pipeline.split_dataset,
        pipeline.build_adjacency,
        pipeline.normalize_graph,
        pipeline._propagate_all,
    )

    def record_split(*args, **kwargs):
        events.append("split")
        return split(*args, **kwargs)

    def record_build(*args, **kwargs):
        events.append("build")
        assert all(ref() is None for ref in normalized + suggested)
        A = build(*args, **kwargs)
        built.append(weakref.ref(A))
        return A

    def record_normalize(A):
        events.append("normalize")
        # this epoch's graphs before A are freed, A and those after live
        epoch = built[-M:]
        i = next(i for i, ref in enumerate(epoch) if ref() is A)
        assert [ref() is None for ref in epoch] == [True] * i + [False] * (M - i)
        W = normalize(A)
        normalized.append(weakref.ref(W))
        return W

    def record_propagate(*args):
        suggestions = propagate_all(*args)
        suggested.append(weakref.ref(suggestions))
        return suggestions

    monkeypatch.setattr(pipeline, "split_dataset", record_split)
    monkeypatch.setattr(pipeline, "build_adjacency", record_build)
    monkeypatch.setattr(pipeline, "normalize_graph", record_normalize)
    monkeypatch.setattr(pipeline, "_propagate_all", record_propagate)
    M = 3
    run_correction(small_cfg(seed=9, M=M, outer_epochs=2), features=feats, labels=noisy)
    assert events == (["split"] + ["build"] * M + ["normalize"] * M) * 2


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(pipeline, "_quota_cpus", lambda: None)
    if hasattr(os, "sched_getaffinity"):
        assert pipeline._usable_cpus() == len(os.sched_getaffinity(0))
    else:
        assert pipeline._usable_cpus() == os.cpu_count()
    monkeypatch.setattr(pipeline, "_quota_cpus", lambda: 1)
    assert pipeline._usable_cpus() == 1


@pytest.mark.parametrize(
    "files, cpus",
    [
        ({"cpu.max": "200000 100000\n"}, 2),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "5000 100000\n"}, 1),
        ({"cpu.max": "max 100000\n"}, None),
        # v2 takes precedence over v1
        ({"cpu.max": "max 100000\n", "cpu/cpu.cfs_quota_us": "100000\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "300000\n"}, None),
        ({"cpu.max": "garbage\n"}, None),
        ({"cpu.max": "100000 0\n"}, None),
        ({}, None),
    ],
)
def test_quota_cpus_read_the_cgroup_quota(tmp_path, monkeypatch, files, cpus):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(pipeline, "_CGROUP", str(tmp_path))
    assert pipeline._quota_cpus() == cpus


def record_thread_counts(monkeypatch):
    """What _thread_count returned for every epoch, in order."""
    counts, count = [], pipeline._thread_count

    def record(n_tasks):
        counts.append(count(n_tasks))
        return counts[-1]

    monkeypatch.setattr(pipeline, "_thread_count", record)
    return counts


def test_output_tree_does_not_depend_on_thread_count(cli_dataset, tmp_path, monkeypatch):
    root, feats, labels, _ = cli_dataset
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLI_CONFIG.replace("outer_epochs = 2", "outer_epochs = 3"))
    counts = record_thread_counts(monkeypatch)
    trees = []
    for cpus in (1, 4):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        out = tmp_path / ("cpus_%d" % cpus)
        # switch threads often, so that a write to another task's slice
        # would show in the tree
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            code = pipeline.main(
                [
                    "correct",
                    "--features", str(feats),
                    "--labels", str(labels),
                    "--out", str(out),
                    "--config", str(cfg),
                    "--dump-suggestions",
                ]
            )
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        trees.append(
            {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        )
    # min(usable CPUs, M*M) threads per epoch at M = 3
    assert counts == [1] * 3 + [4] * 3
    assert "epoch_3/suggestions.txt" in trees[0]
    assert trees[0] == trees[1]


def test_run_leaves_no_pool_thread_running(monkeypatch):
    feats, noisy, clean = noisy_blobs(seed=4, per_class=30, C=3)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    before = threading.enumerate()
    run_correction(small_cfg(seed=4, outer_epochs=2), features=feats, labels=noisy)
    assert threading.enumerate() == before


@pytest.mark.parametrize("cpus, M", [(1, 2), (4, 3), (16, 3)])
def test_solves_run_on_min_cpus_and_pairs_threads_at_once(monkeypatch, cpus, M):
    feats, noisy, clean = noisy_blobs(seed=4, per_class=30, C=3)
    threads = min(cpus, M * M)
    # each thread's first solve waits until `threads` threads have come
    barrier = threading.Barrier(threads, timeout=30)
    seen, cg = set(), propagate._cg

    def meet_cg(W, b, cfg):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        return cg(W, b, cfg)

    monkeypatch.setattr(propagate, "_cg", meet_cg)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    run_correction(small_cfg(seed=4, M=M, outer_epochs=1), features=feats, labels=noisy)
    # the calling thread is one of them
    assert len(seen) == threads
    assert threading.get_ident() in seen


def test_step5_runs_on_the_calling_thread_once_a_function_is_replaced(monkeypatch):
    feats, noisy, clean = noisy_blobs(seed=4, per_class=30, C=3)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    M = 3
    counts = record_thread_counts(monkeypatch)
    for module, name in [
        (pipeline, "solve_propagation"),
        (pipeline, "suggest_labels"),
        (pipeline, "certainty_weights"),
        (propagate.accel, "make_csr_matvec"),
    ]:
        idents, own = [], getattr(module, name)

        def wrapper(*args, own=own, idents=idents):
            idents.append(threading.get_ident())
            return own(*args)

        with monkeypatch.context() as patch:
            patch.setattr(module, name, wrapper)
            run_correction(small_cfg(seed=4, M=M, outer_epochs=1), features=feats, labels=noisy)
        assert len(idents) >= M * M
        assert set(idents) == {threading.get_ident()}, name
    # and with every function graphmend's own, the helpers are back
    run_correction(small_cfg(seed=4, M=M, outer_epochs=1), features=feats, labels=noisy)
    assert counts == [1, 1, 1, 1, 4]


@pytest.mark.parametrize("cpus", [1, 4])
def test_first_failing_pair_in_serial_order_raises(monkeypatch, cpus):
    feats, noisy, clean = noisy_blobs(seed=9, per_class=40, C=4)
    splits, graphs = [], []
    split, normalize, cg = pipeline.split_dataset, pipeline.normalize_graph, propagate._cg

    def record_split(*args, **kwargs):
        splits.append(split(*args, **kwargs))
        return splits[-1]

    def record_graph(A):
        graphs.append(normalize(A))
        return graphs[-1]

    def failing_cg(W, b, cfg):
        m = [id(g) for g in graphs].index(id(W))
        j = int(splits[0].branch_of[np.flatnonzero(b.any(axis=1))[0]])
        if (m, j) == (0, 1):
            # fail after (1, 0) has failed, where the two run at once
            time.sleep(0.05)
            raise SolverError("pair (0, 1) failed")
        if (m, j) == (1, 0):
            raise SolverError("pair (1, 0) failed")
        return cg(W, b, cfg)

    monkeypatch.setattr(pipeline, "split_dataset", record_split)
    monkeypatch.setattr(pipeline, "normalize_graph", record_graph)
    monkeypatch.setattr(propagate, "_cg", failing_cg)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    before = threading.enumerate()
    with pytest.raises(SolverError, match=r"^pair \(0, 1\) failed$"):
        run_correction(small_cfg(seed=9, M=3, outer_epochs=1), features=feats, labels=noisy)
    assert threading.enumerate() == before


@pytest.mark.parametrize("cpus", [1, 4])
def test_no_thread_takes_a_pair_after_a_failure(monkeypatch, cpus):
    feats, noisy, clean = noisy_blobs(seed=9, per_class=40, C=4)
    calls = []

    def failing_cg(W, b, cfg):
        calls.append(threading.get_ident())
        raise SolverError("solve %d failed" % len(calls))

    monkeypatch.setattr(propagate, "_cg", failing_cg)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    with pytest.raises(SolverError):
        run_correction(small_cfg(seed=9, M=3, outer_epochs=1), features=feats, labels=noisy)
    # every solve fails, so each thread fails its first pair and stops
    assert 1 <= len(calls) <= cpus
    assert len(set(calls)) == len(calls)


def test_two_epoch_run_equals_run_without_dedup(monkeypatch, tmp_path):
    feats, noisy, clean = noisy_blobs(seed=10, per_class=40, C=4)
    cfg = small_cfg(seed=10, dump_suggestions=True)
    run_correction(cfg, features=feats, labels=noisy, output_dir=str(tmp_path / "dedup"))
    monkeypatch.setattr(
        propagate, "_distinct_columns", lambda flat, live: (live, np.arange(live.size))
    )
    run_correction(cfg, features=feats, labels=noisy, output_dir=str(tmp_path / "every"))
    dedup, every = (
        {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}
        for root in (tmp_path / "dedup", tmp_path / "every")
    )
    assert "epoch_2/suggestions.txt" in dedup
    assert dedup == every


def save_suggestions_reference(path, suggestions):
    """The per-element writer that save_suggestions replaced."""
    with open(path, "w") as fh:
        fh.write("MLCT v1\n")
        fh.write(
            "n_branches %d\nn_samples %d\nn_classes %d\n"
            % (suggestions.n_branches, suggestions.n_samples, suggestions.n_classes)
        )
        fh.write("columns m j sample plane label weight\n")
        M, n = suggestions.n_branches, suggestions.n_samples
        for m in range(M):
            for j in range(M):
                for i in range(n):
                    for q in range(2):
                        fh.write(
                            "%d %d %d %d %d %s\n"
                            % (
                                m,
                                j,
                                i,
                                q,
                                suggestions.labels[m, j, i, q],
                                repr(float(suggestions.weights[m, j, i, q])),
                            )
                        )


def hand_built_suggestions(M, n, C=4):
    rng = np.random.default_rng(M * 100 + n + C)
    labels = rng.integers(NO_SUGGESTION, C, size=(M, M, n, 2))
    # a few distinct values, so most weights repeat within a block
    weights = rng.choice([0.0, -0.0, 0.5, 1.0, rng.uniform()], size=(M, M, n, 2))
    weights[:, :, ::2] = rng.uniform(0.0, 1.0, size=weights[:, :, ::2].shape)
    # equal planes, as at epoch 1
    labels[:, :, 1::3, 1] = labels[:, :, 1::3, 0]
    weights[:, :, 1::3, 1] = weights[:, :, 1::3, 0]
    labels.reshape(-1)[0] = NO_SUGGESTION
    # 0.0, 1.0, the smallest subnormal, a weight whose repr needs 17
    # digits, and -0.0 next to 0.0
    special = [0.0, 1.0, 5e-324, 0.1 + 0.2, -0.0, 0.0][: weights.size]
    weights.reshape(-1)[: len(special)] = special
    return SuggestionTensor(labels, weights, C)


@pytest.mark.parametrize(
    "M, n, C",
    [
        pytest.param(1, 1, 4, id="1-1"),
        pytest.param(3, 7, 4, id="3-7"),
        pytest.param(2, 40, 16, id="2-40-16"),
    ],
)
def test_save_suggestions_equals_reference_writer(tmp_path, M, n, C):
    sug = hand_built_suggestions(M, n, C)
    assert repr(0.1 + 0.2) == "0.30000000000000004"
    save_suggestions(str(tmp_path / "new.txt"), sug)
    save_suggestions_reference(str(tmp_path / "ref.txt"), sug)
    got = (tmp_path / "new.txt").read_bytes()
    assert got == (tmp_path / "ref.txt").read_bytes()
    assert len(got.splitlines()) == 5 + 2 * M * M * n
    assert b" -1 " in got
    if n > 1:
        assert b" -0.0\n" in got and b" 0.0\n" in got


def test_save_suggestions_without_samples(tmp_path):
    empty = np.zeros((2, 2, 0, 2))
    sug = SuggestionTensor(empty.astype(np.int64), empty, 3)
    save_suggestions(str(tmp_path / "new.txt"), sug)
    save_suggestions_reference(str(tmp_path / "ref.txt"), sug)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_two_epoch_dump_equals_reference_writer_and_layout(monkeypatch, tmp_path):
    feats, noisy, clean = noisy_blobs(seed=11, per_class=40, C=4)
    cfg = small_cfg(seed=11, dump_suggestions=True)
    run_correction(cfg, features=feats, labels=noisy, output_dir=str(tmp_path / "new"))
    # the parent path: C-ordered Z, CG iterates laid out like b, and the
    # per-element writer
    solve = pipeline.solve_propagation
    monkeypatch.setattr(
        pipeline, "solve_propagation", lambda W, Y, c: np.ascontiguousarray(solve(W, Y, c))
    )
    monkeypatch.setattr(propagate, "_cg", cg_reference)
    monkeypatch.setattr(pipeline, "save_suggestions", save_suggestions_reference)
    run_correction(cfg, features=feats, labels=noisy, output_dir=str(tmp_path / "ref"))
    new, ref = (
        {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}
        for root in (tmp_path / "new", tmp_path / "ref")
    )
    assert "epoch_2/suggestions.txt" in new
    assert new == ref


def test_run_config_echo(tmp_path):
    feats, noisy, clean = noisy_blobs(seed=9, per_class=40)
    cfg = small_cfg(seed=9)
    run_correction(
        cfg, features=feats, labels=noisy, clean=clean, output_dir=str(tmp_path)
    )
    echoed = parse_config_file(str(tmp_path / "run_config.txt"))
    assert echoed["n_branches"] == 3
    assert echoed["packages_per_class_per_branch"] == 2
    assert echoed["k_graph"] == 6
    assert echoed["alpha_prop"] == 0.9
    assert echoed["seed"] == 9
    assert echoed["resplit_each_epoch"] is True
    # the echo is a complete config: rebuilt and echoed again, it is unchanged
    assert list(echoed) == list(CONFIG_KEYS)
    again = tmp_path / "again.txt"
    _write_run_config(str(again), build_config(echoed))
    assert again.read_bytes() == (tmp_path / "run_config.txt").read_bytes()


def test_run_config_round_trips_every_key(tmp_path):
    cfg = PipelineConfig(
        split=SplitConfig(7, 3),
        graph=GraphConfig(k_graph=9, gamma=2.5),
        prop=PropagationConfig(alpha_prop=0.8, cg_tolerance=1e-9, cg_max_iters=77),
        train=TrainConfig(
            learning_rate=0.03,
            momentum=0.5,
            lr_decay=0.3,
            lr_decay_every=2,
            batch_size=16,
            l2_weight=0.0,
            hidden_width=8,
            alpha_smooth=0.1 + 0.2,
            pair_sample_count=33,
        ),
        outer_epochs=4,
        resplit_each_epoch=False,
        seed=12345,
    )
    default = PipelineConfig()
    for key, (section, _) in CONFIG_KEYS.items():
        got, want = (
            getattr(c if section is None else getattr(c, section), key)
            for c in (cfg, default)
        )
        assert got != want, key
    path = tmp_path / "run_config.txt"
    _write_run_config(str(path), cfg)
    assert build_config(parse_config_file(str(path))) == cfg


def test_config_dataclasses_hold_29_scalar_settings():
    classes = (*SECTIONS.values(), PipelineConfig, SynthConfig)
    scalars = [
        field.name
        for cls in classes
        for field in dataclasses.fields(cls)
        if field.name not in SECTIONS
    ]
    assert len(scalars) == 29
    assert [key for key in scalars if key not in CONFIG_KEYS] == [
        "rng_seed",
        "dump_suggestions",
        "early_stop",
        *(field.name for field in dataclasses.fields(SynthConfig)),
    ]


def test_config_fields_cast_to_declared_types():
    assert type(TrainConfig(hidden_width=16.0).hidden_width) is int
    assert type(GraphConfig(gamma=3).gamma) is float
    assert PipelineConfig(resplit_each_epoch=0).resplit_each_epoch is False


def test_run_requires_small_k_graph():
    feats = FeatureMatrix(np.random.default_rng(0).standard_normal((10, 3)))
    labels = np.repeat([0, 1], 5)
    cfg = small_cfg()
    cfg.graph = GraphConfig(k_graph=10)
    with pytest.raises(ValidationError):
        run_correction(cfg, features=feats, labels=labels)


def fail_on_call(*args, **kwargs):
    raise AssertionError("the run went past its input checks")


@pytest.mark.parametrize(
    "labels, clean, M, match",
    [
        (np.zeros(10, dtype=np.int64), None, 3,
         "labels hold 1 class; correction needs at least 2"),
        (np.repeat([0, 1], 5), None, 11, "n_branches 11 exceeds the sample count 10"),
        (np.repeat([0, 1], 5), np.repeat([0, 1], 5)[:-1], 2,
         "label arrays differ in length"),
    ],
    ids=["single-class", "branches-above-samples", "clean-shorter-than-labels"],
)
def test_run_rejects_bad_inputs_before_any_model(monkeypatch, labels, clean, M, match):
    monkeypatch.setattr(pipeline, "init_model", fail_on_call)
    monkeypatch.setattr(pipeline, "train_epoch", fail_on_call)
    feats = FeatureMatrix(np.random.default_rng(0).standard_normal((10, 3)))
    cfg = small_cfg(M=M)
    cfg.graph = GraphConfig(k_graph=3)
    with pytest.raises(ValidationError, match=match):
        run_correction(cfg, features=feats, labels=labels, clean=clean)


def test_absent_class_is_rejected_before_any_model_or_file(monkeypatch, tmp_path, capsys):
    # class ids {0, 49999} would size every model for 50,000 classes
    monkeypatch.setattr(pipeline, "init_model", fail_on_call)
    feats, labels, out = tmp_path / "f.bin", tmp_path / "l.csv", tmp_path / "out"
    rows = np.random.default_rng(0).standard_normal((120, 3)).astype(np.float32)
    save_features(str(feats), FeatureMatrix(rows))
    save_labels(str(labels), np.repeat([0, 49999], 60))
    code = pipeline.main(
        ["correct", "--features", str(feats), "--labels", str(labels), "--out", str(out)]
    )
    assert code == 11
    assert capsys.readouterr().err == "error: class 1 has no samples\n"
    assert not out.exists()


def test_run_rejects_missing_inputs():
    with pytest.raises(ValidationError):
        run_correction(small_cfg())


def test_sweep_rows_sorted_and_written(tmp_path):
    feats, noisy, clean = noisy_blobs(seed=10, per_class=30)
    cfg = small_cfg(seed=10, M=2, B=1, outer_epochs=1)
    rows = run_sweep(
        cfg, [2, 1], [1],
        features=feats, labels=noisy, clean=clean, output_dir=str(tmp_path),
    )
    assert [(r[0], r[1]) for r in rows] == [(1, 1), (2, 1)]
    assert all(isinstance(r[2], float) for r in rows)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "M,B,correction_accuracy,residual_noise_rate"
    assert len(lines) == 3
    assert (tmp_path / "sweep_M1_B1" / "final" / "labels.csv").exists()
    assert (tmp_path / "sweep_M2_B1" / "final" / "labels.csv").exists()


def test_sweep_runs_each_distinct_cell_once(tmp_path):
    feats, noisy, clean = noisy_blobs(seed=10, per_class=30)
    cfg = small_cfg(seed=10, M=2, B=1, outer_epochs=1)
    rows = run_sweep(
        cfg, [1, 1], [2, 1, 2],
        features=feats, labels=noisy, clean=clean, output_dir=str(tmp_path),
    )
    assert [(r[0], r[1]) for r in rows] == [(1, 1), (1, 2)]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "1"], ["1", "2"]]


def test_sweep_keeps_dump_suggestions(tmp_path):
    feats, noisy, clean = noisy_blobs(seed=11, per_class=30)
    cfg = small_cfg(seed=11, M=2, B=1, outer_epochs=1, dump_suggestions=True)
    run_sweep(
        cfg, [1, 2], [1],
        features=feats, labels=noisy, clean=clean, output_dir=str(tmp_path),
    )
    for cell in ("sweep_M1_B1", "sweep_M2_B1"):
        assert (tmp_path / cell / "epoch_1" / "suggestions.txt").exists(), cell


def test_sweep_requires_grid():
    for sweep_m, sweep_b in (([], [1]), ([1], [])):
        with pytest.raises(ValidationError, match="nonempty"):
            run_sweep(small_cfg(), sweep_m, sweep_b, features=None, labels=None)


def test_parse_config_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "n_branches = 4\n"
        "gamma = 2.5   # trailing comment\n"
        "resplit_each_epoch = false\n"
        "seed = 3\n"
        "\n"
    )
    values = parse_config_file(str(path))
    assert values == {
        "n_branches": 4,
        "gamma": 2.5,
        "resplit_each_epoch": False,
        "seed": 3,
    }


def test_parse_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_branches = 4\nwibble = 2\n")
    with pytest.raises(ValidationError, match="row 2"):
        parse_config_file(str(path))


def test_parse_config_file_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k_graph = soon\n")
    with pytest.raises(ValidationError, match="row 1"):
        parse_config_file(str(path))


def test_parse_config_file_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k_graph 12\n")
    with pytest.raises(ValidationError, match="row 1"):
        parse_config_file(str(path))


def test_int64_parser_bounds():
    assert pipeline.int64(" %d " % (2**63 - 1)) == 2**63 - 1
    assert pipeline.int64("%d" % -2**63) == -2**63
    for text in ("%d" % 2**63, "%d" % (-2**63 - 1), "1" + "0" * 20):
        with pytest.raises(ValueError, match="outside int64"):
            pipeline.int64(text)


@pytest.mark.parametrize("key", ["hidden_width", "pair_sample_count", "n_branches"])
def test_config_int_beyond_int64_names_row(tmp_path, key):
    section = CONFIG_KEYS[key][0]
    path = tmp_path / "run.cfg"
    path.write_text("k_graph = 6\n%s = %d\n" % (key, 2**63 - 1))
    cfg = build_config(parse_config_file(str(path)))
    assert getattr(getattr(cfg, section), key) == 2**63 - 1
    path.write_text("k_graph = 6\n%s = %d\n" % (key, 10**20))
    with pytest.raises(ValidationError, match=r"%s.*\(row 2\)" % key):
        parse_config_file(str(path))


def config_variants(blob):
    """Every proper prefix of `blob`, then `blob` with each byte replaced
    by 0x00, 0xff, '=', '#' and a newline."""
    prefixes = [blob[:size] for size in range(len(blob))]
    replaced = [
        blob[:at] + value + blob[at + 1:]
        for at in range(len(blob))
        for value in (b"\x00", b"\xff", b"=", b"#", b"\n")
    ]
    return prefixes + replaced


def test_config_file_truncated_or_replaced_raise_only_package_errors(tmp_path):
    path = tmp_path / "run.cfg"
    cut = tmp_path / "cut.cfg"
    _write_run_config(str(path), small_cfg(seed=3))
    for variant in config_variants(path.read_bytes()):
        cut.write_bytes(variant)
        try:
            build_config(parse_config_file(str(cut)))
        except GraphmendError:
            pass


def test_build_config_defaults():
    cfg = build_config({})
    assert cfg.split.n_branches == 5
    assert cfg.split.packages_per_class_per_branch == 4
    assert cfg.graph.k_graph == 50
    assert cfg.graph.gamma == 3.0
    assert cfg.prop.alpha_prop == 0.99
    assert cfg.prop.cg_tolerance == 1e-6
    assert cfg.prop.cg_max_iters == 200
    assert cfg.train.learning_rate == 0.01
    assert cfg.train.momentum == 0.9
    assert cfg.train.lr_decay == 0.1
    assert cfg.train.batch_size == 64
    assert cfg.train.l2_weight == 5e-3
    assert cfg.train.hidden_width == 64
    assert cfg.train.alpha_smooth == 1.0
    assert cfg.train.pair_sample_count == 256
    assert cfg.outer_epochs == 15
    assert cfg.resplit_each_epoch is True


def test_build_config_rejects_unknown_key():
    with pytest.raises(ValidationError, match="wibble"):
        build_config({"wibble": 15})


FLOAT_FIELDS = [
    (section, key)
    for key, (section, kind) in CONFIG_KEYS.items()
    if kind is float and section in ("graph", "prop", "train")
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "section, key", FLOAT_FIELDS, ids=[key for _, key in FLOAT_FIELDS]
)
def test_config_constructors_reject_non_finite(section, key, value):
    with pytest.raises(ValidationError, match="%s must be finite" % key):
        SECTIONS[section](**{key: value})


def readme_config_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default, _ = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((key, default))
    return rows


def test_readme_config_table_matches_code():
    rows = readme_config_table()
    assert [key for key, _ in rows] == list(CONFIG_KEYS)
    cfg = build_config({})
    for key, default in rows:
        section, kind = CONFIG_KEYS[key]
        want = getattr(cfg if section is None else getattr(cfg, section), key)
        got = PARSERS[kind](default)
        assert got == want and type(got) is type(want), key


def test_readme_names_and_paths_exist():
    # every backticked graphmend name resolves, and every backticked
    # repository path exists; the benchmark's metric names are not names
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        metrics = {metric["name"] for metric in json.load(fh)["per_layer"]}
    fence = re.compile(r"^```.*?^```", flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", fence.sub("", text)) + fence.findall(text)
    modules = {info.name for info in pkgutil.iter_modules(graphmend.__path__)}
    names = [
        span.split(".") for span in spans
        if re.fullmatch(r"\w+(\.\w+)+", span) and span.split(".")[0] in modules
        and span not in metrics
    ]
    for module, *attrs in names:
        if attrs == ["py"]:
            assert os.path.exists(os.path.join(root, "src", "graphmend", module + ".py"))
            continue
        obj = importlib.import_module("graphmend." + module)
        for attr in attrs:
            assert hasattr(obj, attr), ".".join([module, *attrs])
            obj = getattr(obj, attr)
    paths = re.findall(
        r"(?<![\w/.-])(?:src|tests|\.github|perfbench)/[\w./-]*\w", "\n".join(spans)
    )
    missing = [path for path in paths if not os.path.exists(os.path.join(root, path))]
    assert paths and not missing, missing


# ------------------------------------------------------------- CLI


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "graphmend"] + args,
        capture_output=True,
        text=True,
        cwd=cwd,
    )


CLI_CONFIG = (
    "n_branches = 3\n"
    "packages_per_class_per_branch = 2\n"
    "k_graph = 6\n"
    "alpha_prop = 0.9\n"
    "hidden_width = 16\n"
    "batch_size = 32\n"
    "pair_sample_count = 64\n"
    "outer_epochs = 2\n"
)


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    feats = root / "feats.bin"
    labels = root / "labels.csv"
    proc = run_cli(
        [
            "synth",
            "--out-features", str(feats),
            "--out-labels", str(labels),
            "--classes", "3",
            "--per-class", "40",
            "--dim", "6",
            "--separation", "4.0",
            "--noise-rate", "0.25",
            "--noise-kind", "uniform",
            "--seed", "12",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    cfg = root / "run.cfg"
    cfg.write_text(CLI_CONFIG)
    return root, feats, labels, cfg


def test_cli_synth_output_loadable(cli_dataset):
    root, feats, labels, cfg = cli_dataset
    fm = load_features(str(feats))
    noisy, clean = load_label_columns(str(labels))
    assert fm.n_samples == 120 and fm.dim == 6
    assert clean is not None
    assert (noisy != clean).sum() == 30


def test_cli_correct_and_eval(cli_dataset):
    root, feats, labels, cfg = cli_dataset
    out = root / "run1"
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(out),
            "--config", str(cfg),
            "--seed", "12",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["epochs_run"] == 2
    assert "correction_accuracy" in line
    assert (out / "final" / "labels.csv").exists()

    proc = run_cli(
        [
            "eval",
            "--labels", str(labels),
            "--corrected", str(out / "final" / "labels.csv"),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip())
    noisy, clean = load_label_columns(str(labels))
    corrected, _ = load_label_columns(str(out / "final" / "labels.csv"))
    want = evaluate(noisy, corrected, clean)
    assert metrics == pytest.approx(want)


def test_cli_byte_identical_reruns(cli_dataset):
    root, feats, labels, cfg = cli_dataset
    outs = []
    for name in ("rep_a", "rep_b"):
        out = root / name
        proc = run_cli(
            [
                "correct",
                "--features", str(feats),
                "--labels", str(labels),
                "--out", str(out),
                "--config", str(cfg),
                "--seed", "77",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for rel in ("epoch_1/report.txt", "epoch_2/report.txt", "final/labels.csv"):
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, rel


def test_run_class_count_comes_from_noisy_labels():
    # a clean column may hold a class the noisy labels lack; it only scores
    feats, noisy, clean = noisy_blobs(seed=13, per_class=30)
    clean = clean.copy()
    clean[0] = 3
    cfg = small_cfg(seed=13)
    scored = run_correction(cfg, features=feats, labels=noisy, clean=clean)
    plain = run_correction(cfg, features=feats, labels=noisy)
    assert len(scored) == len(plain)
    for a, b in zip(scored, plain):
        assert a.correction_accuracy is not None
        assert np.array_equal(a.corrected, b.corrected)
        assert np.array_equal(a.confidence, b.confidence)


def test_cli_correct_prints_the_final_summary(cli_dataset, tmp_path):
    root, feats, labels, cfg = cli_dataset
    noisy, clean = load_label_columns(str(labels))
    clean[0] = noisy.max() + 1
    extra = tmp_path / "extra.csv"
    save_labels(str(extra), noisy, clean)
    out = tmp_path / "run"
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(extra),
            "--out", str(out),
            "--config", str(cfg),
            "--seed", "12",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    final = load_report(str(out / "epoch_2" / "report.txt"))
    assert line == {"epochs_run": 2, **final.summary()}


def test_cli_split_dump(cli_dataset):
    root, feats, labels, cfg = cli_dataset
    out = root / "split.txt"
    proc = run_cli(
        [
            "split",
            "--features", str(feats),
            "--labels", str(labels),
            "--branches", "3",
            "--packages", "2",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "MLCS v1"
    assert lines[1] == "n_samples 120"
    assert lines[2] == "n_branches 3"
    records = [tuple(int(v) for v in l.split()) for l in lines[5:]]
    assert len(records) == 120
    assert sorted(r[0] for r in records) == list(range(120))
    branches = {r[1] for r in records}
    assert branches <= {0, 1, 2}


def save_split_table_reference(path, assignment):
    """The per-element split-table writer that _cmd_split replaced, kept
    as the byte-exact reference for it."""
    with open(path, "w") as fh:
        fh.write("MLCS v1\n")
        fh.write(
            "n_samples %d\nn_branches %d\nn_packages %d\n"
            % (assignment.n_samples, assignment.n_branches, len(assignment.packages))
        )
        fh.write("columns index branch package\n")
        for i in range(assignment.n_samples):
            fh.write(
                "%d %d %d\n" % (i, assignment.branch_of[i], assignment.package_of[i])
            )


def test_cli_split_table_equals_reference_writer(cli_dataset, tmp_path):
    root, feats, labels, _ = cli_dataset
    out = tmp_path / "split.txt"
    args = ["split", "--features", str(feats), "--labels", str(labels)]
    proc = run_cli(args + ["--branches", "3", "--packages", "2", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    noisy, _ = load_label_columns(str(labels))
    assignment = split_dataset(load_features(str(feats)), noisy, SplitConfig(3, 2, 0))
    want = tmp_path / "want.txt"
    save_split_table_reference(want, assignment)
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("branches", [121, 10**18])
def test_cli_split_rejects_more_branches_than_samples(cli_dataset, tmp_path, branches):
    root, feats, labels, _ = cli_dataset
    out = tmp_path / "split.txt"
    args = ["split", "--features", str(feats), "--labels", str(labels)]
    proc = run_cli(args + ["--branches", "%d" % branches, "--out", str(out)])
    assert proc.returncode == 11, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "n_branches %d exceeds the sample count 120" % branches in proc.stderr
    assert not out.exists()


def subcommands():
    parser = make_parser()
    return next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def test_cli_synth_and_split_defaults_are_the_config_defaults():
    synth = subcommands()["synth"]
    args = synth.parse_args(["--out-features", "f", "--out-labels", "l"])
    got = SynthConfig(
        args.classes, args.per_class, args.dim, args.separation,
        args.noise_rate, args.noise_kind, args.seed,
    )
    assert got == SynthConfig()
    assert tuple(synth._option_string_actions["--noise-kind"].choices) == NOISE_KINDS
    args = subcommands()["split"].parse_args(
        ["--features", "f", "--labels", "l", "--out", "o"]
    )
    assert SplitConfig(args.branches, args.packages, args.seed) == SplitConfig()


def test_cli_sweep(cli_dataset):
    root, feats, labels, cfg = cli_dataset
    out = root / "sweep"
    proc = run_cli(
        [
            "sweep",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(out),
            "--config", str(cfg),
            "--seed", "12",
            "--sweep-m", "2,1",
            "--sweep-b", "1",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    stdout = proc.stdout.strip().splitlines()
    assert stdout[0].startswith("M=1 B=1")
    assert stdout[1].startswith("M=2 B=1")
    assert (out / "sweep.csv").exists()


def test_cli_missing_file_exit_code(tmp_path):
    proc = run_cli(
        [
            "correct",
            "--features", str(tmp_path / "nope.bin"),
            "--labels", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_cli_bad_magic_exit_code(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 12)
    labels = tmp_path / "l.csv"
    labels.write_text("0\n")
    proc = run_cli(
        [
            "correct",
            "--features", str(bad),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert proc.returncode == 10


def test_cli_truncated_features_exit_code(tmp_path):
    feats = tmp_path / "f.bin"
    save_features(str(feats), FeatureMatrix(np.ones((3, 2), dtype=np.float32)))
    feats.write_bytes(feats.read_bytes()[:-3])
    labels = tmp_path / "l.csv"
    labels.write_text("0\n1\n1\n")
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert proc.returncode == 10, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "payload" in proc.stderr


def test_cli_invalid_labels_exit_code(tmp_path):
    feats = tmp_path / "f.bin"
    save_features(str(feats), FeatureMatrix(np.ones((3, 2), dtype=np.float32)))
    labels = tmp_path / "l.csv"
    labels.write_text("0\n-2\n1\n")
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert proc.returncode == 11


@pytest.mark.parametrize(
    "content, code, named",
    [
        (b"0\n1\n\xff\n", 10, "row 3"),
        (b"0\n99999999999999999999\n1\n", 11, "(row 2)"),
    ],
    ids=["not-utf8", "beyond-int64"],
)
@pytest.mark.parametrize("command", ["correct", "eval"])
def test_cli_bad_label_file_exit_code(tmp_path, command, content, code, named):
    labels = tmp_path / "l.csv"
    labels.write_bytes(content)
    if command == "correct":
        feats = tmp_path / "f.bin"
        save_features(str(feats), FeatureMatrix(np.ones((3, 2), dtype=np.float32)))
        args = ["--features", str(feats), "--labels", str(labels)]
        args += ["--out", str(tmp_path / "out")]
    else:
        good = tmp_path / "good.csv"
        good.write_text("0\n1\n1\n")
        args = ["--labels", str(labels), "--corrected", str(good)]
    proc = run_cli([command] + args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


def test_cli_diverging_run_exit_code(cli_dataset, tmp_path):
    root, feats, labels, _ = cli_dataset
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(CLI_CONFIG + "learning_rate = 1e10\n")
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        ]
    )
    assert proc.returncode == 13, proc.stderr


def test_cli_diverging_run_prints_only_its_error_line(cli_dataset, tmp_path):
    # the first step at 1e308 overflows the parameters; numpy stays silent
    root, feats, labels, _ = cli_dataset
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(CLI_CONFIG + "learning_rate = 1e308\n")
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        ]
    )
    assert proc.returncode == 13, proc.stderr
    assert proc.stderr == "error: non-finite corrected-branch loss at step 1\n"


def test_cli_model_too_large_exit_code(cli_dataset, tmp_path):
    # 10**15 hidden units fail to allocate before any page is touched
    root, feats, labels, _ = cli_dataset
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(CLI_CONFIG.replace("hidden_width = 16", "hidden_width = %d" % 10**15))
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        ]
    )
    assert proc.returncode == 11, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "parameters, too many to allocate" in proc.stderr


def test_main_pair_sample_count_too_large_exit_code(cli_dataset, tmp_path, capsys):
    # 2**62 pairs exceed numpy's largest array, so the draw fails before
    # any page is touched
    root, feats, labels, _ = cli_dataset
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        CLI_CONFIG.replace("pair_sample_count = 64", "pair_sample_count = %d" % 2**62)
    )
    code = pipeline.main(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        ]
    )
    assert code == 11
    assert "pair_sample_count %d: too many pairs" % 2**62 in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, row",
    [
        (b"cg_tolerance = nan\n", 1),
        (b"cg_tolerance = inf\n", 1),
        (b"gamma = nan\n", 1),
        (b"k_graph = 6\n# caf\xe9\n", 2),
        (b"k_graph = 6\nhidden_width = 100000000000000000000\n", 2),
        (b"pair_sample_count = 100000000000000000000\n", 1),
    ],
    ids=[
        "cg_tolerance-nan", "cg_tolerance-inf", "gamma-nan", "not-utf8",
        "hidden_width-beyond-int64", "pair_sample_count-beyond-int64",
    ],
)
def test_cli_bad_config_exit_code(cli_dataset, tmp_path, content, row):
    root, feats, labels, _ = cli_dataset
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content)
    proc = run_cli(
        [
            "correct",
            "--features", str(feats),
            "--labels", str(labels),
            "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        ]
    )
    assert proc.returncode == 11, proc.stderr
    assert "(row %d)" % row in proc.stderr


@pytest.mark.parametrize(
    "args, item",
    [
        (["sweep", "--sweep-m", "1,x", "--sweep-b", "1"], "'x'"),
        (["sweep", "--sweep-m", "1", "--sweep-b", "2.5"], "'2.5'"),
        (["synth", "--noise-kind", "asymmetric", "--mapping", "0-1"], "'0-1'"),
        (["synth", "--noise-kind", "asymmetric", "--mapping", "0:1,1:b"], "'b'"),
        (["sweep", "--sweep-m", "1,%d" % 10**20, "--sweep-b", "1"], "'%d'" % 10**20),
        (["sweep", "--sweep-m", "1", "--sweep-b", "%d" % 10**20], "'%d'" % 10**20),
    ],
    ids=[
        "sweep-m", "sweep-b", "mapping-no-colon", "mapping-bad-target",
        "sweep-m-beyond-int64", "sweep-b-beyond-int64",
    ],
)
def test_cli_bad_list_exit_code(cli_dataset, tmp_path, args, item):
    root, feats, labels, _ = cli_dataset
    if args[0] == "sweep":
        args += ["--features", str(feats), "--labels", str(labels)]
        args += ["--out", str(tmp_path / "out")]
    else:
        args += ["--out-features", str(tmp_path / "f.bin")]
        args += ["--out-labels", str(tmp_path / "l.csv")]
    proc = run_cli(args)
    assert proc.returncode == 11, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "bad item %s" % item in proc.stderr


def test_cli_usage_error_exit_code():
    proc = run_cli([])
    assert proc.returncode == 2


def test_cli_oracle_route_is_gone(cli_dataset, tmp_path):
    root, feats, labels, _ = cli_dataset
    inputs = ["--features", str(feats), "--labels", str(labels)]
    for command in ("correct", "sweep"):
        proc = run_cli([command, *inputs, "--out", str(tmp_path / command), "--oracle"])
        assert proc.returncode == 2, (command, proc.stderr)
    # keys of earlier versions that no longer change a run
    for key, value in [
        ("oracle_iters", "10"),
        ("rng_seed", "3"),
        ("n_classes", "3"),
        ("sweep_m", "1,3"),
        ("sweep_b", "2"),
    ]:
        cfg = tmp_path / ("old_%s.cfg" % key)
        cfg.write_text("k_graph = 6\n%s = %s\n" % (key, value))
        out = str(tmp_path / ("o_" + key))
        proc = run_cli(["correct", *inputs, "--out", out, "--config", str(cfg)])
        assert proc.returncode == 11, (key, proc.stderr)
        assert "unknown config key %r (row 2)" % key in proc.stderr


@pytest.mark.parametrize("missing", ["--sweep-m", "--sweep-b"])
def test_cli_sweep_requires_both_grids(cli_dataset, tmp_path, missing):
    root, feats, labels, cfg = cli_dataset
    grids = {"--sweep-m": "1", "--sweep-b": "1"}
    del grids[missing]
    args = ["sweep", "--features", str(feats), "--labels", str(labels)]
    args += ["--out", str(tmp_path / "out"), "--config", str(cfg)]
    proc = run_cli(args + [item for pair in grids.items() for item in pair])
    assert proc.returncode == 2, proc.stderr
    assert missing in proc.stderr
    assert not (tmp_path / "out").exists()


SYNTH_SMALL = ["synth", "--classes", "3", "--per-class", "20"]


@pytest.mark.parametrize(
    "args, named",
    [
        (["--noise-kind", "asymmetric", "--mapping", "0:99"], "0:99"),
        (["--noise-kind", "asymmetric", "--mapping", "7:1"], "7:1"),
        (["--noise-kind", "asymmetric", "--noise-rate", "0", "--mapping", "0:9"], "0:9"),
        (["--noise-kind", "uniform", "--mapping", "0:1"], "only to asymmetric noise"),
        (["--noise-kind", "none", "--mapping", "0:1"], "only to asymmetric noise"),
        (["--separation", "nan"], "class_separation"),
    ],
    ids=[
        "mapping-target", "mapping-source", "mapping-zero-rate", "mapping-uniform",
        "mapping-none", "separation-nan",
    ],
)
def test_cli_synth_bad_setting_exit_code(tmp_path, args, named):
    out = ["--out-features", str(tmp_path / "f.bin"), "--out-labels", str(tmp_path / "l.csv")]
    proc = run_cli(SYNTH_SMALL + args + out)
    assert proc.returncode == 11, proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr
    assert not (tmp_path / "l.csv").exists() and not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize(
    "command, seed",
    [("synth", "-1"), ("split", "-1"), ("correct", "-5"), ("sweep", "-2"), ("config", "-3")],
)
def test_cli_negative_seed_exit_code(cli_dataset, tmp_path, command, seed):
    root, feats, labels, _ = cli_dataset
    inputs = ["--features", str(feats), "--labels", str(labels)]
    out = str(tmp_path / "out")
    if command == "synth":
        args = SYNTH_SMALL + ["--out-features", str(tmp_path / "f.bin")]
        args += ["--out-labels", str(tmp_path / "l.csv"), "--seed", seed]
    elif command == "split":
        args = ["split", *inputs, "--out", out, "--seed", seed]
    elif command == "correct":
        args = ["correct", *inputs, "--out", out, "--seed", seed]
    elif command == "sweep":
        args = ["sweep", *inputs, "--out", out, "--seed", seed]
        args += ["--sweep-m", "1", "--sweep-b", "1"]
    else:
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("k_graph = 6\nseed = %s\n" % seed)
        args = ["correct", *inputs, "--out", out, "--config", str(cfg)]
    proc = run_cli(args)
    assert proc.returncode == 11, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "seed must be >= 0" in proc.stderr
    assert not os.path.exists(out) and not (tmp_path / "l.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        SYNTH_SMALL + ["--per-class", "%d" % 10**20],
        SYNTH_SMALL + ["--dim", "%d" % 10**20],
        SYNTH_SMALL + ["--classes", "%d" % 10**20],
        ["split", "--branches", "%d" % 10**20],
    ],
    ids=["synth-per-class", "synth-dim", "synth-classes", "split-branches"],
)
def test_cli_int_flag_beyond_int64_exit_code(cli_dataset, tmp_path, args):
    root, feats, labels, _ = cli_dataset
    if args[0] == "split":
        args = args + ["--features", str(feats), "--labels", str(labels)]
        args += ["--out", str(tmp_path / "split.txt")]
    else:
        args = args + ["--out-features", str(tmp_path / "f.bin")]
        args += ["--out-labels", str(tmp_path / "l.csv")]
    proc = run_cli(args)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "invalid int64 value: '%d'" % 10**20 in proc.stderr
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "case, named",
    [
        ("single-class", "labels hold 1 class"),
        ("config", "n_branches %d exceeds the sample count 120" % 10**18),
        ("sweep-m", "n_branches %d exceeds the sample count 120" % 10**18),
    ],
)
def test_cli_rejects_run_before_training(cli_dataset, tmp_path, case, named):
    root, feats, labels, _ = cli_dataset
    out = tmp_path / "out"
    if case == "single-class":
        labels = tmp_path / "zeros.csv"
        labels.write_text("0\n" * 120)
    inputs = ["--features", str(feats), "--labels", str(labels), "--out", str(out)]
    if case == "sweep-m":
        args = ["sweep", *inputs, "--sweep-m", "%d" % 10**18, "--sweep-b", "1"]
    else:
        cfg = tmp_path / "run.cfg"
        branches = 10**18 if case == "config" else 3
        cfg.write_text("k_graph = 6\nn_branches = %d\n" % branches)
        args = ["correct", *inputs, "--config", str(cfg)]
    proc = run_cli(args)
    assert proc.returncode == 11, proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr
    assert not out.exists()


def readme_command_line_flags():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))


def test_readme_cli_flags_match_parser():
    known = {
        flag
        for sub in subcommands().values()
        for flag in sub._option_string_actions
    }
    flags = readme_command_line_flags()
    assert "--dump-suggestions" in flags
    assert flags <= known, sorted(flags - known)

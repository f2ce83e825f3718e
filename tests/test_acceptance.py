"""Acceptance checks: one test per shipped guarantee, one verdict line each.

Each test prints a single [PASS]/[FAIL] line with the measured numbers so a
plain `pytest -v tests/test_acceptance.py -s` reads as a checklist.  The
trend checks (07..09) pin their exact residuals from the first verified run
on this machine and treat them as regression thresholds thereafter.
"""

import filecmp
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse

from graphmend.branches import (
    TrainConfig,
    forward,
    grad_pseudo,
    init_model,
    loss_pseudo,
)
from graphmend.core import FeatureMatrix
from graphmend.correct import decide_all
from graphmend.graph import GraphConfig, build_adjacency, normalize_graph
from graphmend.pipeline import PipelineConfig, run_correction
from graphmend.propagate import (
    NO_SUGGESTION,
    PropagationConfig,
    SuggestionTensor,
    certainty_weights,
    solve_propagation,
)
from graphmend.splitter import SplitConfig, split_dataset
from graphmend.synth import SynthConfig, make_noisy_dataset
from test_branches import grad_graph_smooth, grad_noisy, loss_graph_smooth, loss_noisy
from test_propagate import diffusion_oracle


def verdict(num, label, ok, detail):
    print("[%s] criterion %02d %s: %s" % ("PASS" if ok else "FAIL", num, label, detail))
    assert ok, "criterion %02d %s: %s" % (num, label, detail)


def test_a01_cg_solution_matches_independent_diffusion():
    alphas = [0.5, 0.9, 0.99]
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for trial in range(20):
        n = int(rng.integers(60, 301))
        k = int(rng.integers(4, 11))
        alpha = alphas[trial % 3]
        feats = FeatureMatrix(rng.standard_normal((n, 8)))
        W = normalize_graph(build_adjacency(feats, GraphConfig(k_graph=k, gamma=3.0)))
        Y = np.zeros((n, 3, 2))
        for plane in range(2):
            rows = rng.choice(n, size=n // 2, replace=False)
            Y[rows, rng.integers(3, size=rows.shape[0]), plane] = 1.0
        # neither route may spend the 1e-6 budget itself: a residual of r
        # allows a solution error of r/(1-alpha), so drive CG well below
        cfg = PropagationConfig(alpha_prop=alpha, cg_tolerance=1e-11, cg_max_iters=2000)
        Z = solve_propagation(W, Y, cfg)
        # the oracle certifies the solver only once it has itself converged;
        # its tail after t steps is bounded by alpha^(t+1)/(1-alpha) along the
        # top eigenvector (eigenvalue 1 by construction), so 1000 steps close
        # below 1e-7 for alpha <= 0.9 while alpha = 0.99 needs about 2100
        iters = 1000 if alpha <= 0.9 else 3000
        Z_ref = diffusion_oracle(W, Y, alpha, iters)
        worst = max(worst, float(np.abs(Z - Z_ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    verdict(
        1,
        "solver matches independent diffusion",
        ok,
        "worst gap %.3e (tol 1e-06), %.2fs (cap 5s)" % (worst, elapsed),
    )


def test_a02_two_node_closed_form():
    W = scipy.sparse.csr_matrix(
        (np.array([1.0, 1.0]), np.array([1, 0]), np.array([0, 1, 2])), shape=(2, 2)
    )
    Y = np.zeros((2, 1, 1))
    Y[0, 0, 0] = 1.0
    Z = solve_propagation(W, Y, PropagationConfig(alpha_prop=0.5))
    gap = float(np.abs(Z[:, 0, 0] - np.array([4.0 / 3.0, 2.0 / 3.0])).max())
    ok = gap <= 1e-9
    verdict(2, "two-node closed form", ok, "max gap %.3e (tol 1e-09)" % gap)


def test_a03_thousand_randomized_splits_partition_exactly():
    rng = np.random.default_rng(303)
    violations = 0
    for trial in range(1000):
        C = int(rng.integers(2, 6))
        M = int(rng.integers(1, 7))
        B = int(rng.integers(1, 5))
        sizes = rng.integers(1, 3 * M * B + 5, size=C)
        labels = np.repeat(np.arange(C), sizes)
        labels = labels[rng.permutation(labels.shape[0])]
        feats = FeatureMatrix(rng.standard_normal((labels.shape[0], 5)))
        asg = split_dataset(feats, labels, SplitConfig(M, B, trial))
        members = np.concatenate([asg.members_of(b) for b in range(M)])
        if members.shape[0] != labels.shape[0]:
            violations += 1
            continue
        if not np.array_equal(np.sort(members), np.arange(labels.shape[0])):
            violations += 1
            continue
        for c in range(C):
            counts = np.bincount(asg.branch_of[labels == c], minlength=M)
            package = max(int(sizes[c]) // (M * B), 1)
            if counts.max() - counts.min() > package:
                violations += 1
                break
    ok = violations == 0
    verdict(3, "1000 randomized splits partition exactly", ok, "%d violations" % violations)


def test_a04_certainty_weight_bounds_and_midpoint():
    exact = True
    for C in range(2, 11):
        rows = np.zeros((2, C))
        rows[0, 0] = 1.0
        rows[1, :] = 1.0 / C
        w = certainty_weights(rows)
        exact = exact and w[0] == 1.0 and w[1] == 0.0
    mid = float(certainty_weights(np.array([[0.8, 0.2]]))[0])
    gap = abs(mid - 0.2781)
    ok = exact and gap <= 1e-3
    verdict(
        4,
        "certainty bounds and two-class midpoint",
        ok,
        "bounds exact %s, (0.8,0.2) -> %.6f (ref 0.2781 +/- 1e-3)" % (exact, mid),
    )


def _kink_free_instance(seed, n, dim, hidden, n_classes):
    # relu kinks break central differences; search for a batch that sits
    # clear of them
    for trial in range(seed, seed + 50):
        rng = np.random.default_rng(trial)
        model = init_model(dim, hidden, n_classes, rng)
        X = rng.standard_normal((n, dim))
        h, _ = forward(model, X)
        if np.abs(h).min() > 1e-3:
            return model, X, rng
    raise AssertionError("no kink-free instance found")


def _numeric_grad(f, theta, eps=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        save = theta[i]
        theta[i] = save + eps
        hi = f()
        theta[i] = save - eps
        lo = f()
        theta[i] = save
        g[i] = (hi - lo) / (2.0 * eps)
    return g


def test_a05_analytic_gradients_match_finite_differences():
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(20):
        model, X, rng = _kink_free_instance(500 + 7 * i, n=6, dim=4, hidden=3, n_classes=3)
        kind = i % 3
        if kind == 0:
            corrected = rng.integers(3, size=6)
            omega = rng.uniform(0.1, 1.0, 6)
            _, analytic = grad_pseudo(model, X, corrected, omega)
            value = lambda: loss_pseudo(forward(model, X)[1], corrected, omega)
        elif kind == 1:
            noisy = rng.integers(3, size=6)
            corrected = rng.integers(3, size=6)
            omega = rng.uniform(0.1, 0.9, 6)
            _, analytic = grad_noisy(model, X, noisy, corrected, omega)
            value = lambda: loss_noisy(forward(model, X)[1], noisy, corrected, omega)
        else:
            s = np.array([0, 1, 2])
            t = np.array([3, 4, 5])
            ws = rng.uniform(0.2, 1.0, 3)
            wt = rng.uniform(0.2, 1.0, 3)
            _, analytic = grad_graph_smooth(model, X, s, t, ws, wt, 1.0)

            def value():
                probs = forward(model, X)[1]
                pairs = [
                    (probs[a], probs[b], ws[j], wt[j])
                    for j, (a, b) in enumerate(zip(s, t))
                ]
                return loss_graph_smooth(pairs, 1.0)

        numeric = _numeric_grad(value, model.theta)
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    verdict(
        5,
        "analytic gradients match finite differences",
        ok,
        "worst rel err %.3e (tol 1e-04) over 20 instances, %.2fs (cap 10s)" % (worst, elapsed),
    )


def _vote_oracle(lab, wgt, C, M):
    best_count, best_weight, winner = 0, -1.0, None
    counts = np.zeros(C, dtype=np.int64)
    for c in range(C):
        hit = lab == c
        cnt = int(hit.sum())
        ws = float(wgt[hit].sum())
        counts[c] = cnt
        if (cnt, ws) > (best_count, best_weight):
            best_count, best_weight, winner = cnt, ws, c
    if best_count == 0:
        return NO_SUGGESTION, counts, 0.0, False
    tie = int((counts == best_count).sum()) > 1
    return winner, counts, best_weight / (2.0 * M * M), tie


def test_a06_vote_oracle_agreement_on_ten_thousand_samples():
    quarters = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    checked, disagreements = 0, 0
    for batch in range(25):
        rng = np.random.default_rng(600 + batch)
        M = [1, 2, 3, 5][batch % 4]
        C = [2, 3, 5][batch % 3]
        n = 400
        labels = rng.integers(-1, C, size=(M, M, n, 2))
        # quarter-grid weights keep every weight sum exact in binary, so
        # count and weight ties actually occur and compare exactly
        weights = rng.choice(quarters, size=(M, M, n, 2))
        labels[:, :, 0:3, :] = NO_SUGGESTION
        labels[:, :, 3:5, :] = NO_SUGGESTION
        labels[0, 0, 3, 0], labels[0, 0, 3, 1] = 0, 1
        weights[0, 0, 3, 0] = weights[0, 0, 3, 1] = 0.5
        labels[0, 0, 4, 0], labels[0, 0, 4, 1] = 1, 0
        weights[0, 0, 4, 0], weights[0, 0, 4, 1] = 0.75, 0.25
        winners, vote_counts, omega_hats, ties = decide_all(
            SuggestionTensor(labels, weights, C)
        )
        for i in range(n):
            lab = labels[:, :, i, :].ravel()
            wgt = weights[:, :, i, :].ravel()
            winner, counts, omega_hat, tie = _vote_oracle(lab, wgt, C, M)
            same = (
                winners[i] == winner
                and np.array_equal(vote_counts[i], counts)
                and omega_hats[i] == omega_hat
                and ties[i] == tie
            )
            checked += 1
            disagreements += not same
    ok = checked == 10000 and disagreements == 0
    verdict(
        6,
        "vote matches brute-force oracle",
        ok,
        "%d samples, %d disagreements" % (checked, disagreements),
    )


# Shared trend-check pipeline: the dataset family and branch counts are fixed
# by the checks below; the graph and propagation knobs are ordinary config.
# A sparse graph (k_graph=5) with a short propagation range (alpha=0.85)
# keeps single-graph runs below saturation, which is where the wider
# ensemble vote has room to help.
TREND_GRAPH = dict(k_graph=5, gamma=3.0)
TREND_ALPHA = 0.85


def _blob_run(seed, per_class, noise_kind, M, outer_epochs, resplit=True):
    feats, noisy, clean = make_noisy_dataset(
        SynthConfig(
            n_classes=4,
            per_class=per_class,
            dim=16,
            class_separation=4.0,
            noise_rate=0.3,
            noise_kind=noise_kind,
            rng_seed=seed,
        )
    )
    cfg = PipelineConfig(
        split=SplitConfig(M, 4, seed),
        graph=GraphConfig(**TREND_GRAPH),
        prop=PropagationConfig(alpha_prop=TREND_ALPHA),
        train=TrainConfig(),
        outer_epochs=outer_epochs,
        resplit_each_epoch=resplit,
        seed=seed,
    )
    t0 = time.perf_counter()
    reports = run_correction(cfg, features=feats, labels=noisy, clean=clean)
    elapsed = time.perf_counter() - t0
    residual = float((reports[-1].corrected != np.asarray(clean)).mean())
    uncorrected = float((np.asarray(noisy) != np.asarray(clean)).mean())
    return residual, uncorrected, elapsed


# residuals of the first verified run on this machine, ten seeds each,
# pinned as do-not-regress thresholds
PINNED_ENSEMBLE = [
    0.0140, 0.0125, 0.0110, 0.0135, 0.0130,
    0.0125, 0.0155, 0.0205, 0.0135, 0.0195,
]
PINNED_SINGLE = [
    0.0190, 0.0235, 0.0175, 0.0175, 0.0255,
    0.0150, 0.0200, 0.0270, 0.0175, 0.0260,
]


def test_a07_ensemble_beats_single_graph_on_boundary_noise():
    wins, slowest, regressions = 0, 0.0, 0
    beats_input = True
    for seed in range(10):
        r5, uncorrected, dt5 = _blob_run(seed, 500, "confusing", 5, 10)
        r1, _, dt1 = _blob_run(seed, 500, "confusing", 1, 10)
        wins += r5 < r1
        beats_input = beats_input and r5 < uncorrected
        slowest = max(slowest, dt5, dt1)
        regressions += r5 > PINNED_ENSEMBLE[seed] + 1e-9
        regressions += r1 > PINNED_SINGLE[seed] + 1e-9
    ok = wins >= 8 and beats_input and slowest < 120.0 and regressions == 0
    verdict(
        7,
        "ensemble beats single graph on boundary noise",
        ok,
        "wins %d/10 (need 8), beats input %s, slowest run %.1fs (cap 120s), "
        "%d pinned-threshold regressions" % (wins, beats_input, slowest, regressions),
    )


def test_a08_uniform_noise_no_harm_within_two_points():
    worst_gap = -1.0
    ok = True
    for seed in range(10):
        r5, _, _ = _blob_run(seed, 250, "uniform", 5, 8)
        r1, _, _ = _blob_run(seed, 250, "uniform", 1, 8)
        worst_gap = max(worst_gap, r5 - r1)
        ok = ok and r5 <= r1 + 0.02
    verdict(
        8,
        "uniform noise no-harm within two points",
        ok,
        "worst ensemble-minus-single gap %+.4f (cap +0.02)" % worst_gap,
    )


def test_a09_resplitting_does_not_hurt_mean_residual():
    with_resplit, without = [], []
    for seed in range(10):
        with_resplit.append(_blob_run(seed, 250, "confusing", 5, 8, resplit=True)[0])
        without.append(_blob_run(seed, 250, "confusing", 5, 8, resplit=False)[0])
    mean_rs = float(np.mean(with_resplit))
    mean_ns = float(np.mean(without))
    ok = mean_rs <= mean_ns + 1e-12
    verdict(
        9,
        "re-splitting does not hurt mean residual",
        ok,
        "mean %.5f with re-splitting vs %.5f without" % (mean_rs, mean_ns),
    )


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "graphmend"] + args,
        capture_output=True,
        text=True,
    )


RUN_CONFIG = (
    "n_branches = 2\n"
    "packages_per_class_per_branch = 2\n"
    "k_graph = 6\n"
    "alpha_prop = 0.9\n"
    "hidden_width = 16\n"
    "batch_size = 32\n"
    "pair_sample_count = 64\n"
    "outer_epochs = 2\n"
)


def test_a10_fixed_seed_reruns_are_byte_identical(tmp_path):
    def synth(tag):
        feats = tmp_path / ("feats_%s.bin" % tag)
        labels = tmp_path / ("labels_%s.csv" % tag)
        proc = _cli(
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
                "--seed", "7",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        return feats, labels

    feats_a, labels_a = synth("a")
    feats_b, labels_b = synth("b")
    same_synth = filecmp.cmp(feats_a, feats_b, shallow=False) and filecmp.cmp(
        labels_a, labels_b, shallow=False
    )

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(RUN_CONFIG)

    def correct(tag):
        out = tmp_path / ("out_%s" % tag)
        proc = _cli(
            [
                "correct",
                "--features", str(feats_a),
                "--labels", str(labels_a),
                "--out", str(out),
                "--config", str(cfg_path),
                "--seed", "7",
                "--dump-suggestions",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        return out

    out_a = correct("a")
    out_b = correct("b")
    files_a = sorted(
        os.path.relpath(os.path.join(root, name), out_a)
        for root, _, names in os.walk(out_a)
        for name in names
    )
    files_b = sorted(
        os.path.relpath(os.path.join(root, name), out_b)
        for root, _, names in os.walk(out_b)
        for name in names
    )
    same_layout = files_a == files_b
    mismatched = [
        rel
        for rel in files_a
        if not filecmp.cmp(os.path.join(out_a, rel), os.path.join(out_b, rel), shallow=False)
    ] if same_layout else files_a
    ok = same_synth and same_layout and not mismatched and len(files_a) > 0
    verdict(
        10,
        "fixed-seed reruns are byte-identical",
        ok,
        "synth identical %s, %d run files compared, mismatches %s"
        % (same_synth, len(files_a), mismatched or "none"),
    )

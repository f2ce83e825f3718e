"""Synthetic blobs and the three noise injectors."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from graphmend import synth
from graphmend.core import FeatureMatrix, ValidationError
from graphmend.synth import (
    SynthConfig,
    class_centroids,
    inject_asymmetric,
    inject_confusing,
    inject_uniform,
    make_blobs,
    make_noisy_dataset,
    margin_deficit,
)


def test_blob_shapes_and_counts():
    cfg = SynthConfig(n_classes=3, per_class=40, dim=5, rng_seed=0)
    feats, labels = make_blobs(cfg)
    assert feats.data.shape == (120, 5)
    assert np.array_equal(np.bincount(labels), [40, 40, 40])


def test_blobs_deterministic():
    cfg = SynthConfig(n_classes=3, per_class=10, dim=4, rng_seed=5)
    a, la = make_blobs(cfg)
    b, lb = make_blobs(cfg)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(la, lb)


def test_centroids_axis_simplex():
    cfg = SynthConfig(n_classes=3, per_class=1, dim=5, class_separation=4.0)
    c = class_centroids(cfg, np.random.default_rng(0))
    want = np.zeros((3, 5))
    want[0, 0] = want[1, 1] = want[2, 2] = 4.0
    assert np.array_equal(c, want)
    # every pair sits at separation * sqrt(2)
    assert np.linalg.norm(c[0] - c[1]) == pytest.approx(4.0 * np.sqrt(2.0))


def test_centroids_low_dim_fallback_on_sphere():
    cfg = SynthConfig(n_classes=4, per_class=1, dim=2, class_separation=3.0)
    c = class_centroids(cfg, np.random.default_rng(1))
    assert c.shape == (4, 2)
    assert np.allclose(np.linalg.norm(c, axis=1), 3.0, atol=1e-12)


def test_blobs_linearly_separable_when_far_apart():
    sklearn = pytest.importorskip("sklearn.linear_model")
    cfg = SynthConfig(n_classes=2, per_class=300, dim=8, class_separation=10.0, rng_seed=2)
    feats, labels = make_blobs(cfg)
    clf = sklearn.LogisticRegression(max_iter=2000).fit(feats.data, labels)
    assert clf.score(feats.data, labels) >= 0.999


def test_uniform_noise_exact_flip_count():
    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(4), 50)
    noisy = inject_uniform(labels, 0.3, 4, rng)
    assert (noisy != labels).sum() == 60
    assert noisy.min() >= 0 and noisy.max() < 4


def test_uniform_noise_never_flips_to_self():
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(3), 100)
    noisy = inject_uniform(labels, 0.9, 3, rng)
    flipped = noisy != labels
    assert flipped.sum() == 270
    assert (noisy[flipped] != labels[flipped]).all()


def test_uniform_noise_rate_zero_is_identity():
    labels = np.arange(5) % 2
    noisy = inject_uniform(labels, 0.0, 2, np.random.default_rng(0))
    assert np.array_equal(noisy, labels)


def test_uniform_noise_targets_evenly_spread():
    # with C=3 every victim flips to one of 2 other classes; the split
    # should pass a chi-square test at alpha = 0.01
    rng = np.random.default_rng(6)
    labels = np.zeros(10000, dtype=np.int64)
    noisy = inject_uniform(labels, 0.9, 3, rng)
    counts = np.bincount(noisy[noisy != 0], minlength=3)[1:]
    assert counts.sum() == 9000
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_margin_deficit_signs():
    centroids = np.array([[0.0, 0.0], [10.0, 0.0]])
    X = np.array([[1.0, 0.0], [9.0, 0.0]], dtype=np.float32)
    labels = np.array([0, 0])
    from graphmend.core import FeatureMatrix

    score, other = margin_deficit(FeatureMatrix(X), labels, centroids)
    # first point is close to home: negative deficit
    assert score[0] == pytest.approx(1.0 - 9.0)
    # second point strayed next door: positive deficit, nearest other is 1
    assert score[1] == pytest.approx(9.0 - 1.0)
    assert other.tolist() == [1, 1]


def margin_deficit_reference(features, labels, centroids):
    """The whole-array formula margin_deficit replaced: one (n, C, dim)
    difference block."""
    X = features.data.astype(np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    dist = np.sqrt(d2)
    own = dist[np.arange(X.shape[0]), labels]
    masked = dist.copy()
    masked[np.arange(X.shape[0]), labels] = np.inf
    other_class = masked.argmin(axis=1)
    return own - masked.min(axis=1), other_class


# with 45 centroid entries: one 1,001-row chunk, 10-row chunks with a
# 1-row tail, and 1-row chunks
@pytest.mark.parametrize("chunk", [synth._DEFICIT_CHUNK, 450, 1])
def test_margin_deficit_equals_whole_array_reference(monkeypatch, chunk):
    rng = np.random.default_rng(3)
    n, C, d = 1001, 5, 9
    centroids = rng.standard_normal((C, d)) * 3.0
    X = rng.standard_normal((n, d)).astype(np.float32) * 4.0
    # rows tied at the minimum: at the origin every axis centroid is at
    # the same distance, and integer points sit halfway between two
    axes = np.eye(C, d) * 2.0
    X[:40] = 0.0
    X[40:80] = np.round(X[40:80])
    labels = rng.integers(0, C, n)
    monkeypatch.setattr(synth, "_DEFICIT_CHUNK", chunk)
    for cents in (centroids, axes):
        got = margin_deficit(FeatureMatrix(X), labels, cents)
        want = margin_deficit_reference(FeatureMatrix(X), labels, cents)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
    # the origin rows tie between every other class; argmin takes the lowest
    tied = margin_deficit(FeatureMatrix(X[:40]), labels[:40], axes)[1]
    assert np.array_equal(tied, np.where(labels[:40] == 0, 1, 0))


def test_margin_deficit_keeps_no_whole_array_temporary():
    n, C, d = 4000, 20, 32
    rng = np.random.default_rng(0)
    features = FeatureMatrix(rng.standard_normal((n, d)).astype(np.float32))
    labels = rng.integers(0, C, n)
    centroids = rng.standard_normal((C, d))
    tracemalloc.start()
    try:
        margin_deficit(features, labels, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-array formula holds n*C*d*8 = 20.5 MB at once
    assert peak < n * C * d * 8 / 8


def test_confusing_noise_picks_worst_margins():
    from graphmend.core import FeatureMatrix

    centroids = np.array([[0.0, 0.0], [8.0, 0.0]])
    # hand-placed points: two deep inside class 0, two near the border
    X = np.array(
        [[0.5, 0.0], [1.0, 0.0], [3.9, 0.0], [3.8, 0.0]], dtype=np.float32
    )
    labels = np.zeros(4, dtype=np.int64)
    noisy = inject_confusing(FeatureMatrix(X), labels, 0.5, centroids)
    assert noisy.tolist() == [0, 0, 1, 1]


def test_confusing_noise_flips_to_nearest_other():
    cfg = SynthConfig(n_classes=4, per_class=100, dim=6, class_separation=3.0, rng_seed=7)
    feats, clean = make_blobs(cfg)
    # dim >= n_classes, so the centroid layout is the deterministic simplex
    centroids = class_centroids(cfg, np.random.default_rng(0))
    noisy = inject_confusing(feats, clean, 0.25, centroids)
    flipped = np.flatnonzero(noisy != clean)
    assert flipped.shape[0] == 100
    _, nearest_other = margin_deficit(feats, clean, centroids)
    assert np.array_equal(noisy[flipped], nearest_other[flipped])


def test_confusing_noise_boundary_concentration():
    # flipped samples carry systematically worse margins than kept ones
    cfg = SynthConfig(n_classes=3, per_class=200, dim=5, class_separation=3.0, rng_seed=8)
    feats, noisy, clean = make_noisy_dataset(cfg)
    centroids = class_centroids(cfg, np.random.default_rng(8))
    score, _ = margin_deficit(feats, clean, centroids)
    flipped = noisy != clean
    assert score[flipped].min() >= score[~flipped].max() - 1e-12


def test_asymmetric_noise_counts_and_targets():
    rng = np.random.default_rng(9)
    labels = np.repeat(np.arange(3), 100)
    mapping = {0: 1, 1: 2, 2: 0}
    noisy = inject_asymmetric(labels, 0.4, mapping, rng, 3)
    for src in range(3):
        members = labels == src
        moved = noisy[members] != src
        assert moved.sum() == 40
        assert (noisy[members][moved] == mapping[src]).all()


def test_asymmetric_noise_untouched_classes_stay():
    rng = np.random.default_rng(10)
    labels = np.repeat(np.arange(3), 50)
    noisy = inject_asymmetric(labels, 0.5, {0: 2}, rng, 3)
    assert np.array_equal(noisy[labels != 0], labels[labels != 0])
    assert (noisy[labels == 0] != 1).all()


def test_asymmetric_noise_identity_mapping_rejected():
    with pytest.raises(ValidationError):
        inject_asymmetric(np.zeros(4, dtype=np.int64), 0.5, {0: 0}, np.random.default_rng(0), 2)


def test_make_noisy_dataset_rate_realized():
    for kind in ("uniform", "confusing"):
        cfg = SynthConfig(
            n_classes=4, per_class=50, dim=6, noise_rate=0.3, noise_kind=kind, rng_seed=11
        )
        feats, noisy, clean = make_noisy_dataset(cfg)
        assert (noisy != clean).sum() == int(0.3 * 200)
    cfg = SynthConfig(
        n_classes=4, per_class=50, dim=6, noise_rate=0.3, noise_kind="asymmetric", rng_seed=11
    )
    feats, noisy, clean = make_noisy_dataset(cfg)
    assert (noisy != clean).sum() == 4 * int(0.3 * 50)


def test_make_noisy_dataset_none_kind():
    cfg = SynthConfig(n_classes=2, per_class=5, dim=3, noise_kind="none", rng_seed=0)
    feats, noisy, clean = make_noisy_dataset(cfg)
    assert np.array_equal(noisy, clean)
    noisy[0] = 1 - noisy[0]
    assert np.array_equal(clean, np.repeat([0, 1], 5))


@pytest.mark.parametrize("kind", ["uniform", "confusing", "none"])
def test_make_noisy_dataset_rejects_mapping_without_asymmetric_noise(kind):
    cfg = SynthConfig(n_classes=3, per_class=20, dim=4, noise_kind=kind, rng_seed=0)
    with pytest.raises(ValidationError, match="only to asymmetric noise"):
        make_noisy_dataset(cfg, mapping={0: 1})


def test_make_noisy_dataset_checks_mapping_at_zero_rate():
    cfg = SynthConfig(
        n_classes=3, per_class=20, dim=4, noise_rate=0.0, noise_kind="asymmetric", rng_seed=0
    )
    with pytest.raises(ValidationError, match="0:9"):
        make_noisy_dataset(cfg, mapping={0: 9})
    feats, noisy, clean = make_noisy_dataset(cfg, mapping={0: 1})
    assert np.array_equal(noisy, clean) and noisy is not clean


@pytest.mark.parametrize("kind", ["uniform", "confusing", "asymmetric"])
def test_make_noisy_dataset_zero_rate_flips_nothing(kind):
    cfg = SynthConfig(
        n_classes=3, per_class=20, dim=4, noise_rate=0.0, noise_kind=kind, rng_seed=5
    )
    rng = np.random.default_rng(5)
    feats, noisy, clean = make_noisy_dataset(cfg, rng)
    assert np.array_equal(noisy, clean) and noisy is not clean
    # no noise draw: the generator stands where the blobs left it
    blobs_rng = np.random.default_rng(5)
    make_blobs(cfg, blobs_rng)
    assert rng.bit_generator.state == blobs_rng.bit_generator.state


def test_make_noisy_dataset_deterministic():
    cfg = SynthConfig(n_classes=3, per_class=30, dim=4, noise_rate=0.2, rng_seed=13)
    a = make_noisy_dataset(cfg)
    b = make_noisy_dataset(cfg)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


@pytest.mark.parametrize("kind", ["uniform", "confusing", "asymmetric"])
def test_make_noisy_dataset_int_seed_equals_generator(kind):
    cfg = SynthConfig(n_classes=3, per_class=5, dim=4, noise_rate=0.4, noise_kind=kind)
    a = make_noisy_dataset(cfg, 5)
    b = make_noisy_dataset(cfg, np.random.default_rng(5))
    assert np.array_equal(a[0].data.view(np.int32), b[0].data.view(np.int32))
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_synth_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(n_classes=1)
    with pytest.raises(ValidationError):
        SynthConfig(noise_rate=1.0)
    with pytest.raises(ValidationError):
        SynthConfig(noise_kind="salty")


@pytest.mark.parametrize(
    "fields",
    [
        {"per_class": 2**62},
        {"n_classes": 2**62},
        {"dim": 2**62},
        {"n_classes": 2, "per_class": 2**31},
        {"dim": 2**32},
    ],
)
def test_synth_config_rejects_sizes_beyond_u32_header(fields):
    with pytest.raises(ValidationError, match="at most 4294967295"):
        SynthConfig(**fields)


def test_synth_config_accepts_u32_header_maximum():
    cfg = SynthConfig(n_classes=3, per_class=1431655765, dim=2**32 - 1)
    assert cfg.n_classes * cfg.per_class == 2**32 - 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--per-class", str(2**62)], "at most 4294967295"),
        (["--classes", str(2**62)], "at most 4294967295"),
        (["--dim", str(2**62)], "at most 4294967295"),
        # the (2**31, 2**32 - 1) centroid array exceeds numpy's largest
        # array, so it fails before any page is touched
        (["--classes", str(2**31), "--per-class", "1", "--dim", str(2**32 - 1)],
         "too many to allocate"),
    ],
    ids=["per-class", "classes", "dim", "unallocatable"],
)
def test_cli_synth_oversized_dataset_exit_code(tmp_path, flags, message):
    # in a subprocess: before these checks such sizes could crash the
    # interpreter outright
    proc = subprocess.run(
        [sys.executable, "-m", "graphmend", "synth",
         "--out-features", str(tmp_path / "f.bin"),
         "--out-labels", str(tmp_path / "l.csv")] + flags,
        capture_output=True, text=True,
    )
    assert proc.returncode == 11, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["class_separation", "noise_rate"])
def test_synth_config_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match="%s must be finite" % field):
        SynthConfig(**{field: value})


@pytest.mark.parametrize("mapping", [{0: 3}, {3: 0}, {-1: 0}])
def test_asymmetric_noise_rejects_classes_out_of_range(mapping):
    with pytest.raises(ValidationError, match="outside"):
        inject_asymmetric(np.zeros(4, dtype=np.int64), 0.5, mapping,
                          np.random.default_rng(0), 3)

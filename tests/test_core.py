"""File formats: exact round-trips and precise failure offsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmend import core


def test_feature_matrix_rejects_nonfinite():
    with pytest.raises(core.ValidationError):
        core.FeatureMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(core.ValidationError):
        core.FeatureMatrix(np.array([[np.inf, 0.0]]))


def test_feature_matrix_rejects_empty():
    with pytest.raises(core.ValidationError):
        core.FeatureMatrix(np.zeros((0, 3)))
    with pytest.raises(core.ValidationError):
        core.FeatureMatrix(np.zeros((3, 0)))


def test_feature_roundtrip(tmp_path):
    path = tmp_path / "f.bin"
    m = core.FeatureMatrix(np.array([[1.0, 2.0], [3.5, -4.25], [0.0, 1e-3]]))
    core.save_features(path, m)
    assert core.load_features(path) == m


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_feature_roundtrip_random(tmp_path_factory, n, d, seed):
    path = tmp_path_factory.mktemp("feat") / "f.bin"
    rng = np.random.default_rng(seed)
    m = core.FeatureMatrix(rng.standard_normal((n, d)).astype(np.float32))
    core.save_features(path, m)
    assert core.load_features(path) == m


def test_bad_magic(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(core.BadMagicError) as err:
        core.load_features(path)
    assert err.value.offset == 0


def test_truncated_header(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"MLCF\x01\x00")
    with pytest.raises(core.TruncatedPayloadError):
        core.load_features(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "f.bin"
    header = b"MLCF" + np.array([3, 2, 0], dtype="<u4").tobytes()
    path.write_bytes(header + b"\0" * 8)  # needs 24 payload bytes
    with pytest.raises(core.TruncatedPayloadError) as err:
        core.load_features(path)
    assert err.value.offset == 16 + 8


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "f.bin"
    core.save_features(path, np.ones((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(core.FormatError):
        core.load_features(path)


def test_nonzero_reserved_rejected(tmp_path):
    path = tmp_path / "f.bin"
    header = b"MLCF" + np.array([1, 1, 7], dtype="<u4").tobytes()
    path.write_bytes(header + np.float32(1).tobytes())
    with pytest.raises(core.FormatError) as err:
        core.load_features(path)
    assert err.value.offset == 12


def test_nonfinite_payload_offset(tmp_path):
    path = tmp_path / "f.bin"
    header = b"MLCF" + np.array([2, 2, 0], dtype="<u4").tobytes()
    payload = np.array([1.0, 2.0, np.nan, 4.0], dtype="<f4").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(core.NonFiniteValueError) as err:
        core.load_features(path)
    assert err.value.offset == 16 + 2 * 4


def test_labels_flat_row(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0,2,1\n")
    labels, clean = core.load_label_columns(path, 3)
    assert list(labels) == [0, 2, 1]
    assert clean is None


def test_labels_out_of_range(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\n5\n")
    with pytest.raises(core.ValidationError) as err:
        core.load_labels(path, 3)
    assert err.value.row == 2


def test_labels_negative_rejected(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("-1\n")
    with pytest.raises(core.ValidationError):
        core.load_labels(path, 3)


def test_labels_non_integer(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\nfoo\n")
    with pytest.raises(core.ValidationError) as err:
        core.load_labels(path, 3)
    assert err.value.row == 2


def test_labels_empty_file(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("")
    labels = core.load_labels(path, 3)
    assert labels.shape == (0,)
    with pytest.raises(core.ValidationError):
        core.check_pairing(core.FeatureMatrix(np.ones((2, 2))), labels)


def test_labels_two_column_mode(tmp_path):
    path = tmp_path / "l.txt"
    core.save_labels(path, [0, 2, 1], clean=[0, 1, 1])
    noisy, clean = core.load_label_columns(path, 3)
    assert list(noisy) == [0, 2, 1]
    assert list(clean) == [0, 1, 1]


def test_labels_single_column_roundtrip(tmp_path):
    path = tmp_path / "l.txt"
    core.save_labels(path, [1, 0, 2, 2])
    noisy, clean = core.load_label_columns(path)
    assert list(noisy) == [1, 0, 2, 2]
    assert clean is None


def test_pairing_mismatch():
    with pytest.raises(core.ValidationError):
        core.check_pairing(
            core.FeatureMatrix(np.ones((3, 2))), np.array([0, 1], dtype=np.int64)
        )


def make_report(rng, n, epoch=2, with_accuracy=True):
    noisy = rng.integers(0, 4, n)
    corrected = rng.integers(0, 4, n)
    confidence = rng.random(n)
    acc = float(rng.random()) if with_accuracy else None
    return core.CorrectionReport(epoch, noisy, corrected, confidence, acc)


def test_report_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    report = make_report(rng, 23)
    path = tmp_path / "r.txt"
    core.save_report(path, report)
    assert core.load_report(path) == report


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**31), acc=st.booleans())
def test_report_roundtrip_random(tmp_path_factory, n, seed, acc):
    path = tmp_path_factory.mktemp("rep") / "r.txt"
    report = make_report(np.random.default_rng(seed), n, with_accuracy=acc)
    core.save_report(path, report)
    loaded = core.load_report(path)
    assert loaded == report
    assert loaded.n_changed == report.n_changed


def test_report_zero_changes(tmp_path):
    labels = np.array([1, 2, 0], dtype=np.int64)
    report = core.CorrectionReport(1, labels, labels.copy(), np.ones(3))
    assert report.n_changed == 0
    path = tmp_path / "r.txt"
    core.save_report(path, report)
    assert core.load_report(path).summary()["n_changed"] == 0


def test_report_confidence_binary_exact(tmp_path):
    # values with awkward binary expansions must parse back bit-identical
    conf = np.array([0.5, 0.1, 1 / 3, np.nextafter(0.2781, 1)])
    labels = np.zeros(4, dtype=np.int64)
    report = core.CorrectionReport(1, labels, labels, conf)
    path = tmp_path / "r.txt"
    core.save_report(path, report)
    loaded = core.load_report(path)
    assert np.array_equal(loaded.confidence, conf)


def test_report_truncated_at_every_offset_is_format_error(tmp_path):
    path = tmp_path / "r.txt"
    core.save_report(path, make_report(np.random.default_rng(5), 3))
    blob = path.read_bytes()
    cut = tmp_path / "cut.txt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(core.FormatError):
            core.load_report(cut)


@pytest.mark.parametrize("old,new", [
    (b"summary {", b"summary ["),
    (b"n_samples 3", b"n_samples 4"),
    (b"n_samples 3", b"n_samples -1"),
    (b"epoch 2", b"epoch two"),
    (b"\n1 ", b"\n7 "),
    (b"\n0 ", b"\n\xff "),
    (b"\nsummary", b"\n2 0 0 0.5 0\nsummary"),
])
def test_report_garbled_is_format_error(tmp_path, old, new):
    path = tmp_path / "r.txt"
    core.save_report(path, make_report(np.random.default_rng(5), 3))
    blob = path.read_bytes()
    assert old in blob
    path.write_bytes(blob.replace(old, new, 1))
    with pytest.raises(core.FormatError):
        core.load_report(path)


def test_report_garbled_changed_column_is_format_error(tmp_path):
    labels = np.array([1, 2, 0], dtype=np.int64)
    path = tmp_path / "r.txt"
    core.save_report(path, core.CorrectionReport(1, labels, labels.copy(), np.ones(3)))
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"1.0 0\n", b"1.0 1\n", 1))
    with pytest.raises(core.FormatError):
        core.load_report(path)


def test_model_vector_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    theta = rng.standard_normal(2 * 3 + 3 + 3 * 4 + 4)
    path = tmp_path / "m.bin"
    core.save_model_vector(path, theta, 2, 3, 4)
    loaded, dim, hidden, n_classes = core.load_model_vector(path)
    assert (dim, hidden, n_classes) == (2, 3, 4)
    assert np.array_equal(loaded, theta)

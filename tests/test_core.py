"""File formats: exact round-trips and precise failure offsets."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmend import branches, core


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


def test_labels_non_utf8_byte_is_format_error(tmp_path):
    path = tmp_path / "l.txt"
    path.write_bytes(b"0\n1\r\n2,\xff\n")
    with pytest.raises(core.FormatError, match=r"row 3 \(byte offset 7\)"):
        core.load_label_columns(path)


@pytest.mark.parametrize("n_classes", [None, 3])
def test_labels_beyond_int64_is_validation_error(tmp_path, n_classes):
    path = tmp_path / "l.txt"
    path.write_text("0\n99999999999999999999\n")
    with pytest.raises(core.ValidationError) as err:
        core.load_label_columns(path, n_classes)
    assert err.value.row == 2


def test_labels_int64_max_is_read(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("%d\n" % (2**63 - 1))
    labels, _ = core.load_label_columns(path)
    assert labels.tolist() == [2**63 - 1]


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


def save_report_reference(path, report):
    """The per-element report writer that core.save_report replaced, kept
    as the byte-exact reference for it."""
    lines = [
        "MLCR v1",
        "epoch %d" % report.epoch,
        "n_samples %d" % report.n_samples,
        "columns index noisy corrected confidence changed",
    ]
    for i in range(report.n_samples):
        lines.append(
            "%d %d %d %s %d"
            % (
                i,
                report.noisy[i],
                report.corrected[i],
                repr(float(report.confidence[i])),
                1 if report.changed[i] else 0,
            )
        )
    lines.append("summary %s" % json.dumps(report.summary(), sort_keys=True))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def save_labels_reference(path, labels, clean=None):
    """The per-element label writer that core.save_labels replaced, kept
    as the byte-exact reference for it."""
    labels = np.asarray(labels, dtype=np.int64)
    lines = []
    if clean is None:
        for v in labels:
            lines.append("%d" % v)
    else:
        for v, c in zip(labels, np.asarray(clean, dtype=np.int64)):
            lines.append("%d,%d" % (v, c))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


@pytest.mark.parametrize("n", [0, 1, 37])
def test_report_bytes_equal_reference_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    for with_accuracy in (False, True):
        report = make_report(rng, n, with_accuracy=with_accuracy)
        report.confidence[: n // 2] = rng.integers(0, 2, n // 2)
        core.save_report(tmp_path / "got.txt", report)
        save_report_reference(tmp_path / "want.txt", report)
        got = (tmp_path / "got.txt").read_bytes()
        assert got == (tmp_path / "want.txt").read_bytes()


@pytest.mark.parametrize("n", [0, 1, 37])
@pytest.mark.parametrize("with_clean", [False, True])
def test_labels_bytes_equal_reference_writer(tmp_path, n, with_clean):
    rng = np.random.default_rng(n)
    labels = rng.integers(0, 2**40, n)
    clean = rng.integers(0, 5, n) if with_clean else None
    core.save_labels(tmp_path / "got.csv", labels, clean)
    save_labels_reference(tmp_path / "want.csv", labels, clean)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_report_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    report = make_report(rng, 23)
    path = tmp_path / "r.txt"
    core.save_report(path, report)
    assert core.load_report(path) == report


def test_report_roundtrip_after_arrays_change(tmp_path):
    # the summary follows arrays changed after construction, so the saved
    # file still agrees with its records and loads back
    rng = np.random.default_rng(8)
    report = make_report(rng, 23)
    report.confidence[:] = rng.random(23)
    report.corrected[:5] = report.noisy[:5] + 1
    path = tmp_path / "r.txt"
    core.save_report(path, report)
    loaded = core.load_report(path)
    assert loaded == report
    assert loaded.summary() == report.summary()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**31), acc=st.booleans())
def test_report_roundtrip_random(tmp_path_factory, n, seed, acc):
    path = tmp_path_factory.mktemp("rep") / "r.txt"
    report = make_report(np.random.default_rng(seed), n, with_accuracy=acc)
    core.save_report(path, report)
    loaded = core.load_report(path)
    assert loaded == report
    assert loaded.n_changed == report.n_changed


@pytest.mark.parametrize("with_accuracy", [False, True])
def test_report_roundtrip_empty(tmp_path, with_accuracy):
    report = make_report(np.random.default_rng(0), 0, with_accuracy=with_accuracy)
    path = tmp_path / "r.txt"
    core.save_report(path, report)
    assert core.load_report(path) == report


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


@pytest.mark.parametrize("clean", [None, [2, 0, 11, 1]], ids=["one-column", "two-column"])
@pytest.mark.parametrize("n_classes", [None, 12])
def test_labels_truncated_or_flipped_raise_only_package_errors(tmp_path, clean, n_classes):
    path = tmp_path / "l.txt"
    core.save_labels(path, [10, 2, 0, 11], clean=clean)
    blob = path.read_bytes()
    # every prefix, and every single byte replaced by each other value
    variants = [blob[:size] for size in range(len(blob))]
    variants += [
        blob[:at] + bytes([value]) + blob[at + 1:]
        for at in range(len(blob))
        for value in range(256)
        if value != blob[at]
    ]
    cut = tmp_path / "cut.txt"
    for variant in variants:
        cut.write_bytes(variant)
        try:
            core.load_label_columns(cut, n_classes)
        except core.GraphmendError:
            pass


@pytest.mark.parametrize("old,new", [
    (b"summary {", b"summary ["),
    (b"n_samples 3", b"n_samples 4"),
    (b"n_samples 3", b"n_samples -1"),
    (b"epoch 2", b"epoch two"),
    (b"\n1 ", b"\n7 "),
    (b"\n0 ", b"\n\xff "),
    (b"\nsummary", b"\n2 0 0 0.5 0\nsummary"),
    # a summary that disagrees with the records
    (b'"n_changed": ', b'"n_changed": 1'),
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
    branches.save_model(path, branches.BranchModel(2, 3, 4, theta))
    model = branches.load_model(path)
    loaded, dim, hidden, n_classes = model.theta, model.dim, model.hidden, model.n_classes
    assert (dim, hidden, n_classes) == (2, 3, 4)
    assert np.array_equal(loaded, theta)


def prefixes_and_replaced_bytes(blob):
    """Every proper prefix of `blob`, then `blob` with each byte replaced
    by 0x00, 0xff and two single-bit flips of itself."""
    prefixes = [blob[:size] for size in range(len(blob))]
    replaced = [
        blob[:at] + bytes([value]) + blob[at + 1:]
        for at in range(len(blob))
        for value in sorted({0x00, 0xFF, blob[at] ^ 0x01, blob[at] ^ 0x80} - {blob[at]})
    ]
    return prefixes, replaced


def write_feature_file(path):
    data = np.random.default_rng(6).standard_normal((3, 2)).astype(np.float32)
    core.save_features(path, core.FeatureMatrix(data))


def write_model_file(path):
    theta = np.random.default_rng(7).standard_normal(1 * 2 + 2 + 2 * 2 + 2)
    branches.save_model(path, branches.BranchModel(1, 2, 2, theta))


@pytest.mark.parametrize(
    "write, load",
    [(write_feature_file, core.load_features), (write_model_file, branches.load_model)],
    ids=["MLCF", "MLCK"],
)
def test_binary_truncated_or_replaced_raise_only_package_errors(tmp_path, write, load):
    path = tmp_path / "file.bin"
    write(path)
    prefixes, replaced = prefixes_and_replaced_bytes(path.read_bytes())
    cut = tmp_path / "cut.bin"
    for variant in prefixes:
        cut.write_bytes(variant)
        with pytest.raises(core.FormatError):
            load(cut)
    for variant in replaced:
        cut.write_bytes(variant)
        try:
            load(cut)
        except core.GraphmendError:
            pass


def test_report_truncated_or_replaced_is_format_error_or_rewrites_itself(tmp_path):
    path = tmp_path / "r.txt"
    labels = np.array([0, 1], dtype=np.int64)
    core.save_report(path, core.CorrectionReport(3, labels, labels[::-1], [0.5, 1.0], 0.25))
    prefixes, replaced = prefixes_and_replaced_bytes(path.read_bytes())
    cut, back = tmp_path / "cut.txt", tmp_path / "back.txt"
    for variant in prefixes:
        cut.write_bytes(variant)
        with pytest.raises(core.FormatError):
            core.load_report(cut)
    loaded = 0
    for variant in replaced:
        cut.write_bytes(variant)
        try:
            report = core.load_report(cut)
        except core.FormatError:
            continue
        # a variant that loads is the very text save_report writes for it
        core.save_report(back, report)
        assert back.read_bytes() == variant
        loaded += 1
    # flipping the low bit of the epoch digit, for one, gives another report
    assert loaded > 0

"""Domain types, error taxonomy, and bit-exact file formats.

Feature binary layout: 16-byte header (ASCII magic "MLCF", u32
little-endian sample count, u32 little-endian dimension, u32
reserved = 0) followed by n*d IEEE-754 32-bit little-endian values in
row-major order.  Labels are comma/newline-separated integer text with
an optional second column holding clean labels for evaluation.  Reports
are line-oriented text with a JSON summary block; floats are written
with repr so parsing restores the exact binary value.
"""

import json
import os

import numpy as np

MAGIC_FEATURES = b"MLCF"
MAGIC_MODEL = b"MLCK"
HEADER_SIZE = 16


class GraphmendError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class FormatError(GraphmendError):
    """A file does not follow its declared binary or text layout."""

    exit_code = 10

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (byte offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class BadMagicError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class NonFiniteValueError(FormatError):
    pass


class ValidationError(GraphmendError):
    """Inputs violate a documented precondition or invariant."""

    exit_code = 11

    def __init__(self, message, row=None):
        if row is not None:
            message = "%s (row %d)" % (message, row)
        super().__init__(message)
        self.row = row


class SolverError(GraphmendError):
    """The linear solver failed to reach its tolerance."""

    exit_code = 12


class TrainingError(GraphmendError):
    """Branch training produced a non-finite loss or gradient."""

    exit_code = 13


class FeatureMatrix:
    """Row-major embedding of all samples, float32, every entry finite."""

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2:
            raise ValidationError("feature data must be 2-dimensional")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValidationError(
                "feature matrix needs at least one sample and one dimension"
            )
        if not np.isfinite(data).all():
            bad = int(np.flatnonzero(~np.isfinite(data).ravel())[0])
            raise ValidationError("non-finite feature entry at flat index %d" % bad)
        self.data = data
        self.n_samples = data.shape[0]
        self.dim = data.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, FeatureMatrix)
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )


class LabelState:
    """Per-sample noisy label, corrected label, and confidence weight."""

    def __init__(self, noisy, corrected, confidence, n_classes):
        noisy = np.asarray(noisy, dtype=np.int64)
        corrected = np.asarray(corrected, dtype=np.int64)
        confidence = np.asarray(confidence, dtype=np.float64)
        n = noisy.shape[0]
        if corrected.shape[0] != n or confidence.shape[0] != n:
            raise ValidationError("label state arrays must share one length")
        if n_classes < 1:
            raise ValidationError("n_classes must be positive")
        for name, arr in (("noisy", noisy), ("corrected", corrected)):
            if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
                raise ValidationError("%s label outside [0, %d)" % (name, n_classes))
        if confidence.size and (confidence.min() < 0 or confidence.max() > 1):
            raise ValidationError("confidence outside [0, 1]")
        self.noisy = noisy
        self.corrected = corrected
        self.confidence = confidence
        self.n_classes = int(n_classes)
        self.n_samples = n


class CorrectionReport:
    """One epoch's correction outcome, per sample plus a summary."""

    def __init__(self, epoch, noisy, corrected, confidence, correction_accuracy=None):
        self.epoch = int(epoch)
        self.noisy = np.asarray(noisy, dtype=np.int64)
        self.corrected = np.asarray(corrected, dtype=np.int64)
        self.confidence = np.asarray(confidence, dtype=np.float64)
        if not (self.noisy.shape == self.corrected.shape == self.confidence.shape):
            raise ValidationError("report arrays must share one length")
        self.changed = self.corrected != self.noisy
        self.n_samples = self.noisy.shape[0]
        self.n_changed = int(self.changed.sum())
        self.mean_confidence = float(self.confidence.mean()) if self.n_samples else 0.0
        self.correction_accuracy = (
            None if correction_accuracy is None else float(correction_accuracy)
        )

    def summary(self):
        out = {
            "n_changed": self.n_changed,
            "mean_confidence": self.mean_confidence,
        }
        if self.correction_accuracy is not None:
            out["correction_accuracy"] = self.correction_accuracy
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CorrectionReport)
            and self.epoch == other.epoch
            and bool(np.array_equal(self.noisy, other.noisy))
            and bool(np.array_equal(self.corrected, other.corrected))
            and bool(np.array_equal(self.confidence, other.confidence))
            and self.correction_accuracy == other.correction_accuracy
        )


def save_features(path, features):
    """Write a FeatureMatrix in the binary feature format."""
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    header = MAGIC_FEATURES + np.array(
        [features.n_samples, features.dim, 0], dtype="<u4"
    ).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(features.data.astype("<f4", copy=False).tobytes())


def load_features(path):
    """Read a feature binary, rejecting malformed or non-finite content."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_FEATURES:
        raise BadMagicError("bad magic %r, expected %r" % (blob[:4], MAGIC_FEATURES), offset=0)
    if len(blob) < HEADER_SIZE:
        raise TruncatedPayloadError("incomplete header", offset=len(blob))
    n, d, reserved = np.frombuffer(blob[4:HEADER_SIZE], dtype="<u4")
    if reserved != 0:
        raise FormatError("reserved header field must be 0", offset=12)
    expected = HEADER_SIZE + int(n) * int(d) * 4
    if len(blob) < expected:
        raise TruncatedPayloadError(
            "payload holds %d bytes, header promises %d"
            % (len(blob) - HEADER_SIZE, expected - HEADER_SIZE),
            offset=len(blob),
        )
    if len(blob) > expected:
        raise FormatError("trailing bytes after payload", offset=expected)
    values = np.frombuffer(blob, dtype="<f4", count=int(n) * int(d), offset=HEADER_SIZE)
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteValueError(
            "non-finite value at element %d" % bad, offset=HEADER_SIZE + bad * 4
        )
    return FeatureMatrix(values.reshape(int(n), int(d)))


def save_labels(path, labels, clean=None):
    """Write labels one per line; clean labels become a second column."""
    labels = np.asarray(labels, dtype=np.int64)
    lines = []
    if clean is None:
        for v in labels:
            lines.append("%d" % v)
    else:
        clean = np.asarray(clean, dtype=np.int64)
        if clean.shape != labels.shape:
            raise ValidationError("clean labels must match noisy labels in length")
        for v, c in zip(labels, clean):
            lines.append("%d,%d" % (v, c))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def load_label_columns(path, n_classes=None):
    """Read the label text format, returning (labels, clean-or-None).

    When every nonempty line carries exactly two comma-separated fields
    the file is treated as two columns (noisy, clean); otherwise all
    fields are flattened in reading order into a single label list.
    """
    with open(path) as fh:
        raw = fh.read()
    rows = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        fields = [f.strip() for f in line.split(",") if f.strip()]
        if not fields:
            continue
        parsed = []
        for f in fields:
            try:
                parsed.append(int(f))
            except ValueError:
                raise ValidationError("non-integer label %r" % f, row=lineno)
        rows.append((lineno, parsed))

    def check(value, lineno):
        if value < 0 or (n_classes is not None and value >= n_classes):
            raise ValidationError(
                "label %d outside [0, %s)" % (value, n_classes), row=lineno
            )
        return value

    if rows and all(len(parsed) == 2 for _, parsed in rows):
        noisy = np.array([check(p[0], ln) for ln, p in rows], dtype=np.int64)
        clean = np.array([check(p[1], ln) for ln, p in rows], dtype=np.int64)
        return noisy, clean
    flat = []
    for lineno, parsed in rows:
        for value in parsed:
            flat.append(check(value, lineno))
    return np.array(flat, dtype=np.int64), None


def load_labels(path, n_classes=None):
    """Read labels, dropping the optional clean column."""
    return load_label_columns(path, n_classes)[0]


def check_pairing(features, labels):
    """Reject feature/label inputs of unequal length before any pipeline stage."""
    n = labels.shape[0]
    if features.n_samples != n:
        raise ValidationError(
            "feature file has %d samples but label file has %d"
            % (features.n_samples, n)
        )


def save_report(path, report):
    """Write a CorrectionReport in the line-oriented report format."""
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


def load_report(path):
    """Read a report written by save_report, restoring fields exactly.

    Anything but a complete report (a non-ASCII byte, a missing final
    newline, a missing or extra line, an unparsable field) raises
    FormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as err:
        raise FormatError("non-ASCII byte in report", offset=err.start)
    if not text.endswith("\n"):
        raise FormatError("report does not end with a newline", offset=len(blob))
    lines = text[:-1].split("\n")
    if lines[0] != "MLCR v1":
        raise FormatError("missing report header line")
    try:
        (epoch_key, epoch), (n_key, n) = (line.split() for line in lines[1:3])
        epoch, n = int(epoch), int(n)
    except ValueError:
        raise FormatError("malformed report header fields")
    if epoch_key != "epoch" or n_key != "n_samples" or n < 0:
        raise FormatError("malformed report header fields")
    if len(lines) != n + 5:
        raise FormatError("report for %d samples holds %d lines, expected %d"
                          % (n, len(lines), n + 5))
    noisy = np.empty(n, dtype=np.int64)
    corrected = np.empty(n, dtype=np.int64)
    confidence = np.empty(n, dtype=np.float64)
    for i in range(n):
        parts = lines[4 + i].split()
        try:
            # unpacking exactly four integers also pins the field count at 5
            index, noisy[i], corrected[i], changed = map(int, parts[:3] + parts[4:])
            confidence[i] = float(parts[3])
        except (ValueError, OverflowError):
            index = changed = None
        if index != i or changed != int(noisy[i] != corrected[i]):
            raise FormatError("malformed record line %d" % (4 + i + 1))
    summary_line = lines[4 + n]
    if not summary_line.startswith("summary "):
        raise FormatError("missing summary line")
    try:
        summary = json.loads(summary_line[len("summary "):])
    except ValueError:
        summary = None
    if not isinstance(summary, dict):
        raise FormatError("malformed report summary")
    accuracy = summary.get("correction_accuracy")
    if not (accuracy is None or isinstance(accuracy, (int, float))):
        raise FormatError("malformed report summary")
    return CorrectionReport(
        epoch,
        noisy,
        corrected,
        confidence,
        correction_accuracy=accuracy,
    )


def save_model_vector(path, theta, dim, hidden, n_classes):
    """Write a flat parameter vector with a model-shape header."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    header = MAGIC_MODEL + np.array([dim, hidden, n_classes], dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(theta.astype("<f8", copy=False).tobytes())


def load_model_vector(path):
    """Read a checkpoint, returning (theta, dim, hidden, n_classes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC_MODEL:
        raise BadMagicError("bad magic %r, expected %r" % (blob[:4], MAGIC_MODEL), offset=0)
    if len(blob) < HEADER_SIZE:
        raise TruncatedPayloadError("incomplete header", offset=len(blob))
    dim, hidden, n_classes = (int(v) for v in np.frombuffer(blob[4:HEADER_SIZE], dtype="<u4"))
    expected = dim * hidden + hidden + hidden * n_classes + n_classes
    payload = HEADER_SIZE + expected * 8
    if len(blob) < payload:
        raise TruncatedPayloadError("model payload truncated", offset=len(blob))
    if len(blob) > payload:
        raise FormatError("trailing bytes after payload", offset=payload)
    theta = np.frombuffer(blob, dtype="<f8", count=expected, offset=HEADER_SIZE).copy()
    return theta, dim, hidden, n_classes


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path

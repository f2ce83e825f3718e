"""Domain types, error taxonomy, and bit-exact file formats.

Both binary formats share one codec (save_binary/load_binary): a
16-byte header of a 4-byte ASCII magic and three u32 little-endian
fields, then a little-endian payload.  Bad magic, a short header or
payload and trailing bytes raise FormatError naming the byte offset.
Features ("MLCF") carry the sample count, the dimension and a reserved
0, then n*d IEEE-754 32-bit values in row-major order; model
checkpoints ("MLCK") are laid out in branches.  Labels are
comma/newline-separated integer text with an optional second column
holding clean labels for evaluation.  Reports are line-oriented text
with a JSON summary block, floats written with repr so parsing restores
the exact binary value; one renderer writes them, and load_report
accepts exactly the text save_report writes for the report it parses.
"""

import dataclasses
import json
import math
import os

import numpy as np

MAGIC_FEATURES = b"MLCF"
HEADER_SIZE = 16
# the largest value a u32 header field holds
FIELD_MAX = 2**32 - 1


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


def require_finite(config):
    """Raise ValidationError naming the first float field of a config
    dataclass that is nan or infinite; range checks on such values would
    pass or fail by accident of the comparison."""
    for field in dataclasses.fields(config):
        if field.type is float and not math.isfinite(getattr(config, field.name)):
            raise ValidationError("%s must be finite" % field.name)


def cast_fields(config):
    """Cast the int, float and bool fields of a config dataclass to their
    declared types, after its checks have run on the values as given."""
    for field in dataclasses.fields(config):
        if field.type in (int, float, bool):
            setattr(config, field.name, field.type(getattr(config, field.name)))


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
        self.n_samples = self.noisy.shape[0]
        self.correction_accuracy = (
            None if correction_accuracy is None else float(correction_accuracy)
        )

    # read off the current arrays, so a summary never goes stale when a
    # caller changes them after construction
    @property
    def changed(self):
        return self.corrected != self.noisy

    @property
    def n_changed(self):
        return int(self.changed.sum())

    @property
    def mean_confidence(self):
        return float(self.confidence.mean()) if self.n_samples else 0.0

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


def save_binary(path, magic, fields, dtype, payload):
    """Write the shared binary layout: magic, the three u32 header
    fields, then the payload's values as `dtype`."""
    with open(path, "wb") as fh:
        fh.write(magic + np.array(fields, dtype="<u4").tobytes())
        fh.write(np.asarray(payload, dtype=dtype).tobytes())


def load_binary(path, magic, dtype, count):
    """Read a file in save_binary's layout, returning (fields, payload).

    `count(fields)` gives the payload's length in `dtype` values and may
    reject the header itself.  The payload is a read-only view of the
    file's bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise BadMagicError("bad magic %r, expected %r" % (blob[:4], magic), offset=0)
    if len(blob) < HEADER_SIZE:
        raise TruncatedPayloadError("incomplete header", offset=len(blob))
    fields = tuple(int(v) for v in np.frombuffer(blob[4:HEADER_SIZE], dtype="<u4"))
    size = count(fields)
    end = HEADER_SIZE + size * np.dtype(dtype).itemsize
    if len(blob) < end:
        raise TruncatedPayloadError(
            "payload holds %d bytes, header promises %d"
            % (len(blob) - HEADER_SIZE, end - HEADER_SIZE),
            offset=len(blob),
        )
    if len(blob) > end:
        raise FormatError("trailing bytes after payload", offset=end)
    return fields, np.frombuffer(blob, dtype=dtype, count=size, offset=HEADER_SIZE)


def save_features(path, features):
    """Write a FeatureMatrix in the binary feature format."""
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    save_binary(path, MAGIC_FEATURES, (features.n_samples, features.dim, 0), "<f4",
                features.data)


def _feature_count(fields):
    n, d, reserved = fields
    if reserved != 0:
        raise FormatError("reserved header field must be 0", offset=12)
    return n * d


def load_features(path):
    """Read a feature binary, rejecting malformed or non-finite content."""
    (n, d, _), values = load_binary(path, MAGIC_FEATURES, "<f4", _feature_count)
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteValueError(
            "non-finite value at element %d" % bad, offset=HEADER_SIZE + bad * 4
        )
    return FeatureMatrix(values.reshape(n, d))


def save_labels(path, labels, clean=None):
    """Write labels one per line; clean labels become a second column."""
    labels = np.asarray(labels, dtype=np.int64)
    if clean is None:
        lines = ["%d\n" % v for v in labels.tolist()]
    else:
        clean = np.asarray(clean, dtype=np.int64)
        if clean.shape != labels.shape:
            raise ValidationError("clean labels must match noisy labels in length")
        lines = ["%d,%d\n" % row for row in zip(labels.tolist(), clean.tolist())]
    with open(path, "w") as fh:
        fh.writelines(lines)


def load_label_columns(path, n_classes=None):
    """Read the label text format, returning (labels, clean-or-None).

    When every nonempty line carries exactly two comma-separated fields
    the file is treated as two columns (noisy, clean); otherwise all
    fields are flattened in reading order into a single label list.
    A byte that is not UTF-8 raises FormatError; a field that is not an
    integer in [0, n_classes), or in int64 range when n_classes is None,
    raises ValidationError.  Both name the row.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        raw = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        # the bad byte sits on the line a character placed there would
        head = blob[:err.start].decode("utf-8") + "x"
        raise FormatError(
            "non-UTF-8 byte in label row %d" % len(head.splitlines()),
            offset=err.start,
        )
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

    stop = 2**63 if n_classes is None else n_classes

    def check(value, lineno):
        if not 0 <= value < stop:
            raise ValidationError(
                "label %d outside [0, %d)" % (value, stop), row=lineno
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


def _report_text(report):
    """The report format: the text save_report writes for `report`."""
    lines = [
        "MLCR v1",
        "epoch %d" % report.epoch,
        "n_samples %d" % report.n_samples,
        "columns index noisy corrected confidence changed",
    ]
    lines.extend(
        "%d %d %d %r %d" % row
        for row in zip(
            range(report.n_samples),
            report.noisy.tolist(),
            report.corrected.tolist(),
            report.confidence.tolist(),
            report.changed.tolist(),
        )
    )
    lines.append("summary %s" % json.dumps(report.summary(), sort_keys=True))
    lines.append("")
    return "\n".join(lines)


def save_report(path, report):
    """Write a CorrectionReport in the line-oriented report format."""
    with open(path, "w") as fh:
        fh.write(_report_text(report))


def load_report(path):
    """Read a report written by save_report, restoring fields exactly.

    The epoch, the record columns and the summary's accuracy are parsed
    leniently and the report rebuilt from them; the file must then be
    the very text save_report writes for that report.  Anything else (a
    non-ASCII byte, an unparsable field, a line that differs, such as a
    summary that disagrees with the records) raises FormatError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as err:
        raise FormatError("non-ASCII byte in report", offset=err.start)
    lines = text.split("\n")
    try:
        rows = [line.split() for line in lines[4:-2]]
        report = CorrectionReport(
            int(lines[1].split()[1]),
            [int(row[1]) for row in rows],
            [int(row[2]) for row in rows],
            [float(row[3]) for row in rows],
            json.loads(lines[-2].partition(" ")[2]).get("correction_accuracy"),
        )
    except (IndexError, ValueError, TypeError, AttributeError, OverflowError,
            RecursionError):
        raise FormatError("malformed report") from None
    expected = _report_text(report)
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        raise FormatError(
            "report line %d differs from the report layout" % (text.count("\n", 0, at) + 1),
            offset=at,
        )
    return report


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path

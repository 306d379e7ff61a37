"""File formats: shot-record CSV, result JSON/CSV serialization.

The shot CSV carries one tally per row under the header ``m,shots,ones`` with
an optional trailing ``label`` column (circuit/machine tag).  Rows need not
be sorted; duplicate depths within one label are merged by summing.  All
numeric output is serialized with 12 significant digits.

This module reads shot CSVs and renders every output as text; it writes no
file.  The CLI writes that text to stdout or to an ``--out`` file.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import math
import re
from pathlib import Path

from .device import ShotRecord
from .estimation import AmplitudeEstimate, ShotSchedule
from .experiments import RmseCurve
from .fitting import MODEL_KINDS, FitResult

_HEADERS = (["m", "shots", "ones"], ["m", "shots", "ones", "label"])
# A tally cell: ASCII digits with an optional minus sign, nothing else, and a
# value in the signed 64-bit range (so at most 19 digits after leading zeros).
_INTEGER = re.compile(r"(-?)0*([0-9]{1,19})")


def _plain_integer(text: str) -> int | None:
    """``text`` as an int if it is a tally cell by the rule above, else None.

    A value past the range could end in an ``OverflowError`` in the float
    and numpy arithmetic downstream, far from where it entered.
    """
    match = _INTEGER.fullmatch(text)
    if match is None:
        return None
    value = int(match[1] + match[2])  # int() refuses over 4300 digits, leading zeros too
    return value if -(2**63) <= value < 2**63 else None


def fmt12(x: float) -> str:
    """Format a float with 12 significant digits."""
    return f"{x:.12g}"


def round12(value):
    """Recursively round floats in a JSON-ready structure to 12 significant digits."""
    if isinstance(value, float):
        return float(fmt12(value)) if math.isfinite(value) else value
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def dump_json(obj) -> str:
    """Render as JSON text (12-significant-digit floats)."""
    return json.dumps(round12(obj), indent=2) + "\n"


def _csv_rows(reader, path):
    """``reader``'s rows; a ``csv.Error`` (a cell past csv's field size limit) becomes a ValueError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


@contextlib.contextmanager
def _open_utf8(path: str | Path, newline: str | None = None):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 is refused with its line."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # The decoder's offset counts from its chunk: decode the bytes whole for the file's.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = 1 + len(re.findall(rb"\r\n?|\n", data[:exc.start]))
            raise ValueError(
                f"{path}: line {line}: not UTF-8 ({exc.reason}, byte 0x{data[exc.start]:02x})"
            ) from None
        raise


def read_shot_csv(path: str | Path) -> dict[str, list[ShotRecord]]:
    """Parse a shot CSV into records grouped by label.

    Unlabeled files map to the empty-string label.  Duplicate (label, m)
    rows are merged by summing shots and ones; records are returned sorted
    by depth.

    Raises:
        ValueError: malformed header/row (with line number), a cell longer
            than csv's field size limit, a tally that is not an ASCII integer
            ``-?[0-9]+`` in the signed 64-bit range, a row whose tallies
            violate 0 <= ones <= shots, duplicate rows whose merged shots
            pass that range, a file without tally rows, or a file that is
            not UTF-8.
    """
    with _open_utf8(path, newline="") as fh:
        reader = _csv_rows(csv.reader(fh), path)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header not in _HEADERS:
            raise ValueError(
                f"{path}: line 1: header must be 'm,shots,ones[,label]', got {','.join(header)!r}"
            )
        has_label = len(header) == 4
        merged: dict[tuple[str, int], list[int]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields")
            tallies = [_plain_integer(cell) for cell in row[:3]]
            if None in tallies:
                raise ValueError(
                    f"{path}: line {lineno}: m, shots, ones must be integers "
                    "in the signed 64-bit range"
                )
            m, shots, ones = tallies
            label = row[3] if has_label else ""
            if m < 0 or shots < 1 or not (0 <= ones <= shots):
                raise ValueError(
                    f"{path}: line {lineno}: invalid tally m={m} shots={shots} ones={ones}"
                )
            bucket = merged.setdefault((label, m), [0, 0])
            bucket[0] += shots
            bucket[1] += ones
            if bucket[0] >= 2**63:  # ones <= shots, so the merged ones fit too
                raise ValueError(
                    f"{path}: line {lineno}: merged shots of label {label!r} at depth {m} "
                    f"pass the signed 64-bit range: {bucket[0]}"
                )
    if not merged:
        raise ValueError(f"{path}: no tally rows")
    grouped: dict[str, list[ShotRecord]] = {}
    for (label, m), (shots, ones) in sorted(merged.items()):
        grouped.setdefault(label, []).append(ShotRecord(m=m, shots=shots, ones=ones))
    return grouped


def write_shot_csv(records: dict[str, list[ShotRecord]] | list[ShotRecord]) -> str:
    """Render records as shot CSV text (LF line endings).

    A plain list is written unlabeled; a dict keyed by label includes the
    label column unless the only label is the empty string.
    """
    grouped = {"": records} if isinstance(records, list) else records
    with_label = any(label for label in grouped)
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # csv quotes a field holding "\n" but not a bare "\r", which a reader
    # takes for a line end; such a label is quoted here.
    quoting = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(_HEADERS[1] if with_label else _HEADERS[0])
    for label in sorted(grouped):
        row_writer = quoting if "\r" in label else writer
        for record in sorted(grouped[label], key=lambda r: r.m):
            row = [record.m, record.shots, record.ones]
            if with_label:
                row.append(label)
            row_writer.writerow(row)
    return buf.getvalue()


def fit_result_dict(result: FitResult) -> dict:
    """JSON-ready form of one fit result."""
    return {
        "label": result.label,
        "model": result.model_kind,
        "theta_hat": result.theta_hat,
        "sse": result.sse,
        "r_squared": result.r_squared,
        "converged": result.converged,
        "residuals": list(result.residuals),
        **result.noise_params.to_dict(),
    }


def report_csv(rows: list[dict]) -> str:
    """Render a fit_report comparison table as CSV.

    Columns: label, one R^2 column per family, and the best-flagged families
    joined by '+'.
    """
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", *MODEL_KINDS, "best"])
    for row in rows:
        r2s = row["r_squared"]
        writer.writerow(
            [
                row["label"],
                *[fmt12(r2s[kind]) if kind in r2s else "" for kind in MODEL_KINDS],
                "+".join(row["best"]),
            ]
        )
    return buf.getvalue()


def estimate_dict(estimate: AmplitudeEstimate, label: str = "") -> dict:
    """JSON-ready form of one amplitude estimate."""
    return {
        "label": label,
        "method": estimate.method,
        "theta_hat": estimate.theta_hat,
        "a_hat": estimate.a_hat,
        "log_likelihood": estimate.log_likelihood,
        "n_clamped": estimate.n_clamped,
        "flat_likelihood": estimate.flat_likelihood,
    }


def schedule_dict(schedule: ShotSchedule) -> dict:
    """JSON-ready form of a shot schedule."""
    return {"entries": [{"m": m, "n_shots": n} for m, n in schedule.entries]}


def curves_csv(curves: list[RmseCurve]) -> str:
    """Tidy CSV of RMSE curves: setting, x_kind, x, rmse."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["setting", "x_kind", "x", "rmse"])
    for curve in curves:
        for x, rmse in curve.points:
            writer.writerow([curve.setting, curve.x_kind, fmt12(x), fmt12(rmse)])
    return buf.getvalue()

"""The trace CSV and the text reports: one written format, its quantize rule,
its writer and its parser.

Trace CSV contract: one row per step, columns

    t, x, y, z, vx, vy, vz, roll, pitch, yaw, wx, wy, wz,
    u_des_1..u_des_4, u_star_1..u_star_4,
    then h_<label>, sep_<label> per obstacle in obstacle order,

every float printed with 9 significant digits (``FLOAT_FORMAT``). The layout
is spelled once, in ``trace_columns``, and ``SimTrace.table`` holds the rows
in that order, already rounded by the run (``_quantize``) to the values the
file parses back to; so a trace is written and parsed as one table,
re-parsing reproduces it exactly and re-writing is byte-identical.

Quantizing and printing share one rule, ``_nine_digits``: where it finds a
value's 9-digit significand n and exponent, those are the digits "%.8e"
prints, so ``_quantize`` computes the value the string parses back and the
writer spells the cell from them: its sign, n's first digit, ".", its other
eight digits, "e" and the signed two-digit exponent; a zero, such as every
built-in's wz column, is n = 0 at exponent 0. Every other value takes
format(v, ".8e") itself. A table is printed in blocks of ``_QUANTIZE_ROWS``
rows, as byte arrays, and the file has the bytes of one %-format per row on
any table, quantized or not (the phi-ratio CSV).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .records import check_label, file_access, shown_path

FLOAT_FORMAT = ".8e"  # 9 significant digits, in the trace and in the file
STATE_COLUMNS = (
    "x", "y", "z", "vx", "vy", "vz", "roll", "pitch", "yaw", "wx", "wy", "wz",
)
_QUANTIZE_ROWS = 256  # rows per block of _quantize and of the writer
_POW10 = np.array([float(10**k) for k in range(23)])  # exact as doubles


def trace_columns(labels: tuple[str, ...]) -> list[str]:
    """The trace CSV header, which is also the column order of SimTrace.table."""
    columns = ["t", *STATE_COLUMNS]
    columns += [f"u_des_{i}" for i in range(1, 5)]
    columns += [f"u_star_{i}" for i in range(1, 5)]
    for label in labels:
        columns += [f"h_{label}", f"sep_{label}"]
    return columns


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-step record of one closed-loop run (table floats 9-digit quantized).

    ``table`` is the CSV contract, columns ``trace_columns(obstacle_labels)``;
    t, states, u_des, u_star, h and separation are read-only views of it.
    half_angles and ref_positions exist in memory only.
    """

    name: str
    filter_kind: str
    obstacle_labels: tuple[str, ...]
    table: np.ndarray  # (N, 21 + 2 n_obs)
    half_angles: np.ndarray | None = None  # (N, n_obs), filter's phi
    ref_positions: np.ndarray | None = None  # (N, 3)

    def __post_init__(self):
        self.table.setflags(write=False)

    # the column groups of trace_columns, as views of the table
    t = property(lambda self: self.table[:, 0])
    states = property(lambda self: self.table[:, 1:13])
    u_des = property(lambda self: self.table[:, 13:17])
    u_star = property(lambda self: self.table[:, 17:21])
    h = property(lambda self: self.table[:, 21::2])  # (N, n_obs)
    separation = property(lambda self: self.table[:, 22::2])  # (N, n_obs)


def _nine_digits(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, n, k) of every entry v of block: where fast, FLOAT_FORMAT
    prints v as its sign, the 9-digit significand n (a float in [1e8, 1e9))
    and the exponent 8 - k, so the value it parses back is n 10^-k.

    With e = floor(log10|v|) and the power of ten 10^|k|, k = 8 - e, exact
    (|k| <= 22), x = |v| 10^k is the correctly rounded scaled value and n =
    rint(x). n is the significand the exact |v| rounds to, and e its
    exponent, wherever x in [1e8, 1e9 - 1) lies more than 1e-6 (far beyond
    x's rounding error, under 1e-7) from a half-integer; then the quotient
    or product of n and that power is the correctly rounded n 10^-k. A zero
    is fast too, with n = 0 and k = 8, which spells its sign and
    "0.00000000e+00" and parses back to itself. fast is false elsewhere:
    non-finite values, subnormals, exponents outside [-14, 30], near ties
    and carries into a tenth digit. Those entries take the string rule
    itself, and their n and k are stand-ins.
    """
    a = np.abs(block)
    zero = a == 0.0
    e = np.floor(np.log10(np.where(zero, 1.0, a)))  # a zero at exponent 0
    fast = (e >= -14.0) & (e <= 30.0)  # false for nan and +-inf
    k = np.where(fast, 8.0 - e, 0.0).astype(np.intp)
    a = np.where(fast, a, 1e8)  # finite stand-ins, so no entry warns
    scale = _POW10[np.abs(k)]
    x = np.where(k >= 0, a * scale, a / scale)
    n = np.rint(x)
    fast &= zero | (x >= 1e8) & (x < 1e9 - 1.0) & (np.abs(x - np.floor(x) - 0.5) > 1e-6)
    return fast, n, k


def _quantize(table: np.ndarray) -> None:
    """Round every entry in place to 9 significant digits: float(format(v, ".8e")).

    Elementwise, so one pass per run equals rounding each step as recorded.
    The string rule is done as array arithmetic, in blocks of rows so that
    the temporaries stay small: a fast entry becomes sign(v) n 10^-k.
    """
    for start in range(0, table.shape[0], _QUANTIZE_ROWS):
        block = table[start : start + _QUANTIZE_ROWS]
        fast, n, k = _nine_digits(block)
        scale = _POW10[np.abs(k)]
        value = np.where(k >= 0, n / scale, n * scale)
        np.copyto(block, np.copysign(value, block), where=fast)
        slow = np.nonzero(~fast)
        if slow[0].size:
            block[slow] = [float(format(v, FLOAT_FORMAT)) for v in block[slow].tolist()]


def _fmt(value: float) -> str:
    return format(value, FLOAT_FORMAT)


# A cell is 17 bytes: its text right-aligned in the first 16, then "," or,
# at the end of a row, "\n". A cell spelled from its digits is " ", "-" or
# " ", the first digit, ".", eight digits, "e", the exponent's sign and two
# digits. No printed cell holds a space, so the output drops every " ".
_CELL = np.frombuffer(b"  0.00000000e+00,", np.uint8)


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """(the 4 ASCII digits of 0..9999, "e-14".."e+30"), built on first write."""
    quads = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    exponents = [f"e{e:+03d}" for e in range(-14, 31)]
    powers = np.frombuffer("".join(exponents).encode(), np.uint8).reshape(-1, 4)
    return (quads + ord("0")).astype(np.uint8), powers


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a block of rows, every cell as FLOAT_FORMAT prints it;
    a fast cell is spelled from its sign, n and exponent as uint8 planes."""
    quads, powers = _digit_tables()
    fast, n, k = _nine_digits(block)
    cells = np.empty(block.shape + _CELL.shape, np.uint8)
    cells[...] = _CELL
    cells[:, -1, -1] = ord("\n")
    cells[..., 1] = np.where(np.signbit(block), ord("-"), ord(" "))
    high, low = np.divmod(n.astype(np.int64), 10_000)  # 5 and 4 digits
    cells[..., 2] = high // 10_000 + ord("0")
    cells[..., 4:8] = np.take(quads, high % 10_000, axis=0)
    cells[..., 8:12] = np.take(quads, low, axis=0)
    cells[..., 12:16] = np.take(powers, 22 - k, axis=0)  # e + 14, e = 8 - k
    slow = np.nonzero(~fast)
    if slow[0].size:
        text = "".join([format(v, ">16" + FLOAT_FORMAT) for v in block[slow].tolist()])
        cells[slow[0], slow[1], :16] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 16)
    return cells.tobytes().translate(None, b" ")


def _write_csv(path: str | Path, header: list[str], table: np.ndarray) -> None:
    """The header line, then one line per row, in blocks of _QUANTIZE_ROWS."""
    with file_access(path), open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, table.shape[0], _QUANTIZE_ROWS):
            out.write(_csv_rows(table[start : start + _QUANTIZE_ROWS]))


def write_trace(path: str | Path, trace: SimTrace) -> None:
    """Write the CSV trace contract (9 significant digits per float)."""
    for label in trace.obstacle_labels:
        check_label(label)
    _write_csv(path, trace_columns(trace.obstacle_labels), trace.table)


def parse_trace(path: str | Path) -> SimTrace:
    """Read a UTF-8 trace CSV back into a SimTrace.

    Only the contract payload survives the file format: half angles and
    reference positions come back empty.
    """
    path = Path(path)
    shown = shown_path(path)
    with file_access(path):
        lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ConfigError(f"{shown}: empty trace file")
    header = lines[0].split(",")
    labels = tuple(column[2:] for column in header if column.startswith("h_"))
    if header != trace_columns(labels):
        raise ConfigError(f"{shown}: unexpected trace header")
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise ConfigError(f"{shown}: bad trace row: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ConfigError(f"{shown}: ragged trace rows")
    return SimTrace(
        name=path.stem, filter_kind="unknown", obstacle_labels=labels, table=table
    )


def metrics_text(scenario: str, filter_kind: str, metrics) -> str:
    """Key: value rendering of the fields of a ``harness.Metrics``."""
    lines = [
        f"scenario: {scenario}",
        f"filter: {filter_kind}",
        f"min_separation: {_fmt(metrics.min_separation)}",
        f"min_h: {_fmt(metrics.min_h)}",
        f"max_deviation: {_fmt(metrics.max_deviation)}",
        f"intervention_duty: {_fmt(metrics.intervention_duty)}",
        f"tracking_rms: {_fmt(metrics.tracking_rms)}",
        f"success: {'true' if metrics.success else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def comparison_text(report, gamma: float) -> str:
    """One section of a ``harness.ComparisonReport``; gamma labels the HO-CBF
    sweep point."""
    lines = [f"scenario: {report.trace_a.name}", f"hocbf_gamma: {_fmt(gamma)}"]
    for tag, trace, metrics in (
        ("a", report.trace_a, report.metrics_a),
        ("b", report.trace_b, report.metrics_b),
    ):
        lines.append(f"[{tag}] filter: {trace.filter_kind}")
        lines.append(f"[{tag}] min_separation: {_fmt(metrics.min_separation)}")
        lines.append(f"[{tag}] min_h: {_fmt(metrics.min_h)}")
        lines.append(f"[{tag}] success: {'true' if metrics.success else 'false'}")
    gap = report.metrics_a.min_separation - report.metrics_b.min_separation
    lines.append(f"separation_gap: {_fmt(gap)}")
    if report.phi_ratio.size:
        lines.append(f"phi_ratio_max: {_fmt(float(np.max(report.phi_ratio)))}")
    return "\n".join(lines) + "\n"


def write_phi_ratio(path: str | Path, report) -> None:
    """CSV of the phi'/phi trace for the HO-CBF side of a ``harness.ComparisonReport``."""
    header = ["t"] + [f"phi_ratio_{label}" for label in report.phi_ratio_labels]
    _write_csv(path, header, np.column_stack((report.t, report.phi_ratio)))

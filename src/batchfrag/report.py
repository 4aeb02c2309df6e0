"""Plain-text serialization of analytic reports, estimates, sweep grids,
and curve data.

Sweeps are written as long-form CSV, one row per cell. Metadata travels
in ``#``-prefixed comment lines so ordinary CSV readers skip it. Files are
UTF-8 with lone line feeds and contain nothing run-dependent: identical
inputs give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    ModelParams,
    expected_fragments,
    expected_recall_size,
    fragment_stats,
    recall_limit_batch_inf,
    recall_limit_order_inf,
    recall_probability,
    recall_probability_exact,
)
from .montecarlo import SweepGrid, TrialEstimate
from .simulation import FulfillmentOutcome

__all__ = [
    "write_text",
    "write_sweep",
    "write_fragments_curve",
    "render_analytic",
    "render_summary",
    "render_outcome",
]

LONG_CSV_HEADER = "order_size,batch_size,analytic_recall,sim_mean,abs_error,ci95_half_width"


def _fmt(value: float) -> str:
    """Fixed-point text with the six decimals every report uses."""
    return f"{value:.6f}"


def write_text(path: str | Path,
               text: str | bytes | Iterable[str | bytes]) -> Path:
    """Write ``text``, or each of its chunks in turn, to ``path``; every
    file the package writes goes through here.

    A chunk may be str or bytes: bytes are written as they are, str as
    UTF-8, and no line ending is translated, so the file holds lone line
    feeds wherever the text does.
    """
    with open(path, "wb") as fh:
        for chunk in [text] if isinstance(text, (str, bytes)) else text:
            fh.write(chunk if isinstance(chunk, bytes)
                     else chunk.encode("utf-8"))
            del chunk  # hold one chunk, not two, while the next is made
    return Path(path)


def _grid_comment(grid: SweepGrid) -> str:
    n = "" if grid.n_trials is None else str(grid.n_trials)
    seed = "" if grid.base_seed is None else str(grid.base_seed)
    err = ("" if grid.mean_abs_error_pct is None
           else _fmt(grid.mean_abs_error_pct))
    return (f"# quantity={grid.total_quantity}"
            f" crisis_prob={_fmt(grid.crisis_prob)}"
            f" n_trials={n} base_seed={seed} mean_abs_error_pct={err}")


# Sweep CSVs are rendered block by block. A block is a (bytes x cells) uint8
# matrix, one contiguous row per byte position of a cell's line, with NUL
# wherever a field is shorter than its rows: transposed once it holds the
# lines in order, and one translate drops the NULs. Axis labels are str() of
# each label, once per grid. A value x is written from the integer
# N = rint(y), y = x * 1e6, with digits from a three-digit table, wherever N
# provably equals '%.6f' % x: the sign bit of x is clear, y < 2**51 (so x is
# finite), and y - floor(y) != 0.5. Proof: below 2**51, spacing(y) <= 1/4,
# so y, floor(y) and floor(y) + 0.5 are multiples of spacing(y), and
# y - floor(y) and the test are exact. A y that is not a tie therefore lies
# at least spacing(y) from floor(y) + 0.5, the half-integer nearest it,
# while the exact product x * 10**6 lies within spacing(y) / 2 of y (y is
# that product rounded once). So no half-integer, and no tie, lies between
# y and the exact product, and both round to N, which is what '%.6f' prints
# of the binary value. Every other value (ties, negatives, -0.0, nan, inf,
# and x >= 2**51 / 1e6) gets a _MARK byte, where b'%.6f' % x is spliced in;
# its y is set to 0 first. The integer part has exactly as many rows as the
# column's largest N // 10**6 has digits. Digits are split off with // by a Python
# int, which numpy runs through libdivide; its % and divmod do not use it
# and cost about three times as much, so a remainder is taken as
# a - (a // d) * d.
_BLOCK_CELLS = 8192
_MARK = 1
# "%03d" of 0..999, one column per number: row i holds every number's digit i
_DIGITS = np.frombuffer("".join(f"{k:03d}" for k in range(1000)).encode(),
                        np.uint8).reshape(1000, 3).T.copy()


def _label_rows(labels: Sequence[int]) -> np.ndarray:
    """One column per label: its str() in ASCII, NUL-padded to the longest."""
    texts = np.array([str(v) for v in labels], dtype=np.bytes_)
    return texts.view(np.uint8).reshape(len(labels), -1).T.copy()


def _micro_units(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """N of each value, whether N prints it exactly, and how many digits
    the largest N // 10**6 has; see the rule above."""
    with np.errstate(over="ignore"):
        y = x * 1e6
    fast = ~np.signbit(x) & (y < 2.0**51)
    y = np.where(fast, y, 0.0)
    fast &= y - np.floor(y) != 0.5
    micro = np.rint(y).astype(np.int64)
    return micro, fast, len(str(micro.max() // 10**6))


def _put_fixed(rows: np.ndarray, micro: np.ndarray, digits: int) -> None:
    """Write micro-unit counts into ``rows`` (digits + 7 of them) as
    fixed-point text with six decimals, leading zeros as NUL."""
    whole = micro // 10**6
    frac = micro - whole * 10**6
    rest = whole
    for k in range(digits - 3, 0, -3):  # three-digit groups, lowest first
        high = rest // 1000
        np.take(_DIGITS, rest - high * 1000, axis=1, mode="clip",
                out=rows[k:k + 3])
        rest = high
    top = (digits - 1) % 3 + 1  # digits of the highest group
    np.take(_DIGITS[3 - top:], rest, axis=1, mode="clip", out=rows[:top])
    rows[:digits - 1] *= whole >= 10**np.arange(digits - 1, 0, -1)[:, None]
    rows[digits] = ord(".")
    high = frac // 1000
    np.take(_DIGITS, high, axis=1, mode="clip", out=rows[digits + 1:digits + 4])
    np.take(_DIGITS, frac - high * 1000, axis=1, mode="clip",
            out=rows[digits + 4:])


def _render_cells(columns: list[np.ndarray], orders: np.ndarray,
                  batches: np.ndarray, tail: bytes, start: int,
                  stop: int) -> bytes:
    """The CSV lines of cells start..stop, counted order-size-major."""
    b = np.arange(start, stop)
    o = b // batches.shape[1]
    b -= o * batches.shape[1]
    values = [_micro_units(c[start:stop]) for c in columns]
    rows = (len(orders) + 1 + len(batches) + len(tail)
            + sum(digits + 8 for *_, digits in values))
    out = np.empty((rows, stop - start), np.uint8)
    r = len(orders)
    np.take(orders, o, axis=1, mode="clip", out=out[:r])
    out[r] = ord(",")
    np.take(batches, b, axis=1, mode="clip", out=out[r + 1:r + 1 + len(batches)])
    r += 1 + len(batches)
    for micro, fast, digits in values:
        out[r] = ord(",")
        field = out[r + 1:r + digits + 8]
        _put_fixed(field, micro, digits)
        if not fast.all():
            field[:, ~fast] = 0
            field[0, ~fast] = _MARK
        r += digits + 8
    out[r:] = np.frombuffer(tail, np.uint8)[:, None]
    text = out.T.tobytes().translate(None, b"\0")
    if all(fast.all() for _, fast, _ in values):
        return text
    slow = ~np.stack([fast for _, fast, _ in values], axis=1)
    cells = np.stack([c[start:stop] for c in columns], axis=1)[slow]
    pieces = text.split(bytes([_MARK]))
    pieces[1:] = [s for x, piece in zip(cells.tolist(), pieces[1:])
                  for s in (b"%.6f" % x, piece)]
    return b"".join(pieces)


def _render_long(grid: SweepGrid) -> Iterator[bytes]:
    """The long CSV of ``grid``, one chunk per block of cells."""
    yield (LONG_CSV_HEADER + "\n").encode()
    columns = [grid.analytic]
    tail = b",,,\n"
    if grid.sim_mean is not None:
        columns += [grid.sim_mean, grid.abs_error, grid.ci95_half_width]
        tail = b"\n"
    columns = [np.asarray(c, dtype=np.float64).ravel() for c in columns]
    orders = _label_rows(grid.order_sizes)
    batches = _label_rows(grid.batch_sizes)
    for start in range(0, columns[0].size, _BLOCK_CELLS):
        stop = min(start + _BLOCK_CELLS, columns[0].size)
        yield _render_cells(columns, orders, batches, tail, start, stop)
    yield (_grid_comment(grid) + "\n").encode()


def write_sweep(grid: SweepGrid, path: str | Path) -> Path:
    """Write a sweep grid as long-form CSV and return its path.

    The fixed header, one row per cell in order-size-major order
    (simulation columns left empty on analytic-only grids), and a trailing
    comment recording quantity, crisis probability, trial count, base
    seed, and the mean absolute error in percent of the quantity.
    """
    return write_text(path, _render_long(grid))


def write_fragments_curve(order_size: int, batch_sizes: Sequence[int],
                          path: str | Path) -> Path:
    """Expected fragment count of one order size across batch sizes.

    Emits ``batch_size,expected_fragments`` rows, one per batch size.
    """
    lines = ["batch_size,expected_fragments"]
    for b in batch_sizes:
        fr = expected_fragments(ModelParams(order_size, b, order_size, 0.0))
        lines.append(f"{b},{_fmt(float(fr))}")
    return write_text(path, "\n".join(lines) + "\n")


def render_analytic(params: ModelParams) -> str:
    """The closed-form quantities at one parameter point, with the exact
    fractions of the fragment distribution next to their decimals."""
    stats = fragment_stats(params)
    q, p = params.total_quantity, params.crisis_prob
    lines = [
        "analytic model",
        f"  order_size            {params.order_size}",
        f"  batch_size            {params.batch_size}",
        f"  total_quantity        {params.total_quantity}",
        f"  crisis_prob           {_fmt(p)}",
        f"  fr_min                {stats.fr_min}",
        f"  fr_max                {stats.fr_max}",
        f"  p_fr_min              {_fmt(float(stats.p_fr_min))}"
        f" ({stats.p_fr_min})",
        f"  p_fr_max              {_fmt(float(stats.p_fr_max))}"
        f" ({stats.p_fr_max})",
        f"  expected_fragments    {_fmt(float(stats.expected_fragments))}"
        f" ({stats.expected_fragments})",
        f"  recall_probability    {_fmt(recall_probability(params))}",
        f"  recall_prob_exact     {_fmt(recall_probability_exact(params))}",
        f"  expected_recall_size  {_fmt(expected_recall_size(params))}",
        f"  limit_batch_inf       {_fmt(recall_limit_batch_inf(q, p))}",
        f"  limit_order_inf       {_fmt(recall_limit_order_inf(q))}",
    ]
    return "\n".join(lines) + "\n"


def render_summary(estimate: TrialEstimate, analytic: float,
                   params: ModelParams) -> str:
    """Human-readable comparison of one estimate against the closed form.

    The percent deviation is relative to the total quantity, matching the
    sweep error metric.
    """
    dev = abs(estimate.mean_recall - analytic)
    lines = [
        "recall estimate",
        f"  order_size          {params.order_size}",
        f"  batch_size          {params.batch_size}",
        f"  total_quantity      {params.total_quantity}",
        f"  crisis_prob         {_fmt(params.crisis_prob)}",
        f"  n_trials            {estimate.n_trials}",
        f"  analytic_recall     {_fmt(analytic)}",
        f"  simulated_mean      {_fmt(estimate.mean_recall)}",
        f"  std_error           {_fmt(estimate.std_error)}",
        f"  ci95                {_fmt(estimate.mean_recall)}"
        f" +/- {_fmt(estimate.ci95_half_width)}",
        f"  ci98                {_fmt(estimate.mean_recall)}"
        f" +/- {_fmt(estimate.ci98_half_width)}",
        f"  abs_deviation       {_fmt(dev)}",
        f"  pct_deviation_of_q  {_fmt(100.0 * dev / params.total_quantity)}",
    ]
    return "\n".join(lines) + "\n"


def render_outcome(outcome: FulfillmentOutcome) -> str:
    """Structured text dump of one fulfillment trial, for inspection."""
    lines = ["batches (id: consumed/size, * = crisis):"]
    for b in outcome.batches:
        flag = " *" if b.in_crisis else ""
        lines.append(f"  b{b.id}: {b.consumed}/{b.size}{flag}")
    lines.append("orders (id, size, fragments as batch:quantity):")
    recalled = outcome.recalled_order_ids or frozenset()
    for o in outcome.orders:
        frags = " ".join(f"b{bid}:{qty}" for bid, qty in o.fragments)
        mark = "  RECALLED" if o.id in recalled else ""
        lines.append(f"  o{o.id} (size {o.size}): {frags}{mark}")
    if outcome.recalled_quantity is not None:
        total = sum(o.size for o in outcome.orders)
        lines.append(f"recalled orders: {len(recalled)} of {len(outcome.orders)}")
        lines.append(f"recalled quantity: {outcome.recalled_quantity} of {total}")
    return "\n".join(lines) + "\n"

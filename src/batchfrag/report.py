"""Plain-text serialization of analytic reports, estimates, sweep grids,
and curve data.

Sweeps are written as long-form CSV, one row per cell. Metadata travels
in ``#``-prefixed comment lines so ordinary CSV readers skip it. Files are
UTF-8 with lone line feeds and contain nothing run-dependent: identical
inputs give byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

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


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 with lone line feeds; every file
    the package writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return Path(path)


def _grid_comment(grid: SweepGrid) -> str:
    n = "" if grid.n_trials is None else str(grid.n_trials)
    seed = "" if grid.base_seed is None else str(grid.base_seed)
    err = ("" if grid.mean_abs_error_pct is None
           else _fmt(grid.mean_abs_error_pct))
    return (f"# quantity={grid.total_quantity}"
            f" crisis_prob={_fmt(grid.crisis_prob)}"
            f" n_trials={n} base_seed={seed} mean_abs_error_pct={err}")


# The renderer fills one order row at a time with a single ``%``. A row's
# template is ``str(o) + ("\n" + str(o)).join(pieces)``, where the pieces,
# one per batch size, are built once per grid; the row's values (interleaved
# per cell on simulated grids) come from one ``tolist()``. ``'%.6f' % x`` and
# ``f"{x:.6f}"`` make the same ``PyOS_double_to_string(x, 'f', 6)`` call, so
# the bytes are those of per-cell f-strings, and only one string per order
# size is ever held besides the text itself.
def _render_long(grid: SweepGrid) -> str:
    if grid.sim_mean is None:
        cell, values = ",%.6f,,,", grid.analytic
    else:
        cell = ",%.6f,%.6f,%.6f,%.6f"
        values = np.stack([grid.analytic, grid.sim_mean, grid.abs_error,
                           grid.ci95_half_width], axis=-1)
    pieces = [f",{b}{cell}" for b in grid.batch_sizes]
    rows = [(o + ("\n" + o).join(pieces)) % tuple(row.ravel().tolist())
            for o, row in zip(map(str, grid.order_sizes), values)]
    return "\n".join([LONG_CSV_HEADER, *rows, _grid_comment(grid)]) + "\n"


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

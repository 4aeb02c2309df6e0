"""Monte Carlo estimation of recall sizes and analytic-vs-simulated sweeps.

The estimator runs many independent fulfillment trials and averages the
recalled quantities. Trials are embarrassingly parallel by construction:
trial i of an estimate uses the seed ``derive_seed(base_seed, i)``, and a
sweep gives the cell for sizes (o, b) the base seed
``derive_seed(base_seed, o, b)``, so any cell or trial can be recomputed
on its own with identical results. Recalled quantities are integers and
are summed exactly, which makes every estimate independent of scheduling.

For speed the trials are evaluated as numpy array operations rather than
through :func:`batchfrag.simulation.run_trial` objects, and a sweep
evaluates all cells of one batch size together. The kernel reads a subset
of the stream outputs the simulator reads: it skips a crisis flag only
for an order already known to be recalled, once one flag of that order
is set, and the rest of its flags cannot change the recall. On every
output both read, they make the same decisions: the simulator compares
``unit_float(x) < p``, the kernel the exactly equivalent integer test
``x < unit_threshold(p)``, and both draw the initial consumption with the
same float arithmetic. So they agree bit-for-bit; the test suite asserts
that parity cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (InvalidParamsError, ModelParams, _check_grid,
                    _check_positive_int, _recall_size_surface)
from .seeding import (derive_seed, derive_seeds, stream_outputs, unit_floats,
                      unit_threshold)

__all__ = [
    "Z95",
    "Z98",
    "EstimateConfig",
    "TrialEstimate",
    "SweepGrid",
    "trial_recalls",
    "estimate_recall",
    "sweep",
]

# Normal-approximation critical values used for the reported half-widths.
Z95 = 1.960
Z98 = 2.326

# Working set of one kernel chunk, in 8-byte words (1 MiB; up to 3/2 of it
# when a cell's trials are cut into equal chunks): a chunk column takes
# n_batches + 1 stream outputs plus about ten words of per-column vectors
# (seeds, draws, table indices, sums); a chunk that draws long runs
# in part (see _probe_plan) takes fewer outputs and counts its round arrays
# in the same budget. Chunks this small stay close to a core's cache, and
# memory does not grow with the trial count or the grid. A sweep also caps
# each kernel call at this many words in each batch-axis table.
_CHUNK_OUTPUTS = 1 << 17

# A kernel call reads its recalls from a _recall_table when the horizon has
# at most _TABLE_ROWS batches (a crisis pattern's code then fits a uint8),
# each cell has at least _TABLE_TRIALS trials per table entry of its own
# (B * 2**rows of them), and the table has at most _CHUNK_OUTPUTS // 4
# entries. An entry costs about what a trial's reduction costs (measured on
# a 2-vCPU Xeon): at one trial per entry validate's groups of B >= 13 ran
# 8% slower at 300 trials than without a table, and at two or four no
# slower; at 1,000 trials two was 4% faster than four. Without the size
# cap, validate's tables for B = 7 .. 12 (up to 89,600 entries) raised its
# peak RSS by 0.5 MiB.
_TABLE_ROWS = 8
_TABLE_TRIALS = 2


@dataclass(frozen=True)
class EstimateConfig:
    """One cell's trials: ``n_trials`` >= 1 and any integer ``base_seed``,
    both checked and normalised to ``int`` as :class:`ModelParams` does."""

    params: ModelParams
    n_trials: int = 10_000
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_trials",
                           _check_positive_int("n_trials", self.n_trials))
        object.__setattr__(self, "base_seed", _check_positive_int(
            "base_seed", self.base_seed, minimum=None))


@dataclass(frozen=True)
class TrialEstimate:
    """Mean recalled quantity with its sampling uncertainty.

    ``mean_recall`` is exactly ``total_recalled / n_trials`` (one division
    of the exact integer sum).
    """

    mean_recall: float
    std_error: float
    n_trials: int
    total_recalled: int

    @property
    def ci95_half_width(self) -> float:
        """``Z95 * std_error``, computed on every read."""
        return Z95 * self.std_error

    @property
    def ci98_half_width(self) -> float:
        """``Z98 * std_error``, computed on every read."""
        return Z98 * self.std_error


@dataclass(frozen=True)
class SweepGrid:
    """Analytic and simulated recall sizes over an order-size x batch-size grid.

    The four cell matrices are indexed [order_size index, batch_size index].
    Simulation fields are None on analytic-only grids.
    ``mean_abs_error_pct`` is 100 * mean(|analytic - simulated|) / Q: the
    error is expressed as a percentage of the total quantity.
    ``std_error`` is each cell's sample standard error of the mean, as
    :class:`TrialEstimate` reports it; the 95% half-width is derived from it.
    """

    total_quantity: int
    crisis_prob: float
    order_sizes: tuple[int, ...]
    batch_sizes: tuple[int, ...]
    analytic: np.ndarray
    sim_mean: np.ndarray | None = None
    abs_error: np.ndarray | None = None
    std_error: np.ndarray | None = None
    mean_abs_error_pct: float | None = None
    n_trials: int | None = None
    base_seed: int | None = None

    @property
    def ci95_half_width(self) -> np.ndarray | None:
        """``Z95 * std_error`` per cell, computed on every read."""
        return None if self.std_error is None else Z95 * self.std_error


def trial_recalls(config: EstimateConfig) -> np.ndarray:
    """Recalled quantity of every trial, as an int64 array of length n_trials.

    Entry i equals ``run_trial(TrialConfig.from_seed(params,
    derive_seed(base_seed, i)))``. This is the one-cell case of the kernel
    :func:`sweep` runs on every batch-size group (see :func:`_group_recalls`),
    and the one caller that keeps a recall per trial.
    """
    recalls = np.empty(config.n_trials, dtype=np.int64)

    def store(cell: int, trial: int, block: np.ndarray) -> None:
        recalls[trial:trial + block.shape[1]] = block[0]

    _cell_recalls(config, store)
    return recalls


def _cell_recalls(config: EstimateConfig, sink: Callable) -> None:
    """Run the trials of one cell, handing each block of recalls to ``sink``
    as :func:`_group_recalls` does."""
    params = config.params
    _check_int64_horizon(params.batch_size, params.total_quantity)
    _group_recalls((params.order_size,), params.batch_size,
                   params.total_quantity, params.crisis_prob,
                   (config.base_seed,), config.n_trials, sink)


def _group_recalls(order_sizes: Sequence[int], b: int, q: int, p: float,
                   base_seeds: Sequence[int], n: int, sink: Callable) -> None:
    """Recalls of n trials for each cell of one batch-size group, handed to
    ``sink`` block by block.

    The cells share (B, Q, p) and differ in order size (ascending) and base
    seed. ``sink(cell, trial, block)`` receives a (cells, trials) integer
    block whose entry (c, i) is the recall of trial ``trial + i`` of cell
    ``cell + c``, i.e. entry ``trial + i`` of ``trial_recalls`` of order
    size ``order_sizes[cell + c]`` and base seed ``base_seeds[cell + c]``;
    every (cell, trial) pair is handed over exactly once, and the block is
    not used after the call. Shared B and Q give every trial the same
    horizon, so all trials of the group are evaluated on output-major
    stream tables whose columns are (cell, trial) pairs, cell-major (row 0
    the u draws, row j + 1 the crisis draws of batch j):

    * row 0 -> initial consumption ``u = floor(unit * B)``,
    * rows 1.. -> crisis flags ``x < unit_threshold(p)``, the integer form of
      the simulator's ``unit < p`` (every batch when p == 1),
    * unit t of the horizon lands in batch ``(u + t) // B``; the recalled
      quantity is reduced along the shorter of the order and batch axes:
      cells with O <= B (which come first) by :func:`_batch_axis_recalls`,
      the rest by :func:`_order_axis_recalls`.

    The batch-axis cells' W and S tables are built once per call, as one
    :class:`_BatchAxis` that carries both per-call decisions: S is None
    when it is all zeros (as at O = 1), which drops the straddle term, and
    the tables are folded when their rows repeat. They repeat with the lcm
    of the cells' periods ``O / gcd(O, B)`` from row 1 until the end of the
    horizon or the last order changes them; :func:`_batch_axis_fold` reads
    off that span with one comparison of the tables against themselves a
    period later. Where it holds at least two periods, every chunk counts
    its crisis flags per residue class over the span and weighs the counts
    by one period of rows, which adds up the same integers as weighing
    every flag by its own row, so the recalls are unchanged. Other calls
    weigh every flag by its own row.

    On a short horizon (at most ``_TABLE_ROWS`` batches) with enough trials
    per cell, neither reduction runs per chunk: :func:`_recall_table` runs
    them once per call over a column for every (cell, u, crisis pattern),
    and each trial's recall is the table entry at ``(cell * B + u) *
    2**rows + code``, with ``code = sum_j crisis_j * 2**j`` taken by one
    einsum over the flags' bytes. Every row is still drawn and the entries
    are the reductions' own integers, so draws and recalls are unchanged;
    such calls build no fold and no probe plan.

    Columns are processed in chunks with a working set of about
    ``_CHUNK_OUTPUTS`` words (more on horizons past 4096 batches): whole
    cells at a time when a cell's trials fit, else an equal part of one
    cell, whose trials are cut into the nearest whole number of chunks
    (so a chunk holds 3/4 to 3/2 of the budget). Chunks are cut where the
    batch axis ends, so each chunk's cells share one axis, and each chunk
    makes one reduction (or one table lookup, which spans both axes) and
    one ``sink`` call. An order-axis chunk draws every row, unless its
    cells have runs longer than ``4 * _probe_rows(p)`` rows and it would
    skip enough rows: then it draws the rows :func:`_probe_plan` lists,
    the rest of those runs only for trials whose order is not yet
    recalled, and its width is sized from those rows. Memory beyond the
    per-cell tables and what the sink keeps therefore grows with neither n
    nor the grid (``sweep`` bounds the tables by the cells it passes); the
    recalls are exact integers, so chunking cannot change them.
    """
    # widest horizon over all initial consumptions: ceil((q + b - 1) / b)
    n_batches = (q + 2 * b - 2) // b
    threshold = unit_threshold(p)
    orders = np.array(order_sizes, dtype=np.int64)
    bases = np.array([s % 2**64 for s in base_seeds], dtype=np.uint64)
    split = int(np.searchsorted(orders, b, side="right"))
    # W and S have min(B, Q) columns even for no cell, so skip them then
    batch_axis = (_batch_axis_tables(orders[:split], b, q, n_batches)
                  if split else None)
    order_axis = _order_axis_tables(orders[split:], b, q)
    # numpy's row-by-row passes (einsum, take, outer) need a few tens of
    # columns to run at speed, so horizons past 4096 batches keep chunks
    # _CHUNK_OUTPUTS / 4096 columns wide, and the table grows with Q instead
    columns = max(1, _CHUNK_OUTPUTS // min(n_batches + 11, 4096))
    cells_per_chunk = max(1, columns // n)
    # a cell wider than a chunk is cut into the nearest whole number of equal
    # chunks, 3/4 to 3/2 of the budget wide: a last chunk of a few hundred
    # trials would cost the fixed numpy calls of a full one
    trials_per_chunk = -(-n // max(1, round(n / columns)))
    table = None
    if (n_batches <= _TABLE_ROWS and _TABLE_TRIALS * b << n_batches <= n
            and len(orders) * b << n_batches <= _CHUNK_OUTPUTS // 4):
        table = _recall_table(batch_axis, order_axis, split, b, q, n_batches,
                              columns)
        weights = (1 << np.arange(n_batches)).astype(np.uint8)
        axes = ((0, len(orders)),)  # one lookup reduces both axes
    else:
        if split:
            batch_axis = _batch_axis_fold(orders[:split], b, batch_axis,
                                          cells_per_chunk * trials_per_chunk)
        axes = ((0, split), (split, len(orders)))
    # one test per group, so chunks of groups without long runs draw every
    # row with the same calls as when no run was drawn in part
    probe = _probe_rows(p)
    probing = table is None and probe > 0 and bool(
        (order_axis.stop - order_axis.head - 1 > 4 * probe).any())
    for first, last in axes:
        for c0 in range(first, last, cells_per_chunk):
            c1 = min(last, c0 + cells_per_chunk)
            lo, hi = c0 - split, c1 - split  # order-axis cells, if c0 >= split
            plan = (_probe_plan(order_axis, lo, hi, n_batches, probe, n)
                    if probing and c0 >= split else None)
            if plan is None:
                outputs, tables, rounds = n_batches + 1, order_axis, None
                width = trials_per_chunk
            else:
                outputs, tables, rounds, width = plan
                lo, hi = 0, c1 - c0
            for t0 in range(0, n, width):
                trials = np.arange(t0, min(n, t0 + width), dtype=np.uint64)
                seeds = derive_seeds(bases[c0:c1, None], trials)
                x = stream_outputs(seeds.reshape(-1), outputs)
                u = np.minimum((unit_floats(x[0]) * b).astype(np.int64), b - 1)
                if threshold == 1 << 64:  # p == 1: every output is below it
                    crisis = np.ones((len(x) - 1, x.shape[1]), dtype=bool)
                else:
                    crisis = x[1:] < np.uint64(threshold)
                del x
                if table is not None:
                    # (cell * B + u) * 2**rows + the pattern's code, in u's
                    # place
                    at = u.reshape(c1 - c0, -1)
                    at += np.arange(c0 * b, c1 * b, b)[:, None]
                    at <<= n_batches
                    at += np.einsum("j,ji->i", weights, crisis.view(np.uint8)
                                    ).reshape(c1 - c0, -1)
                    recalls = table.take(at)
                elif c0 < split:
                    recalls = _batch_axis_recalls(
                        batch_axis, b, q, np.arange(c0, c1), u, crisis
                    ).reshape(c1 - c0, -1)
                else:
                    recalls = _order_axis_recalls(
                        tables, lo, hi, u, crisis,
                        None if rounds is None else (rounds, seeds, threshold))
                sink(c0, t0, recalls)
                del recalls  # not kept while the next chunk draws


def _recall_table(batch_axis: _BatchAxis | None, order_axis: _OrderAxis,
                  split: int, b: int, q: int, rows: int,
                  columns: int) -> np.ndarray:
    """Recall of every (cell, initial consumption u, crisis pattern) of a
    group whose horizon has ``rows`` batches, entry ``(cell * B + u) *
    2**rows + code`` with ``code = sum_j crisis_j * 2**j``.

    The entries are the recalls of :func:`_batch_axis_recalls` (cells below
    ``split``, on the unfolded ``batch_axis``) and
    :func:`_order_axis_recalls` on synthetic columns, one for each u in
    [0, B) and each pattern, taken in slices of at most ``columns`` columns
    (or one cell's u values, whole patterns) so the build's working set is
    a chunk's.
    """
    cells = split + len(order_axis.first) - 1
    patterns = 1 << rows
    table = np.empty((cells, b << rows), dtype=_sum_type(q))
    # bit j of every pattern's code, for one u
    flags = (np.arange(patterns) >> np.arange(rows)[:, None]) & 1 == 1
    width = min(b, max(1, columns >> rows))  # u values per slice
    step = max(1, columns // (width << rows))  # cells per slice
    for first, last in ((0, split), (split, cells)):
        for c0 in range(first, last, step):
            c1 = min(last, c0 + step)
            for u0 in range(0, b, width):
                u1 = min(b, u0 + width)
                u = np.tile(np.repeat(np.arange(u0, u1), patterns), c1 - c0)
                crisis = np.tile(flags, (c1 - c0) * (u1 - u0))
                if c1 <= split:
                    recalls = _batch_axis_recalls(
                        batch_axis, b, q, np.arange(c0, c1), u, crisis)
                else:
                    recalls = _order_axis_recalls(
                        order_axis, c0 - split, c1 - split, u, crisis)
                table[c0:c1, u0 << rows:u1 << rows] = recalls.reshape(
                    c1 - c0, -1)
    return table.reshape(-1)


def _probe_rows(p: float) -> int:
    """Rows of a long order-axis run that every trial draws: the fewest that
    hold a crisis with probability at least 3/4, ``ceil(ln 4 / -ln(1 - p))``
    (1 at p = 1). 0, for no probing, when p = 0 or the count reaches 2**53,
    more rows than any horizon has."""
    if p >= 1:
        return 1
    rows = math.log(4) / -math.log1p(-p) if p > 0 else math.inf
    return math.ceil(rows) if rows < 2**53 else 0


def _probe_plan(tables: _OrderAxis, lo: int, hi: int, n_batches: int,
                probe: int, n: int) -> tuple | None:
    """What the chunks of cells [lo, hi) of ``tables``, n trials each, draw
    when each run longer than ``4 * probe`` rows is drawn only in part for
    every trial.

    The block draws row 0 and the rows of every order's head and tail, of
    every short run, and of the first ``probe`` rows of every long run.
    Every long run ends in rounds, even where other orders of the block
    read its other rows: the rounds draw those again, and recall is an OR.
    Returns None when no run is long, or when a chunk would skip fewer
    than ``_CHUNK_OUTPUTS`` stream outputs: each round of
    :func:`_finish_long_runs` costs a few tens of numpy calls whatever its
    size, and in ``validate -n 1000`` (B = 1, chunks of two cells, 58,000
    outputs skipped) the rounds cost more than the skipped outputs. Else
    returns the stream output indices to draw (a column), the tables of
    :func:`_order_axis_recalls` for cells [0, hi - lo) with every row
    replaced by its position among the drawn rows, the long runs for
    :func:`_finish_long_runs` (their orders, the cell of each, and the
    stream outputs of the first row not drawn and of the last row), and
    the trials per chunk. A chunk column takes its stream outputs, about
    ten words of vectors, and its share of the round arrays: 3 words per
    flag for at most a quarter of the long runs' (order, trial) pairs.
    """
    orders = slice(tables.first[lo], tables.first[hi])
    head, tail = tables.head[orders], tables.tail[orders]
    start, stop = head + 1, tables.stop[orders]
    long = stop - start > 4 * probe
    if not long.any():
        return None
    drawn = np.where(long, start + probe, stop)  # rows [start, drawn) drawn
    lens = drawn - start
    read = np.zeros(n_batches, dtype=bool)
    read[head] = read[tail] = True
    read[np.arange(lens.sum())
         + np.repeat(start - np.cumsum(lens) + lens, lens)] = True
    # before[j]: the rows read below row j, so the position of row j
    before = np.zeros(n_batches + 1, dtype=np.int64)
    np.cumsum(read, out=before[1:])
    block = _OrderAxis(
        tables.sizes[orders], tables.cell[orders] - lo,
        tables.first[lo:hi + 1] - tables.first[lo], before[head],
        before[tail], before[drawn], tables.head_lim[orders],
        tables.tail_lim[orders])
    long = np.flatnonzero(long)
    rounds = (long, block.cell[long], (drawn[long] + 1).astype(np.uint64),
              stop[long].astype(np.uint64), probe)
    outputs = np.concatenate(([0], np.flatnonzero(read) + 1)).astype(
        np.uint64)[:, None]
    width = len(outputs) + 10 + -(-3 * probe * len(long) // (4 * (hi - lo)))
    trials = min(n, max(1, _CHUNK_OUTPUTS // min(width, 4096) // (hi - lo)))
    if (n_batches + 1 - len(outputs)) * trials * (hi - lo) < _CHUNK_OUTPUTS:
        return None
    return outputs, block, rounds, trials


def _finish_long_runs(touched: np.ndarray, rounds: tuple, seeds: np.ndarray,
                      threshold: int) -> None:
    """Set ``touched[k, i]`` for each long run k of :func:`_probe_plan`
    that holds a crisis in the rows its trial i has not drawn.

    A run's undrawn rows are drawn ``probe`` at a time, one round after
    another, and only for the (order, trial) pairs not yet known to be
    recalled: a flag skipped is a flag of an order already recalled, and
    recall is an OR, so no result changes. ``seeds`` is (cells, trials).
    Each round's arrays are drawn in slices of at most a quarter of the
    long runs' pairs.
    """
    long, owner, nxt, end, probe = rounds
    k, i = np.nonzero(~touched[long])
    # a column per pair: its seed, the stream outputs of its next row and
    # of its run's last row, its order and its trial
    pending = np.stack((seeds[owner[k], i], nxt[k], end[k],
                        long[k].astype(np.uint64), i.astype(np.uint64)))
    steps = np.arange(probe, dtype=np.uint64)[:, None]
    cap = max(1, len(long) * touched.shape[1] // 4)
    while pending.shape[1]:
        hit = np.empty(pending.shape[1], dtype=bool)
        for s in range(0, len(hit), cap):
            seed, first, last = pending[:3, s:s + cap]
            # rows past the run's end repeat its last row: OR is idempotent
            x = stream_outputs(seed, np.minimum(first + steps, last))
            hit[s:s + cap] = (x < np.uint64(threshold)).any(axis=0)
        touched[pending[3, hit], pending[4, hit]] = True
        pending[1] += np.uint64(probe)
        hit |= pending[1] > pending[2]
        pending = pending[:, ~hit]


class _OrderAxis(NamedTuple):
    """Every order of some order-axis cells, cell by cell, for
    :func:`_order_axis_recalls`. An order covering units [s, e] has its
    first and last batches ``s//B`` and ``e//B + 1`` (rows ``head`` and
    ``tail``; the tail row is clamped to the horizon, which it passes only
    when ``e % B == 0``, where it is never read) and its always-touched run
    ``s//B + 1 .. e//B`` (rows [head + 1, stop)). :func:`_probe_plan`
    replaces each row by its position among the rows a block draws; the
    head row is always drawn, so the run still starts at ``head + 1``."""

    sizes: np.ndarray     # units in each order
    cell: np.ndarray      # the cell of each order
    first: np.ndarray     # index of each cell's first order, then the total
    head: np.ndarray
    tail: np.ndarray
    stop: np.ndarray
    head_lim: np.ndarray  # the head batch is touched iff u < head_lim
    tail_lim: np.ndarray  # the tail batch is touched iff u >= tail_lim


def _order_axis_tables(order_sizes: np.ndarray, b: int, q: int) -> _OrderAxis:
    """The :class:`_OrderAxis` tables of every cell in ``order_sizes``."""
    counts = -(-q // order_sizes)
    first = np.zeros(len(order_sizes) + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    cell = np.repeat(np.arange(len(order_sizes)), counts)
    starts = (np.arange(first[-1]) - first[cell]) * order_sizes[cell]
    ends = np.minimum(starts + order_sizes[cell], q) - 1
    head, tail = starts // b, ends // b + 1
    return _OrderAxis(ends - starts + 1, cell, first, head,
                      np.minimum(tail, (q + 2 * b - 2) // b - 1), tail,
                      b - starts % b, b - ends % b)


def _order_axis_recalls(tables: _OrderAxis, lo: int, hi: int,
                        u: np.ndarray, crisis: np.ndarray,
                        rounds: tuple | None = None) -> np.ndarray:
    """Recalls reduced order by order, for orders longer than batches.

    Unit t lands in batch ``t // B`` when ``u < B - t % B`` and in the next
    batch otherwise. So an order covering units [s, e] always touches
    batches ``s//B + 1 .. e//B``, touches batch ``s//B`` iff
    ``u < B - s % B`` and batch ``e//B + 1`` iff ``u >= B - e % B``. Each
    order reads its always-touched run through :func:`_crisis_in_rows` and
    two crisis rows, in its own cell's block of columns; with ``rounds``
    (the long runs, seeds and threshold of :func:`_finish_long_runs`) the
    rows drawn hold only part of some runs, and the rest is drawn there.
    ``u`` and ``crisis`` hold the columns of cells [lo, hi) of ``tables``,
    cell-major; returns (hi - lo, trials).
    """
    sizes, cell, first, head, tail, stop, head_lim, tail_lim = tables
    orders = slice(first[lo], first[hi])
    cell, head, tail = cell[orders] - lo, head[orders], tail[orders]
    crisis = crisis.reshape(len(crisis), hi - lo, -1)
    touched = _crisis_in_rows(crisis, head + 1, stop[orders], cell)
    u = u.reshape(hi - lo, -1)[cell]
    touched |= crisis[head, cell] & (u < head_lim[orders, None])
    touched |= crisis[tail, cell] & (u >= tail_lim[orders, None])
    if rounds is not None:
        _finish_long_runs(touched, *rounds)
    sizes, bounds = sizes[orders], first[lo:hi + 1] - first[lo]
    recalls = np.empty((hi - lo, touched.shape[1]), dtype=np.int64)
    for c in range(hi - lo):
        own = slice(bounds[c], bounds[c + 1])
        recalls[c] = np.einsum("k,ki->i", sizes[own], touched[own])
    return recalls


def _crisis_in_rows(crisis: np.ndarray, start: np.ndarray, stop: np.ndarray,
                    cell: np.ndarray) -> np.ndarray:
    """Entry (k, i) is whether any of rows ``start[k] .. stop[k] - 1`` of
    ``crisis[:, cell[k], i]`` is set (False for an empty run).

    Level m of a sparse table holds, in row j, the OR of rows j .. j + 2**m
    - 1; it is level m - 1 ORed with itself shifted by 2**(m - 1) rows. A run
    of n >= 1 rows is the union of the two level-m windows that start at its
    first row and end at its last, for m = floor(log2(n)), so each run costs
    two reads. Levels are built up to the longest run's and read as they
    pass. An order's always-touched run has floor((O - 1) / B) or
    ceil((O - 1) / B) rows, so a cell needs floor(log2(ceil((O - 1) / B)))
    levels: none at O = B + 1, 6 at O = 100, B = 1 (a run drawn in part is
    read for its first ``_probe_rows(p)`` rows only: 10 rows, 3 levels, at
    O = 100, B = 1, p = 0.131). Each level is one pass over contiguous rows,
    about 0.04 ns per flag (2-vCPU Xeon, numpy 2.4). A prefix count would
    answer the same question, but numpy computes it one element after another:
    ``cumsum(axis=0)`` walks each column through a casting buffer, 3.5-7 ns
    per flag at 6,001 rows x 32 columns; a C-contiguous transposed int32
    copy scanned along its rows costs as much or more there; and adding
    whole rows takes 1.3 ns per flag at 2,114 columns but 55 ns at 32.
    """
    level = np.frexp(stop - start)[1] - 1  # floor(log2(n)); -1 when n == 0
    touched = np.zeros((len(start), crisis.shape[2]), dtype=bool)
    window = crisis
    for m in range(int(level.max()) + 1):
        if m:
            window = window[:-(1 << (m - 1))] | window[1 << (m - 1):]
        at = np.flatnonzero(level == m)
        if len(at):
            touched[at] = (window[start[at], cell[at]]
                           | window[stop[at] - (1 << m), cell[at]])
    return touched


class _BatchAxis(NamedTuple):
    """The W and S tables of :func:`_batch_axis_recalls` for some
    batch-axis cells, built by :func:`_batch_axis_tables`.

    ``straddle`` is None when S is all zeros (every order in one batch, as
    at O = 1), which takes the straddle term out of every reduction. With
    ``period`` 0 the tables hold every row. Else (see
    :func:`_batch_axis_fold`) rows 1 .. end - 1 of both repeat with
    ``period`` for every column, the tables hold only row 0, rows 1 ..
    period and the rows from ``end`` on, and ``group`` periods at a time
    are added up in one row of :func:`_fold_rows`.
    """

    touch: np.ndarray
    straddle: np.ndarray | None
    period: int
    group: int
    end: int


def _batch_axis_tables(order_sizes: np.ndarray, b: int, q: int,
                       n_batches: int) -> _BatchAxis:
    """The unfolded :class:`_BatchAxis` of every cell in ``order_sizes``:
    W and S for every batch j (rows) and every cell and initial consumption
    u in [lo, B) (columns ``cell * (B - lo) + u - lo``), where
    ``lo = max(0, B - Q)``: every smaller u puts all of the horizon in
    batch 0, as u = lo does.

    Batch j spans horizon units [c_j, c_j+1) with boundaries c_0 = 0 and
    ``c_j = min(B - u + (j - 1) * B, Q)`` for j >= 1. W_j runs from the start
    of the order holding unit c_j (``c - c % O``, or Q at c = Q) to the end
    of the order holding unit c_j+1 - 1 (``min(ceil(c / O) * O, Q)``), and
    S_j from the start of the order holding unit c_j+1 to the end of the one
    holding c_j+1 - 1, which is 0 unless one order holds both. Each table
    has at most Q + 2B entries per cell when B <= Q and 2Q when B > Q.
    The boundaries are exact in int64: B - u <= B - lo <= Q, and j <= 2
    when B > Q, so no intermediate reaches B + Q (or 3Q when B <= Q).
    """
    lo = max(0, b - q)
    dtype = _sum_type(q)
    bounds = np.zeros((n_batches + 1, b - lo), dtype=np.int64)
    np.minimum(np.arange(n_batches, dtype=np.int64)[:, None] * b
               + (b - np.arange(lo, b, dtype=np.int64)), q, out=bounds[1:])
    bounds = bounds.astype(dtype)[:, None]
    o = order_sizes.astype(dtype)[:, None]
    start = bounds % o
    np.subtract(bounds, start, out=start)
    np.copyto(start, q, where=bounds == q)
    end = -bounds % o
    end += bounds
    np.minimum(end, q, out=end)
    start = start.reshape(n_batches + 1, -1)
    end = end.reshape(n_batches + 1, -1)
    straddle = end[1:-1] - start[1:-1]
    np.subtract(end[1:], start[:-1], out=end[1:])
    return _BatchAxis(end[1:], straddle if straddle.any() else None, 0, 0, 0)


def _batch_axis_recalls(axis: _BatchAxis, b: int, q: int, cells: np.ndarray,
                        u: np.ndarray, crisis: np.ndarray) -> np.ndarray:
    """Recalls reduced batch by batch, for orders no longer than batches.

    Every order then touches one batch or two adjacent ones, so by
    inclusion-exclusion the recall is ``sum_j crisis_j * W_j(u) -
    sum_j crisis_j * crisis_j+1 * S_j(u)``, with W_j the total size of the
    orders touching batch j and S_j the size of the order straddling the
    boundary between batches j and j + 1. ``u`` and ``crisis`` hold the
    columns of ``cells``, cell-major; W and S are read from the tables of
    ``axis`` (a :class:`_BatchAxis`) at column ``cell * (B - lo) +
    max(u, lo) - lo``. On a folded axis a crisis flag in row j of rows 1 ..
    end - 1 weighs as much as one in row ``1 + (j - 1) % period``, so the
    flags of those rows are counted per residue class by
    :func:`_fold_rows`, and the counts take the place of the flags. The
    sums are the same exact integers, so no recall changes; the gathers and
    products cover ``period`` rows of the span instead of all ``end - 1``.
    Without S the second sum, its flags and its gather are skipped.
    """
    lo = max(0, b - q)
    at = ((cells * (b - lo) - lo)[:, None]
          + np.maximum(u, lo).reshape(len(cells), -1)).reshape(-1)
    both = None if axis.straddle is None else crisis[:-1] & crisis[1:]
    if axis.period:
        crisis = _fold_rows(crisis, axis)
        if both is not None:
            both = _fold_rows(both, axis)
    recalls = np.einsum("ji,ji->i", crisis, np.take(axis.touch, at, axis=1))
    if both is not None:
        recalls -= np.einsum("ji,ji->i", both,
                             np.take(axis.straddle, at, axis=1))
    return recalls


# Flags a row of _fold_rows' first sum holds at least (when the span has
# that many): numpy adds rows of a few tens of flags at several times the
# cost per flag of rows of several hundred.
_FOLD_WIDTH = 1 << 10


def _batch_axis_fold(order_sizes: np.ndarray, b: int, axis: _BatchAxis,
                     columns: int) -> _BatchAxis:
    """``axis``, the unfolded :class:`_BatchAxis` of ``order_sizes``,
    folded by its row period for chunks of at most ``columns`` columns, or
    unchanged when no two periods of rows repeat.

    Batch j >= 1 starts at unit ``c_j = j * B - u`` (until Q cuts it), so
    each boundary lies B mod O units further into its order than the last
    one, counted modulo O. W_j is B plus the part of the order holding c_j
    before it and the part of the order holding c_j+1 - 1 after that unit,
    and S_j is the size of that last order when it straddles c_j+1: both
    depend on the boundaries' residues modulo O alone, which repeat every
    ``O / gcd(O, B)`` batches (every batch when O divides B). A group's
    tables repeat with the lcm of its cells' periods, from row 1 (row 0
    starts at unit 0, not at -u) until the rows that the last, possibly
    short, order or the end of the horizon changes. One comparison of the
    tables with themselves shifted by a period finds where that span ends,
    so the fold rests on the tables and not on this argument.
    """
    period = math.lcm(*(o // math.gcd(o, b) for o in order_sizes.tolist()))
    touch, straddle = axis.touch, axis.straddle
    rows = len(touch) - 1  # rows of both tables: S has no last row
    if rows < 1 + 2 * period:
        return axis
    ahead, here = slice(1 + period, rows), slice(1, rows - period)
    differs = touch[ahead] != touch[here]
    if straddle is not None:
        differs |= straddle[ahead] != straddle[here]
    first = np.flatnonzero(differs.any(axis=1))
    # rows 1 .. span repeat: the first row that differs from the row a
    # period later, plus that period, less one
    periods = (int(first[0]) + period if len(first) else rows - 1) // period
    if periods < 2:
        return axis
    group = min(periods, -(-_FOLD_WIDTH // (period * columns)))
    end = 1 + periods // group * group * period
    keep = np.concatenate((np.arange(period + 1), np.arange(end, len(touch))))
    return _BatchAxis(touch[keep],
                      None if straddle is None else straddle[keep[:-1]],
                      period, group, end)


def _fold_rows(flags: np.ndarray, axis: _BatchAxis) -> np.ndarray:
    """Flags of the rows of the folded ``axis``' tables, in their integer
    type: row 0, the number of flags set in each residue class of rows 1 ..
    end - 1, then the rows from end on."""
    period, group, end = axis.period, axis.group, axis.end
    dtype, width = axis.touch.dtype, flags.shape[1]
    folded = np.empty((1 + period + len(flags) - end, width), dtype=dtype)
    folded[0] = flags[0]
    counts = flags[1:end].reshape(-1, group * period * width).sum(
        axis=0, dtype=dtype)
    folded[1:period + 1] = counts.reshape(group, period, width).sum(axis=0)
    folded[period + 1:] = flags[end:]
    return folded


def _check_int64_horizon(b: int, q: int) -> None:
    """The kernel's int64 arithmetic is exact while ``B + Q < 2**63`` (it
    forms ``2B - u`` with u >= B - Q); larger batch sizes are rejected
    before any stream is drawn."""
    if b + q >= 2**63:
        raise InvalidParamsError(
            f"batch_size must be below 2**63 - total_quantity = {2**63 - q}"
            f" to simulate, got {b}")


def _sum_type(q: int) -> type:
    """Integer type for recall sums up to twice the quantity q."""
    return np.int32 if 2 * q < 2**31 else np.int64


class _TrialSums:
    """Exact per-cell sums S1 = sum(x) and S2 = sum(x**2) of the recalls x
    of some cells, taken block by block from :func:`_group_recalls` (pass
    :meth:`add` as its sink), so no recall is kept per trial.

    A recall is at most Q, so a block's sums, at most ``columns * Q**2``,
    are exact in its own integer type or int64 while that bound fits them.
    Other blocks (from Q of a few tens of millions at thousands of columns,
    and every block once one square may pass int64, Q > 2**31.5) are added
    in Python ints, as the sums across blocks always are.
    """

    def __init__(self, cells: int, q: int):
        self.q = q
        self.s1 = [0] * cells
        self.s2 = [0] * cells

    def add(self, cell: int, trial: int, block: np.ndarray) -> None:
        bound = block.shape[1] * self.q ** 2
        if bound < 2**63:
            fits = bound < 1 << 8 * block.itemsize - 1
            dtype = block.dtype if fits else np.int64
            s1 = np.einsum("ci->c", block, dtype=dtype).tolist()
            s2 = np.einsum("ci,ci->c", block, block, dtype=dtype).tolist()
        else:
            rows = block.tolist()
            s1 = [sum(row) for row in rows]
            s2 = [sum(x * x for x in row) for row in rows]
        for c, (total, squares) in enumerate(zip(s1, s2), cell):
            self.s1[c] += total
            self.s2[c] += squares

    def summary(self, n: int) -> tuple[list[int], list[float], list[float]]:
        """Each cell's exact total, mean ``S1 / n`` (one division of the
        total) and :func:`_std_error`, over its n trials."""
        return (self.s1, [total / n for total in self.s1],
                [_std_error(n, s1, s2) for s1, s2 in zip(self.s1, self.s2)])


def _std_error(n: int, s1: int, s2: int) -> float:
    """The sample standard error of the mean of n values with exact sums
    ``s1 = sum(x)`` and ``s2 = sum(x**2)``: ``sqrt((n*s2 - s1**2) /
    (n**2 * (n - 1)))``, correctly rounded (0 when n = 1).

    With ``a = floor(num * 4**k / den)`` and ``r = isqrt(a)``, the root
    scaled by ``2**k`` lies in [r, r + 1), and equals r exactly when
    ``r**2 * den == num * 4**k``. k gives r at least 57 bits, so any
    value in (r, r + 1) rounds to a double as ``r + 1/2`` does, which
    ``float(2 * r + 1)`` rounds once.
    """
    num, den = n * s2 - s1 * s1, n * n * (n - 1)
    if n == 1 or num == 0:
        return 0.0
    k = max(0, 58 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * k
    root = math.isqrt(scaled // den)
    return math.ldexp(float(2 * root + (root * root * den != scaled)),
                      -k - 1)


def estimate_recall(config: EstimateConfig) -> TrialEstimate:
    """Run the configured trials and summarize the recalled quantities.

    Reports the sample standard error and the Z95/Z98 normal-approximation
    half-widths around the mean. The trials are summed as they are drawn,
    so memory does not grow with n_trials.
    """
    sums = _TrialSums(1, config.params.total_quantity)
    _cell_recalls(config, sums.add)
    [total], [mean], [std_error] = sums.summary(config.n_trials)
    return TrialEstimate(mean_recall=mean, std_error=std_error,
                         n_trials=config.n_trials, total_recalled=total)


def sweep(quantity: int, crisis_prob: float, order_sizes: Sequence[int],
          batch_sizes: Sequence[int], n_trials: int = 10_000,
          base_seed: int = 0, include_simulation: bool = True) -> SweepGrid:
    """Recall-size landscape over every (order size, batch size) cell.

    Always fills the analytic surface; with ``include_simulation`` each cell
    also gets a Monte Carlo estimate seeded from (base_seed, o, b) and the
    grid-level mean absolute error as a percentage of the quantity. Each
    cell's estimate equals ``estimate_recall`` of that cell alone. The
    cells of one batch size are simulated together, up to
    ``max(1, _CHUNK_OUTPUTS // tables)`` of them per :func:`_group_recalls`
    call, where ``tables`` is the size of one cell's W/S tables,
    ``(ceil((Q + B - 1) / B) + 1) * min(B, Q)`` words (every order size of
    ``validate``, whose tables hold at most 192 words, in one call).
    """
    return _sweep(*_check_grid(quantity, crisis_prob, order_sizes,
                               batch_sizes),
                  n_trials, base_seed, include_simulation)


def _sweep(q: int, p: float, orders: tuple[int, ...],
           batches: tuple[int, ...], n_trials: int, base_seed: int,
           include_simulation: bool) -> SweepGrid:
    """:func:`sweep` of a grid that has passed :func:`_check_grid`, which
    returns its arguments ``(q, p, orders, batches)``; ``n_trials`` and
    ``base_seed`` are checked here, and only when simulating. A family of
    crisis probabilities over one grid checks the grid once and calls this
    once per probability."""
    analytic = _recall_size_surface(q, p, orders, batches)

    if not include_simulation:
        return SweepGrid(total_quantity=q, crisis_prob=p, order_sizes=orders,
                         batch_sizes=batches, analytic=analytic)

    n = _check_positive_int("n_trials", n_trials)
    seed = _check_positive_int("base_seed", base_seed, minimum=None)
    _check_int64_horizon(batches[-1], q)
    sim_mean = np.empty_like(analytic)
    std_error = np.empty_like(analytic)
    for j, b in enumerate(batches):
        # a cell brings W and S tables of (n_batches + 1) * min(B, Q) words
        # each on the batch axis; its trials are summed as they are drawn
        table = ((q + 2 * b - 2) // b + 1) * min(b, q)
        step = max(1, _CHUNK_OUTPUTS // table)
        for i in range(0, len(orders), step):
            cells = orders[i:i + step]
            sums = _TrialSums(len(cells), q)
            seeds = [derive_seed(seed, o, b) for o in cells]
            _group_recalls(cells, b, q, p, seeds, n, sums.add)
            _, sim_mean[i:i + step, j], std_error[i:i + step, j] = (
                sums.summary(n))
    abs_error = np.abs(analytic - sim_mean)
    return SweepGrid(total_quantity=q, crisis_prob=p, order_sizes=orders,
                     batch_sizes=batches, analytic=analytic, sim_mean=sim_mean,
                     abs_error=abs_error, std_error=std_error,
                     mean_abs_error_pct=100.0 * float(abs_error.mean()) / q,
                     n_trials=n, base_seed=seed)

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
``unit_float(x) < p`` output by output, the kernel decides the same test
on arrays of outputs with ``unit_less(p)`` (the exactly equivalent
integer test ``x < unit_threshold(p)``, or every flag set at p = 1), and
both draw the initial consumption as the same once-rounded float product
(``below`` and its vectorized twin ``belows``). So they agree
bit-for-bit; the test suite asserts that parity cell by cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (InvalidParamsError, ModelParams, _check_grid,
                    _check_positive_int, _recall_size_surface)
from .seeding import belows, derive_seeds, stream_outputs, unit_less

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
# when a cell's trials are cut into equal chunks): a chunk column counts its
# n_batches crisis flags at two bytes each plus about ten words of
# per-column vectors (see _column_words), or on the recall table's short
# horizons its drawn rows and four words of vectors (see _group_recalls),
# and the chunk draws its stream outputs in row blocks of at most this many
# words (see _draw); a chunk that draws long runs in part (see _probe_plan)
# draws fewer rows and counts its round arrays in the same budget. Chunks
# this small stay close to a core's cache, and memory does not grow with
# the trial count or the grid. A chunk also holds no more cells than keep
# each of its batch-axis tables within this many words, and a recall table
# has at most a quarter of this many entries.
_CHUNK_OUTPUTS = 1 << 17

# A kernel call reads its recalls from _recall_table when the horizon has
# at most _TABLE_ROWS batches (a crisis pattern's code then fits a uint8),
# and each cell has at least one trial per table entry of its own and at
# most _CHUNK_OUTPUTS // 4 of them (B * 2**rows). Each range of cells then
# builds a table of its own cells within that cap. An entry takes a few
# integer adds to build, far less than a trial's reduction (the 89 tables
# that validate built at 1,000 trials, one per call, took about 20 ms of
# its 0.2 s, 2-vCPU Xeon). Measured there (medians of 9 interleaved
# validate sweeps), the groups that one trial per entry puts on the table
# and two would not ran 13-23% faster on it at 300 trials (B = 17 .. 75)
# and 27% faster at 1,000 (B = 10 and 16). The cap is per range, not per
# call, so that validate's B = 7 .. 9, 11 and 12 (up to 2,048 entries a
# cell) can take the table too: one table per call under a cap of 2**16
# entries would make the build's traced peak pass the reductions' at the
# gate extremes (562,560 against 541,585 bytes at 16 cells, B = 64,
# Q = 258).
_TABLE_ROWS = 8


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
                   (config.base_seed % 2**64,), config.n_trials, sink)


def _group_recalls(order_sizes: Sequence[int], b: int, q: int, p: float,
                   base_seeds: Sequence[int], n: int, sink: Callable) -> None:
    """Recalls of n trials for each cell of one batch-size group, handed to
    ``sink`` block by block.

    The cells share (B, Q, p) and differ in order size (ascending) and base
    seed (each in [0, 2**64): ints or a uint64 array). ``sink(cell, trial,
    block)`` receives a (cells, trials) integer block whose entry (c, i) is
    the recall of trial ``trial + i`` of cell ``cell + c``, i.e. entry
    ``trial + i`` of ``trial_recalls`` of order size ``order_sizes[cell +
    c]`` and base seed ``base_seeds[cell + c]``;
    every (cell, trial) pair is handed over exactly once, and the block is
    not used after the call. Shared B and Q give every trial the same
    horizon, so all trials of the group are evaluated on output-major
    stream tables whose columns are (cell, trial) pairs, cell-major (row 0
    the u draws, row j + 1 the crisis draws of batch j):

    * row 0 -> initial consumption ``u = floor(unit * B)``,
    * rows 1.. -> crisis flags ``unit_less(p)``, the simulator's ``unit <
      p`` on whole arrays of outputs, built once per call,
    * unit t of the horizon lands in batch ``(u + t) // B``; the recalled
      quantity is reduced along the shorter of the order and batch axes:
      cells with O <= B (which come first) by :func:`_batch_axis_recalls`,
      the rest by :func:`_order_axis_recalls`.

    Off the table path (below), each range of batch-axis cells (the cells
    of a chunk, see below) builds the W and S tables of its own cells, as
    one :class:`_BatchAxis` that carries both of the range's decisions: S
    is None when it is all zeros (as at O = 1), which drops the straddle
    term, and the tables are folded when their rows repeat. They repeat
    with the lcm of the cells' periods ``O / gcd(O, B)`` from row 1 until
    the end of the horizon or the last order changes them;
    :func:`_batch_axis_fold` reads off that span with one comparison of W
    against itself a period later (S repeats wherever W does). Where it
    holds at least two periods, each chunk counts its crisis flags per
    residue class over the span and weighs the counts by one period of
    rows, which adds up the same integers as weighing every flag by its own
    row, so the recalls are unchanged. Other ranges weigh every flag by its
    own row.

    On a short horizon (at most ``_TABLE_ROWS`` batches) with enough trials
    per cell and a cell's ``B * 2**rows`` table entries within the cap of
    ``_CHUNK_OUTPUTS // 4``, which each call decides first, neither
    reduction runs: each range of cells builds, with :func:`_recall_table`,
    the recall of every (cell, u, crisis pattern) of its own cells from
    their order tables, whatever their order sizes, and each trial's recall
    is the entry at ``(cell * B + u) * 2**rows + code`` of its range's
    table, the cell counted from the range's first, with ``code = sum_j
    crisis_j * 2**j`` taken by one einsum over the flags' bytes. A range
    holds as many whole chunks of cells as keep its table within the cap.
    Every row is still drawn, and an entry is the recall either reduction
    gives its column, so draws and recalls are unchanged; such calls build
    no W/S table, no fold and no probe plan, and keep no order table past a
    build.

    Columns are processed in chunks with a working set of about
    ``_CHUNK_OUTPUTS`` words: off the table path :func:`_column_words` a
    column (more where 32 columns of crisis flags pass it); on it a column's
    drawn rows, at most 9 and so one row block, fill the row-block budget,
    and its four words of vectors (seed, u, table index, recall) a budget of
    the same size, so a chunk has ``min(_CHUNK_OUTPUTS // (n_batches + 1),
    _CHUNK_OUTPUTS // 4)`` columns. A chunk takes whole cells at a time when
    a cell's trials fit, as many as keep W and S (``(n_batches + 1) * min(B,
    Q)`` words a cell each) within the same budget, or on the table path as
    many as its range holds, else an equal part of one cell, whose trials
    are cut into the nearest whole number of chunks (so a chunk holds 3/4 to
    3/2 of the budget). Chunks are cut where the batch axis ends, so each
    chunk's cells share one axis, except on the table path, where one lookup
    reads both. A range of cells (off the table path, the cells of one
    chunk) drops the last range's tables, builds its own (W and S, order
    tables and their :func:`_probe_plan`, or a recall table), and makes one
    reduction or table lookup and one ``sink`` call per chunk of its cells
    and trials. Every chunk draws its stream outputs from a column of output
    indices: all ``n_batches + 1`` rows, a column built once per call,
    unless the range's cells are on the order axis and have a plan. Then the
    chunk draws the rows the plan lists, the rest of its cells' long runs
    only for trials whose order is not yet recalled, and its width is sized
    from those rows. Whatever the horizon, a chunk draws its column in row
    blocks of at most ``_CHUNK_OUTPUTS`` words (:func:`_draw`; one block
    when the column fits) and keeps row 0's draws and the crisis flags of
    every other row. An order-axis cell has fewer orders than its horizon
    has batches, so memory beyond one cell's tables and what the sink keeps
    grows with neither n nor the grid; the recalls are exact integers, so
    chunking cannot change them.
    """
    # widest horizon over all initial consumptions: ceil((q + b - 1) / b)
    n_batches = (q + 2 * b - 2) // b
    is_crisis = unit_less(p)
    orders = np.array(order_sizes, dtype=np.int64)
    bases = np.asarray(base_seeds, dtype=np.uint64)
    split = int(np.searchsorted(orders, b, side="right"))
    cap = _CHUNK_OUTPUTS // 4  # entries of one recall table
    on_table = n_batches <= _TABLE_ROWS and b << n_batches <= min(n, cap)
    if on_table:
        # a column's drawn rows (at most 9) are one row block, and it holds
        # four words of vectors; a range of cells holds as many whole chunks
        # of them as keep its table within the cap
        columns = min(_CHUNK_OUTPUTS // (n_batches + 1), cap)
        per_range = cap // (b << n_batches)
        cells_per_chunk = max(1, min(columns // n, per_range))
        cells_per_range = per_range // cells_per_chunk * cells_per_chunk
        weights = (1 << np.arange(n_batches)).astype(np.uint8)
        offsets = np.arange(0, cells_per_range * b, b)[:, None]  # cell * B
        axes = ((0, len(orders)),)  # one lookup reads both axes
    else:
        # numpy's row-by-row passes (einsum, take, outer) need a few tens of
        # columns to run at speed, so chunks keep at least _CHUNK_OUTPUTS /
        # 4096 columns, and on longer horizons their flag tables grow with Q
        columns = max(1, _CHUNK_OUTPUTS // min(_column_words(n_batches + 1),
                                               4096))
        cells_per_chunk = cells_per_range = max(1, min(
            columns // n, _CHUNK_OUTPUTS // ((n_batches + 1) * min(b, q))))
        axes = ((0, split), (split, len(orders)))
    # a cell wider than a chunk is cut into the nearest whole number of equal
    # chunks, 3/4 to 3/2 of the budget wide: a last chunk of a few hundred
    # trials would cost the fixed numpy calls of a full one
    trials_per_chunk = -(-n // max(1, round(n / columns)))
    every_row = np.arange(n_batches + 1, dtype=np.uint64)[:, None]
    probe = _probe_rows(p)
    for first, last in axes:
        for r0 in range(first, last, cells_per_range):
            r1 = min(last, r0 + cells_per_range)
            outputs, rounds, width = every_row, None, trials_per_chunk
            # the last range's tables, dropped before the build
            table = tables = plan = None
            if on_table:
                # every cell from its order masks; the order tables are not
                # kept
                table = _recall_table(_order_axis_tables(orders[r0:r1], b, q),
                                      b, q, n_batches)
            elif r0 < split:
                tables = _batch_axis_fold(
                    orders[r0:r1], b,
                    _batch_axis_tables(orders[r0:r1], b, q, n_batches),
                    (r1 - r0) * trials_per_chunk)
            else:
                tables = _order_axis_tables(orders[r0:r1], b, q)
                plan = _probe_plan(tables, n_batches, probe, n)
                if plan is not None:
                    outputs, tables, rounds, width = plan
            for c0, t0 in itertools.product(range(r0, r1, cells_per_chunk),
                                            range(0, n, width)):
                c1 = min(r1, c0 + cells_per_chunk)
                trials = np.arange(t0, min(n, t0 + width), dtype=np.uint64)
                seeds = derive_seeds(bases[c0:c1, None], trials)
                u, crisis = _draw(seeds.reshape(-1), outputs, b, is_crisis,
                                  max(1, _CHUNK_OUTPUTS // seeds.size))
                if on_table:
                    # (cell * B + u) * 2**rows + the pattern's code, in u's
                    # place, with the cell counted from the range's first
                    at = u.reshape(c1 - c0, -1)
                    at += offsets[c0 - r0:c1 - r0]
                    at <<= n_batches
                    at += np.einsum("j,ji->i", weights, crisis.view(np.uint8)
                                    ).reshape(c1 - c0, -1)
                    recalls = table.take(at)
                elif c0 < split:
                    recalls = _batch_axis_recalls(tables, b, q, u, crisis
                                                  ).reshape(c1 - c0, -1)
                else:
                    recalls = _order_axis_recalls(
                        tables, u, crisis,
                        None if rounds is None else (rounds, seeds, is_crisis))
                sink(c0, t0, recalls)
                del crisis, recalls  # not kept while the next chunk draws


def _column_words(rows: int) -> int:
    """Words that a kernel chunk column drawing ``rows`` stream outputs (the
    u draw, then crisis draws) counts against ``_CHUNK_OUTPUTS`` when the
    chunk reduces its trials (a chunk on the recall table counts its drawn
    rows and four words instead, see :func:`_group_recalls`).

    A chunk keeps a bool table of its crisis flags and draws its outputs in
    row blocks of at most the whole budget (:func:`_draw`), so a column
    counts its flags at two bytes each, the flag table and one more bool
    table of its shape that the reductions hold (a level of
    :func:`_crisis_in_rows`' sparse table, or the adjacent crisis pairs of
    the straddle term), plus about ten words of per-column vectors (seeds,
    draws, table indices, sums): 86 columns at 6,001 batches, 5,698 at 50.
    Measured on a 2-vCPU Xeon (numpy 2.4), counting one byte made
    order-axis chunks without a plan 3-9% slower than this (O = 100, B =
    1, Q = 6000, p = 0.055).

    The blocks span the whole budget: blocks of half of it made large-q
    4-12% slower (perfbench, 10 of 10 pairs). Its O = B = 1 call took 27.3
    ms against 24.2 in process, and 25.3 ms at either size once glibc's
    ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_`` were fixed:
    glibc raises its mmap threshold to the largest mmap'd block freed, and
    the O = 2, B = 3 call's 1 MiB blocks before it keep the next call's
    large arrays on reused heap pages, where half-size blocks do not."""
    return (rows - 1) // 4 + 11


def _draw(seeds: np.ndarray, outputs: np.ndarray, b: int,
          is_crisis: Callable, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The initial consumption u and the crisis flags of every seed, from
    the stream outputs at ``outputs`` (a column of indices whose row 0 is
    the u draw), drawn ``rows`` rows at a time, one block after another
    (one block when ``rows`` covers the column), each block's flags written
    into one bool table, so the uint64 words of one block are held at a
    time. Outputs are counter-based, so a block of rows draws the same
    words as the whole column."""
    x = stream_outputs(seeds, outputs[:rows])
    u = belows(x[0], b)
    crisis = np.empty((len(outputs) - 1, len(seeds)), dtype=bool)
    is_crisis(x[1:], out=crisis[:rows - 1])
    for r in range(rows, len(outputs), rows):
        del x  # the last block, before the next is drawn
        x = stream_outputs(seeds, outputs[r:r + rows])
        is_crisis(x, out=crisis[r - 1:r - 1 + len(x)])
    return u, crisis


def _recall_table(tables: _OrderAxis, b: int, q: int,
                  rows: int) -> np.ndarray:
    """Recall of every (cell, initial consumption u, crisis pattern) of the
    cells of ``tables``, whose horizon has ``rows`` batches, entry ``(cell
    * B + u) * 2**rows + code`` with ``code = sum_j crisis_j * 2**j``.
    :func:`_group_recalls` builds one for each range of its cells, at most
    ``_CHUNK_OUTPUTS // 4`` entries.

    A trial recalls the size s_k of each order k whose rows m_k(u) meet the
    code: its run [head + 1, stop), its head row iff u < head_lim and its
    tail row iff u >= tail_lim (see :func:`_order_axis_recalls`; this holds
    for every order size, not only on the order axis). With F(x) the total
    size of the orders whose rows lie within x (the subset sums of the
    sizes by mask), that is ``Q - F(~code)``, since a cell's orders add up
    to Q.

    The build runs in the table's type, code-major (a row of all (cell, u)
    columns per code, so each pass runs along whole rows), then lays the
    table out by one transposed copy. m_k(u) is constant on the three
    intervals of u that head_lim and tail_lim cut (the middle one holds
    both rows or neither, some may be empty), so the build puts -s_k at
    code ~m_k(u) where each interval starts and +s_k where it ends, and one
    cumulative sum along u spreads them over every u. It then adds Q at the
    all-ones code, and one pass per bit adds each code's entry to the same
    code without that bit; every code then holds the sum over its
    supersets, ``Q - F(~code)``. Every partial sum adds some of a cell's
    order sizes with one sign and some with the other, or takes some from
    Q, so it is at most Q in magnitude, exact in the table's type. Beyond
    the table, the build holds the same table code-major and a few tens of
    words per order of a slice of ``_CHUNK_OUTPUTS // 128`` orders.
    """
    sizes, cell, first, head, tail, stop, head_lim, tail_lim = tables
    patterns, cells = 1 << rows, len(first) - 1
    dtype = _sum_type(q)
    # one column past u = B - 1 for the ends of the last intervals
    built = np.zeros((patterns, cells, b + 1), dtype=dtype)
    flat = built.reshape(-1)
    step = max(1, _CHUNK_OUTPUTS // 128)  # orders per slice
    for k0 in range(0, len(sizes), step):
        k = slice(k0, k0 + step)
        h, t, hl, tl = 1 << head[k], 1 << tail[k], head_lim[k], tail_lim[k]
        # the intervals [0, lo), [lo, hi), [hi, B) and each one's mask
        ends = np.stack((np.zeros_like(hl), np.minimum(hl, tl),
                         np.maximum(hl, tl), np.full_like(hl, b)))
        masks = np.stack((h, np.where(hl > tl, h | t, 0), t))
        masks |= (1 << stop[k]) - (2 << head[k])
        # the flat index of (~mask, cell, 0)
        at = (patterns - 1 - masks) * (cells * (b + 1)) + cell[k] * (b + 1)
        # values as large as the indices: numpy 2.4.6's ufunc.at misreads
        # values broadcast along a new leading axis
        size = np.broadcast_to(sizes[k].astype(dtype), at.shape)
        np.add.at(flat, at + ends[:-1], -size)
        np.add.at(flat, at + ends[1:], size)
    np.add.accumulate(built, axis=2, out=built)
    built[-1] += q  # a cell's orders add up to Q
    for j in range(rows):
        pairs = built.reshape(patterns >> (j + 1), 2, 1 << j, -1)
        pairs[:, 0] += pairs[:, 1]
    return built[:, :, :b].transpose(1, 2, 0).reshape(-1)  # a copy


def _probe_rows(p: float) -> float:
    """Rows of a long order-axis run that every trial draws: the fewest that
    hold a crisis with probability at least 3/4, ``ceil(ln 4 / -ln(1 - p))``,
    or ``math.inf``, which no run exceeds, so that no run is drawn in part,
    when the count reaches 2**53, more rows than any horizon has. p is
    clamped into (0, 1), where both logarithms are finite: the count is
    already 1 at ``nextafter(1, 0)``, so p = 1 gives 1 row, and infinite at
    the least positive float, so p = 0 gives ``math.inf``."""
    p = min(max(p, math.ulp(0)), math.nextafter(1, 0))
    rows = math.log(4) / -math.log1p(-p)
    return math.ceil(rows) if rows < 2**53 else math.inf


def _probe_plan(tables: _OrderAxis, n_batches: int, probe: float,
                n: int) -> tuple | None:
    """What the chunks of the cells of ``tables`` (a range of order-axis
    cells), n trials each, draw when each run longer than ``4 * probe``
    rows is drawn only in part for every trial.

    The plan draws row 0 and the rows of every order's head and tail, of
    every short run, and of the first ``probe`` rows of every long run.
    Every long run ends in rounds, even where other orders of the range
    read its other rows: the rounds draw those again, and recall is an OR.
    Returns None, for chunks that draw every row, when no run is long, or
    when a chunk would skip fewer than ``_CHUNK_OUTPUTS`` stream outputs:
    each round of :func:`_finish_long_runs` costs a few tens of numpy calls
    whatever its size, and on chunks of two of ``validate``'s cells at
    1,000 trials (B = 1, about 58,000 outputs skipped) the rounds cost more
    than the skipped outputs. (``validate -n 1000`` makes two plans, for
    its B = 1 ranges of O = 42 .. 50, whose chunks of five and four cells
    skip 160,000 and 148,000 outputs.) Else returns the stream output
    indices to draw (a column), ``tables`` with every row replaced by its
    position among the drawn rows, the long runs for
    :func:`_finish_long_runs` (their orders, the cell of each, and the
    stream outputs of the first row not drawn and of the last row), and the
    trials per chunk. A chunk column takes the :func:`_column_words` of its
    drawn rows (their crisis flags at two bytes each and about ten words of
    vectors) and its share of the round arrays: 3 words per flag for at
    most a quarter of the long runs' (order, trial) pairs.
    """
    head, tail, stop = tables.head, tables.tail, tables.stop
    start, cells = head + 1, len(tables.first) - 1
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
    long = np.flatnonzero(long)
    rounds = (long, tables.cell[long], (drawn[long] + 1).astype(np.uint64),
              stop[long].astype(np.uint64), probe)
    outputs = np.concatenate(([0], np.flatnonzero(read) + 1)).astype(
        np.uint64)[:, None]
    width = (_column_words(len(outputs))
             + -(-3 * probe * len(long) // (4 * cells)))
    trials = min(n, max(1, _CHUNK_OUTPUTS // min(width, 4096) // cells))
    if (n_batches + 1 - len(outputs)) * trials * cells < _CHUNK_OUTPUTS:
        return None
    return outputs, tables._replace(head=before[head], tail=before[tail],
                                    stop=before[drawn]), rounds, trials


def _finish_long_runs(touched: np.ndarray, rounds: tuple, seeds: np.ndarray,
                      is_crisis: Callable) -> None:
    """Set ``touched[k, i]`` for each long run k of :func:`_probe_plan`
    that holds a crisis in the rows its trial i has not drawn.

    A run's undrawn rows are drawn ``probe`` at a time, one round after
    another, and only for the (order, trial) pairs not yet known to be
    recalled: a flag skipped is a flag of an order already recalled, and
    recall is an OR, so no result changes. ``seeds`` is (cells, trials),
    and ``is_crisis`` is the call's ``unit_less(p)``, which decides every
    flag, at p = 1 too. Each round's arrays are drawn in slices of at
    most a quarter of the long runs' pairs.
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
            hit[s:s + cap] = is_crisis(x).any(axis=0)
        touched[pending[3, hit], pending[4, hit]] = True
        pending[1] += np.uint64(probe)
        hit |= pending[1] > pending[2]
        pending = pending[:, ~hit]


class _OrderAxis(NamedTuple):
    """Every order of some cells, cell by cell, for
    :func:`_order_axis_recalls` (cells with O > B) and :func:`_recall_table`
    (every cell of a call on the table path). An order covering units [s,
    e] has its first and last batches ``s//B`` and ``e//B + 1`` (rows
    ``head`` and ``tail``; the tail row is clamped to the horizon, which it
    passes only when ``e % B == 0``, where it is never read) and its
    always-touched run ``s//B + 1 .. e//B`` (rows [head + 1, stop)).
    Each range of order-axis cells in a kernel call builds the tables of
    its own cells, and :func:`_probe_plan` replaces each of their rows by
    its position among the rows the range's chunks draw; the head row is
    always drawn, so the run still starts at ``head + 1``."""

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


def _order_axis_recalls(tables: _OrderAxis, u: np.ndarray,
                        crisis: np.ndarray,
                        rounds: tuple | None = None) -> np.ndarray:
    """Recalls reduced order by order, for orders longer than batches.

    Unit t lands in batch ``t // B`` when ``u < B - t % B`` and in the next
    batch otherwise. So an order covering units [s, e] always touches
    batches ``s//B + 1 .. e//B``, touches batch ``s//B`` iff
    ``u < B - s % B`` and batch ``e//B + 1`` iff ``u >= B - e % B``. Each
    order reads its always-touched run through :func:`_crisis_in_rows` and
    two crisis rows, in its own cell's block of columns; with ``rounds``
    (the long runs, seeds and crisis test of :func:`_finish_long_runs`)
    the rows drawn hold only part of some runs, and the rest is drawn and
    tested there.
    ``u`` and ``crisis`` hold the columns of every cell of ``tables``,
    cell-major; returns (cells, trials).
    """
    sizes, cell, first, head, tail, stop, head_lim, tail_lim = tables
    cells = len(first) - 1
    crisis = crisis.reshape(len(crisis), cells, -1)
    touched = _crisis_in_rows(crisis, head + 1, stop, cell)
    # whether each (order, trial) touches its head row, and its tail row:
    # each cell's u against its own orders' limits, with no (orders, trials)
    # copy of u
    u = u.reshape(cells, -1)
    ahead, behind = np.empty_like(touched), np.empty_like(touched)
    for c in range(cells):
        own = slice(first[c], first[c + 1])
        np.less(u[c], head_lim[own, None], out=ahead[own])
        np.greater_equal(u[c], tail_lim[own, None], out=behind[own])
    ahead &= crisis[head, cell]
    behind &= crisis[tail, cell]
    touched |= ahead
    touched |= behind
    if rounds is not None:
        _finish_long_runs(touched, *rounds)
    recalls = np.empty((cells, touched.shape[1]), dtype=np.int64)
    for c in range(cells):
        own = slice(first[c], first[c + 1])
        recalls[c] = np.einsum("k,ki->i", sizes[own], touched[own])
    return recalls


def _crisis_in_rows(crisis: np.ndarray, start: np.ndarray, stop: np.ndarray,
                    cell: np.ndarray) -> np.ndarray:
    """Entry (k, i) is whether any of rows ``start[k] .. stop[k] - 1`` of
    ``crisis[:, cell[k], i]`` is set (False for an empty run).

    Level m of a sparse table holds, in row j, the OR of rows j .. j + 2**m
    - 1; it is level m - 1 ORed with itself shifted by 2**(m - 1) rows. A
    run of n >= 1 rows is the union of the two level-m windows that start at
    its first row and end at its last, for m = floor(log2(n)), so each run
    costs two reads. Levels are built up to the longest run's and read as
    they pass; from level 2 on each is built in place in level 1's buffer
    (row j reads rows j and j + 2**(m - 1), which no earlier row's write
    reaches), so beside the flags one level is held, not two. An order's
    always-touched run has floor((O - 1) / B) or ceil((O - 1) / B) rows, so
    a cell needs floor(log2(ceil((O - 1) / B))) levels: none at O = B + 1, 6
    at O = 100, B = 1 (a run drawn in part is read for its first
    ``_probe_rows(p)`` rows only: 10 rows, 3 levels, at O = 100, B = 1, p =
    0.131). Each level is one pass over contiguous rows, about 0.04 ns per
    flag (2-vCPU Xeon, numpy 2.4). A prefix count would answer the same
    question, but numpy computes it one element after another:
    ``cumsum(axis=0)`` walks each column through a casting buffer, 3.5-7 ns
    per flag at 6,001 rows x 32 columns; a C-contiguous transposed int32
    copy scanned along its rows costs as much or more there; and adding
    whole rows takes 1.3 ns per flag at 2,114 columns but 55 ns at 32.
    """
    level = np.frexp(stop - start)[1] - 1  # floor(log2(n)); -1 when n == 0
    touched = np.zeros((len(start), crisis.shape[2]), dtype=bool)
    window = crisis
    for m in range(int(level.max()) + 1):
        if m == 1:
            window = crisis[:-1] | crisis[1:]
        elif m:  # in level 1's buffer: each row reads rows at or past it
            shift = 1 << (m - 1)
            np.bitwise_or(window[:-shift], window[shift:],
                          out=window[:-shift])
            window = window[:-shift]
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


def _batch_axis_recalls(axis: _BatchAxis, b: int, q: int, u: np.ndarray,
                        crisis: np.ndarray) -> np.ndarray:
    """Recalls reduced batch by batch, for orders no longer than batches.

    Every order then touches one batch or two adjacent ones, so by
    inclusion-exclusion the recall is ``sum_j crisis_j * W_j(u) -
    sum_j crisis_j * crisis_j+1 * S_j(u)``, with W_j the total size of the
    orders touching batch j and S_j the size of the order straddling the
    boundary between batches j and j + 1. ``u`` and ``crisis`` hold the
    columns of every cell of ``axis`` (a :class:`_BatchAxis`), cell-major;
    W and S are read from its tables at column ``cell * (B - lo) + max(u,
    lo) - lo``. On a folded axis a crisis flag in row j of rows 1 ..
    end - 1 weighs as much as one in row ``1 + (j - 1) % period``, so the
    flags of those rows are counted per residue class by
    :func:`_fold_rows`, and the counts take the place of the flags. The
    sums are the same exact integers, so no recall changes; the gathers and
    products cover ``period`` rows of the span instead of all ``end - 1``.
    Without S the second sum, its flags and its gather are skipped.
    """
    lo = max(0, b - q)
    starts = np.arange(0, axis.touch.shape[1], b - lo)  # cell * (B - lo)
    at = ((starts - lo)[:, None]
          + np.maximum(u, lo).reshape(len(starts), -1)).reshape(-1)
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
    short, order or the end of the horizon changes. One comparison of W
    with itself shifted by a period finds where that span ends, so the fold
    rests on the table and not on this argument.

    S repeats wherever W does, so it is not compared. With ``start(c)``
    the first unit of the order holding unit c (Q at c = Q) and ``end(c)``
    the end of the order holding unit c - 1, ``W_j = end(c_j+1) -
    start(c_j)`` and ``S_j = end(c_j+1) - start(c_j+1)``, so ``W_j - S_j =
    start(c_j+1) - start(c_j)``. Compare row j with row j - P, j - P >= 1,
    in one column. While c_j+1 < Q, that difference is ``B - r_j+1 + r_j``
    with r the boundaries' residues modulo O, the same in both rows, so W
    and S match together. Once c_j+1 = Q, S_j = 0 and ``W_j = Q -
    start(c_j)``; if c_j < Q too, ``start(c_j) = start(c_j-P) + P * B``,
    so ``W_j = W_j-P`` means ``end(c_j+1-P) = Q - P * B``, at most
    c_j+1-P. As ``end(c) >= c``, that is ``end(c_j+1-P) = c_j+1-P``: c_j+1-P
    is Q or a multiple of O, and S_j-P = 0 as well. If c_j = Q, W_j = 0,
    and W_j-P is 0 only when c_j-P = Q, where S_j-P = 0.
    """
    period = math.lcm(*(o // math.gcd(o, b) for o in order_sizes.tolist()))
    touch, straddle = axis.touch, axis.straddle
    rows = len(touch) - 1  # rows of both tables: S has no last row
    if rows < 1 + 2 * period:
        return axis
    differs = touch[1 + period:rows] != touch[1:rows - period]
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
    cells of one batch size are simulated together in one kernel call,
    whose chunks each hold as many cells as keep their tables (about Q + 2B
    words a cell) within 2**17 words, and every cell's trials are summed as
    they are drawn: memory grows with neither the trial count nor the grid.
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
    # cell (o, b) is seeded derive_seed(seed, o, b): one derive_seeds call
    # per component, on every order size at once
    by_order = derive_seeds(np.array([seed % 2**64], dtype=np.uint64),
                            np.array(orders, dtype=np.uint64))
    for j, b in enumerate(batches):
        sums = _TrialSums(len(orders), q)  # trials summed as they are drawn
        _group_recalls(orders, b, q, p, derive_seeds(by_order, np.uint64(b)),
                       n, sums.add)
        _, sim_mean[:, j], std_error[:, j] = sums.summary(n)
    abs_error = np.abs(analytic - sim_mean)
    return SweepGrid(total_quantity=q, crisis_prob=p, order_sizes=orders,
                     batch_sizes=batches, analytic=analytic, sim_mean=sim_mean,
                     abs_error=abs_error, std_error=std_error,
                     mean_abs_error_pct=100.0 * float(abs_error.mean()) / q,
                     n_trials=n, base_seed=seed)

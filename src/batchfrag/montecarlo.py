"""Monte Carlo estimation of recall sizes and analytic-vs-simulated sweeps.

The estimator runs many independent fulfillment trials and averages the
recalled quantities. Trials are embarrassingly parallel by construction:
trial i of an estimate uses the seed ``derive_seed(base_seed, i)``, and a
sweep gives the cell for sizes (o, b) the base seed
``derive_seed(base_seed, o, b)``, so any cell or trial can be recomputed
on its own with identical results. Recalled quantities are integers and
are summed exactly, which makes every estimate independent of scheduling.

For speed the trials of one estimate are evaluated as numpy array
operations rather than through :func:`batchfrag.simulation.run_trial`
objects. Both paths consume the same stream outputs and make the same
decisions: the simulator compares ``unit_float(x) < p``, the kernel the
exactly equivalent integer test ``x < unit_threshold(p)``, and both draw
the initial consumption with the same float arithmetic. So they agree
bit-for-bit; the test suite asserts that parity cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import InvalidParamsError, ModelParams, expected_recall_size
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
    "crisis_prob_family",
]

# Normal-approximation critical values used for the reported half-widths.
Z95 = 1.960
Z98 = 2.326

# Stream outputs per trial chunk of trial_recalls (32 MiB of uint64), which
# bounds its working set whatever the quantity and trial count.
_CHUNK_OUTPUTS = 1 << 22


@dataclass(frozen=True)
class EstimateConfig:
    params: ModelParams
    n_trials: int = 10_000
    base_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_trials, int) or isinstance(self.n_trials, bool) \
                or self.n_trials < 1:
            raise InvalidParamsError(
                f"n_trials must be a positive integer, got {self.n_trials!r}")


@dataclass(frozen=True)
class TrialEstimate:
    """Mean recalled quantity with its sampling uncertainty.

    ``mean_recall`` is exactly ``total_recalled / n_trials`` (one division
    of the exact integer sum).
    """

    mean_recall: float
    std_error: float
    ci95_half_width: float
    ci98_half_width: float
    n_trials: int
    total_recalled: int


@dataclass(frozen=True)
class SweepGrid:
    """Analytic and simulated recall sizes over an order-size x batch-size grid.

    The four cell matrices are indexed [order_size index, batch_size index].
    Simulation fields are None on analytic-only grids.
    ``mean_abs_error_pct`` is 100 * mean(|analytic - simulated|) / Q: the
    error is expressed as a percentage of the total quantity.
    """

    total_quantity: int
    crisis_prob: float
    order_sizes: tuple[int, ...]
    batch_sizes: tuple[int, ...]
    analytic: np.ndarray
    sim_mean: np.ndarray | None = None
    abs_error: np.ndarray | None = None
    ci95_half_width: np.ndarray | None = None
    mean_abs_error_pct: float | None = None
    n_trials: int | None = None
    base_seed: int | None = None


def trial_recalls(config: EstimateConfig) -> np.ndarray:
    """Recalled quantity of every trial, as an int64 array of length n_trials.

    Entry i equals ``run_trial(TrialConfig.from_seed(params,
    derive_seed(base_seed, i)))``, evaluated in vectorized form over an
    output-major stream table (row 0 the u draws, row j + 1 the crisis
    draws of batch j, one column per trial):

    * row 0 -> initial consumption ``u = floor(unit * B)``,
    * rows 1.. -> crisis flags ``x < unit_threshold(p)``, the integer form of
      the simulator's ``unit < p`` (every batch when p == 1),
    * unit t of the horizon lands in batch ``(u + t) // B``; the recalled
      quantity is reduced along the shorter of the order and batch axes
      (see :func:`_order_axis_recalls` and :func:`_batch_axis_recalls`).

    Trials are processed in chunks of at most about ``_CHUNK_OUTPUTS``
    stream outputs, so memory stays bounded for any Q and n_trials; the
    recalls are exact integers, so chunking cannot change them.
    """
    params = config.params
    o, b, q, p = (params.order_size, params.batch_size,
                  params.total_quantity, params.crisis_prob)
    n = config.n_trials

    # widest horizon over all initial consumptions: ceil((q + b - 1) / b)
    n_batches = (q + 2 * b - 2) // b
    threshold = unit_threshold(p)
    reduce_axis = _order_axis_recalls if o > b else _batch_axis_recalls
    chunk = max(1, _CHUNK_OUTPUTS // (n_batches + 1))
    recalls = np.empty(n, dtype=np.int64)
    for first in range(0, n, chunk):
        trials = np.arange(first, min(n, first + chunk), dtype=np.uint64)
        x = stream_outputs(derive_seeds(config.base_seed, trials), n_batches + 1)
        u = np.minimum((unit_floats(x[0]) * b).astype(np.int64), b - 1)
        if threshold == 1 << 64:  # p == 1: every output is below it
            crisis = np.ones((n_batches, len(trials)), dtype=bool)
        else:
            crisis = x[1:] < np.uint64(threshold)
        del x
        recalls[first:first + len(trials)] = reduce_axis(o, b, q, u, crisis)
    return recalls


def _order_axis_recalls(o: int, b: int, q: int, u: np.ndarray,
                        crisis: np.ndarray) -> np.ndarray:
    """Recalls reduced order by order, for orders longer than batches.

    Unit t lands in batch ``t // B`` when ``u < B - t % B`` and in the next
    batch otherwise. So an order covering units [s, e] always touches
    batches ``s//B + 1 .. e//B``, touches batch ``s//B`` iff
    ``u < B - s % B`` and batch ``e//B + 1`` iff ``u >= B - e % B``. Each
    order reads two rows of the crisis prefix sums and two crisis rows.
    """
    starts = np.arange(0, q, o, dtype=_sum_type(q))
    ends = np.minimum(starts + o, q) - 1
    head, tail = starts // b, ends // b + 1
    prefix = np.zeros((crisis.shape[0] + 1, crisis.shape[1]), dtype=np.int32)
    np.cumsum(crisis, axis=0, dtype=np.int32, out=prefix[1:])
    touched = prefix[tail] > prefix[head + 1]
    touched |= crisis[head] & (u < (b - starts % b)[:, None])
    # tail is past the horizon only when ends % b == 0, where u >= b never holds
    touched |= (crisis[np.minimum(tail, crisis.shape[0] - 1)]
                & (u >= (b - ends % b)[:, None]))
    return np.einsum("k,ki->i", ends - starts + 1, touched)


def _batch_axis_recalls(o: int, b: int, q: int, u: np.ndarray,
                        crisis: np.ndarray) -> np.ndarray:
    """Recalls reduced batch by batch, for orders no longer than batches.

    Every order then touches one batch or two adjacent ones, so by
    inclusion-exclusion the recall is ``sum_j crisis_j * W_j(u) -
    sum_j crisis_j * crisis_j+1 * S_j(u)``, with W_j the total size of the
    orders touching batch j and S_j the size of the order straddling the
    boundary between batches j and j + 1. W and S are tabulated over every
    u in [0, B) when B is at most the chunk's trial count, else evaluated at
    the drawn u, so they never exceed O(trials + Q) entries.
    """
    tabulate = b <= len(u)
    touch, straddle = _batch_tables(o, b, q, crisis.shape[0],
                                    np.arange(b) if tabulate else u)
    if tabulate:
        touch, straddle = np.take(touch, u, axis=1), np.take(straddle, u, axis=1)
    both = crisis[:-1] & crisis[1:]
    return (np.einsum("ji,ji->i", crisis, touch)
            - np.einsum("ji,ji->i", both, straddle))


def _batch_tables(o: int, b: int, q: int, n_batches: int,
                  offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W_j and S_j of :func:`_batch_axis_recalls` for every batch j (rows)
    and initial consumption in ``offsets`` (columns).

    Batch j spans horizon units [c_j, c_j+1) with boundaries
    ``c_j = clip(j*B - u, 0, Q)``. W_j runs from the start of the order
    holding unit c_j to the end of the order holding unit c_j+1 - 1, and
    S_j from the start of the order holding unit c_j+1 to the end of the
    one holding c_j+1 - 1, which is 0 unless one order holds both.
    """
    unit = np.arange(q + 1, dtype=_sum_type(q))
    into = unit % o
    # start_of[c]: start of the order holding unit c (Q for c = Q);
    # end_before[c]: end of the order holding unit c - 1 (0 for c = 0)
    start_of = unit - into
    start_of[q] = q
    end_before = np.minimum(np.where(into, start_of + o, unit), q)
    bounds = np.arange(0, (n_batches + 1) * b, b)[:, None] - offsets
    np.clip(bounds, 0, q, out=bounds)
    ends, starts = end_before[bounds], start_of[bounds]
    return ends[1:] - starts[:-1], ends[1:-1] - starts[1:-1]


def _sum_type(q: int) -> type:
    """Integer type for recall sums up to twice the quantity q."""
    return np.int32 if 2 * q < 2**31 else np.int64


def estimate_recall(config: EstimateConfig) -> TrialEstimate:
    """Run the configured trials and summarize the recalled quantities.

    Reports the sample standard error and the Z95/Z98 normal-approximation
    half-widths around the mean.
    """
    recalls = trial_recalls(config)
    n = config.n_trials
    total = int(recalls.sum(dtype=np.int64))
    mean = total / n
    if n > 1:
        dev = recalls.astype(np.float64) - mean
        variance = float(np.sum(dev * dev)) / (n - 1)
        std_error = math.sqrt(variance / n)
    else:
        std_error = 0.0
    return TrialEstimate(mean_recall=mean, std_error=std_error,
                         ci95_half_width=Z95 * std_error,
                         ci98_half_width=Z98 * std_error,
                         n_trials=n, total_recalled=total)


def _check_axis(name: str, values: Sequence[int], upper: int | None = None) -> tuple[int, ...]:
    vals = tuple(int(v) for v in values)
    if not vals:
        raise InvalidParamsError(f"{name} must be nonempty")
    if any(v < 1 for v in vals):
        raise InvalidParamsError(f"{name} must be positive, got {vals}")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise InvalidParamsError(f"{name} must be strictly ascending, got {vals}")
    if upper is not None and vals[-1] > upper:
        raise InvalidParamsError(
            f"{name} must not exceed the total quantity {upper}, got {vals[-1]}")
    return vals


def sweep(quantity: int, crisis_prob: float, order_sizes: Sequence[int],
          batch_sizes: Sequence[int], n_trials: int = 10_000,
          base_seed: int = 0, include_simulation: bool = True) -> SweepGrid:
    """Recall-size landscape over every (order size, batch size) cell.

    Always fills the analytic surface; with ``include_simulation`` each cell
    also gets a Monte Carlo estimate seeded from (base_seed, o, b) and the
    grid-level mean absolute error as a percentage of the quantity.
    """
    orders = _check_axis("order_sizes", order_sizes, upper=int(quantity))
    batches = _check_axis("batch_sizes", batch_sizes)

    analytic = np.empty((len(orders), len(batches)))
    for i, o in enumerate(orders):
        for j, b in enumerate(batches):
            analytic[i, j] = expected_recall_size(
                ModelParams(o, b, quantity, crisis_prob))

    if not include_simulation:
        return SweepGrid(total_quantity=int(quantity), crisis_prob=float(crisis_prob),
                         order_sizes=orders, batch_sizes=batches, analytic=analytic)

    sim_mean = np.empty_like(analytic)
    ci95 = np.empty_like(analytic)
    for i, o in enumerate(orders):
        for j, b in enumerate(batches):
            params = ModelParams(o, b, quantity, crisis_prob)
            est = estimate_recall(EstimateConfig(
                params, n_trials=n_trials,
                base_seed=derive_seed(base_seed, o, b)))
            sim_mean[i, j] = est.mean_recall
            ci95[i, j] = est.ci95_half_width
    abs_error = np.abs(analytic - sim_mean)
    return SweepGrid(total_quantity=int(quantity), crisis_prob=float(crisis_prob),
                     order_sizes=orders, batch_sizes=batches, analytic=analytic,
                     sim_mean=sim_mean, abs_error=abs_error, ci95_half_width=ci95,
                     mean_abs_error_pct=100.0 * float(abs_error.mean()) / quantity,
                     n_trials=n_trials, base_seed=base_seed)


def crisis_prob_family(quantity: int, crisis_probs: Sequence[float],
                       order_sizes: Sequence[int],
                       batch_sizes: Sequence[int]) -> list[SweepGrid]:
    """One analytic-only grid per crisis probability (same size axes)."""
    return [sweep(quantity, p, order_sizes, batch_sizes,
                  include_simulation=False)
            for p in crisis_probs]

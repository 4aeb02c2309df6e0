"""Discrete FIFO order-fulfillment simulator with per-batch crisis flags.

One trial builds the full horizon: all customer orders for the total
quantity, enough batches to cover them (the first batch partially consumed
by earlier activity), FIFO allocation of units to orders, and the recall
measure - every order touching at least one crisis batch is withdrawn in
full.

Units are indivisible integers. A trial is a pure function of its
:class:`TrialConfig`; the crisis flags come from the trial's SplitMix64
stream (see :mod:`batchfrag.seeding`), whose output 0 is reserved for the
initial-consumption draw and whose outputs 1, 2, ... are the per-batch
crisis draws in batch-id order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .model import InvalidParamsError, ModelParams, _check_positive_int
from .seeding import below, stream_output, unit_float

__all__ = [
    "Batch",
    "Order",
    "FulfillmentOutcome",
    "TrialConfig",
    "InsufficientInventoryError",
    "generate_orders",
    "generate_batches",
    "fifo_assign",
    "measure_recall",
    "run_trial",
    "run_trial_outcome",
]


class InsufficientInventoryError(RuntimeError):
    """On-hand batches cannot cover the ordered units."""


@dataclass
class Batch:
    """One input batch in FIFO position ``id`` (0-based)."""

    id: int
    size: int
    in_crisis: bool
    consumed: int = 0


@dataclass
class Order:
    """One customer order; ``fragments`` lists (batch id, quantity) pairs."""

    id: int
    size: int
    fragments: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class FulfillmentOutcome:
    """Orders and batches after allocation; recall fields are None until
    :func:`measure_recall` runs."""

    orders: list[Order]
    batches: list[Batch]
    recalled_order_ids: frozenset[int] | None = None
    recalled_quantity: int | None = None


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial depends on.

    ``initial_consumption`` is the number of units of the first batch
    already used before this horizon starts, in [0, batch_size).
    """

    params: ModelParams
    initial_consumption: int
    rng_seed: int

    def __post_init__(self):
        u = _check_positive_int("initial_consumption",
                                self.initial_consumption, minimum=None)
        if not 0 <= u < self.params.batch_size:
            raise InvalidParamsError(
                f"initial_consumption must be in [0, {self.params.batch_size}), "
                f"got {u}")
        object.__setattr__(self, "initial_consumption", u)
        object.__setattr__(self, "rng_seed", _check_positive_int(
            "rng_seed", self.rng_seed, minimum=None))

    @classmethod
    def from_seed(cls, params: ModelParams, rng_seed: int) -> "TrialConfig":
        """Draw the initial consumption uniformly from output 0 of the trial
        stream, matching the layout :func:`run_trial` assumes. The seed is
        checked, as the constructor checks it, before the draw."""
        rng_seed = _check_positive_int("rng_seed", rng_seed, minimum=None)
        u = below(stream_output(rng_seed, 0), params.batch_size)
        return cls(params=params, initial_consumption=u, rng_seed=rng_seed)


def generate_orders(params: ModelParams) -> list[Order]:
    """Split the total quantity into orders of ``order_size`` units.

    When the total is not a multiple of the order size, one smaller final
    order carries the remainder so the horizon sums to exactly
    ``total_quantity``. Fragments are left empty.
    """
    q, o = params.total_quantity, params.order_size
    sizes = [o] * (q // o)
    if q % o:
        sizes.append(q % o)
    return [Order(id=i, size=s) for i, s in enumerate(sizes)]


def generate_batches(config: TrialConfig) -> list[Batch]:
    """Create just enough batches to cover the trial's horizon.

    ``ceil((Q + u) / B)`` batches of size B; batch 0 starts with the
    config's ``initial_consumption`` u already gone (``TrialConfig`` keeps
    u in [0, B)). Batch j's crisis flag is the independent
    Bernoulli(crisis_prob) draw ``unit_float(stream_output(seed, 1 + j)) < p``
    on the config's ``rng_seed``.
    """
    params, u = config.params, config.initial_consumption
    q, b, p = params.total_quantity, params.batch_size, params.crisis_prob
    n = -(-(q + u) // b)
    batches = []
    for j in range(n):
        in_crisis = unit_float(stream_output(config.rng_seed, 1 + j)) < p
        batches.append(Batch(id=j, size=b, in_crisis=in_crisis,
                             consumed=u if j == 0 else 0))
    return batches


def fifo_assign(orders: list[Order], batches: list[Batch]) -> FulfillmentOutcome:
    """Fill each order from the lowest-id batch with remaining capacity.

    Orders are processed in id order; one fragment is recorded per
    (order, batch) pair touched, and batch consumption accumulates across
    orders. Inputs are not mutated.
    """
    available = sum(b.size - b.consumed for b in batches)
    demanded = sum(o.size for o in orders)
    if available < demanded:
        raise InsufficientInventoryError(
            f"{available} units on hand cannot fill {demanded} ordered units")

    out_batches = [Batch(b.id, b.size, b.in_crisis, b.consumed)
                   for b in batches]
    out_orders = []
    cursor = 0
    for order in orders:
        fragments: list[tuple[int, int]] = []
        remaining = order.size
        while remaining > 0:
            batch = out_batches[cursor]
            capacity = batch.size - batch.consumed
            if capacity == 0:
                cursor += 1
                continue
            take = min(remaining, capacity)
            batch.consumed += take
            remaining -= take
            fragments.append((batch.id, take))
        out_orders.append(Order(id=order.id, size=order.size, fragments=fragments))
    return FulfillmentOutcome(orders=out_orders, batches=out_batches)


def measure_recall(outcome: FulfillmentOutcome) -> FulfillmentOutcome:
    """Mark every order containing a crisis-batch fragment as recalled.

    Recalled orders are withdrawn in full: the recalled quantity is the sum
    of their complete order sizes.
    """
    crisis_ids = {b.id for b in outcome.batches if b.in_crisis}
    recalled = frozenset(o.id for o in outcome.orders
                         if any(bid in crisis_ids for bid, _ in o.fragments))
    quantity = sum(o.size for o in outcome.orders if o.id in recalled)
    return replace(outcome, recalled_order_ids=recalled,
                   recalled_quantity=quantity)


def run_trial_outcome(config: TrialConfig) -> FulfillmentOutcome:
    """One full trial, returning the measured outcome.

    Output 0 of the trial stream is reserved for the initial-consumption
    draw whether or not the caller used :meth:`TrialConfig.from_seed`, so
    crisis flags start at output 1.
    """
    orders = generate_orders(config.params)
    batches = generate_batches(config)
    return measure_recall(fifo_assign(orders, batches))


def run_trial(config: TrialConfig) -> int:
    """Recalled quantity of one trial; bit-identical for identical configs."""
    return run_trial_outcome(config).recalled_quantity

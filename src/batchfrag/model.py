"""Closed-form fragmentation and recall-size model for FIFO lot assignment.

A customer order of ``O`` units filled from batches of ``B`` units under
FIFO is composed of a small number of batch fragments. Because the first
batch may be partially consumed by earlier orders (uniform offset
``u in {0..B-1}``), the fragment count is a two-point random variable::

    fr_min = ceil(O / B)            with probability p_fr_min
    fr_max = fr_min + 1             with probability p_fr_max

and its expectation has the closed form ``(O + B - 1) / B``. One bad batch
anywhere in the order forces a full recall of that order, so the expected
fraction recalled follows from the per-batch crisis probability raised to
the (expected) fragment count.

All fragment statistics are exact `fractions.Fraction` values; recall
probabilities and sizes are IEEE floats. Everything here is a pure function
of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "InvalidParamsError",
    "ModelParams",
    "FragmentationStats",
    "fragment_stats",
    "expected_fragments",
    "recall_probability",
    "recall_probability_exact",
    "expected_recall_size",
    "recall_size_formula",
    "recall_limit_batch_inf",
    "recall_limit_order_inf",
]


class InvalidParamsError(ValueError):
    """Raised when model parameters violate their invariants."""


def _check_positive_int(name: str, value, minimum: int | None = 1) -> int:
    """The library's one integer rule. ``value`` must equal an integer (an
    ``int``, a numpy integer or an integral float, but not a bool) that is
    at least ``minimum`` (any integer when ``minimum`` is None); it is
    returned as an ``int``. Anything else raises
    :class:`InvalidParamsError` naming ``name``."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if as_int != value or isinstance(value, (bool, np.bool_)):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and as_int < minimum:
        raise InvalidParamsError(f"{name} must be >= {minimum}, got {as_int}")
    return as_int


def _check_axis(name: str, values: Sequence[int]) -> Sequence[int]:
    """A sweep axis of ``name`` values (``order_size`` or ``batch_size``):
    nonempty, strictly ascending, and each element checked by
    :func:`_check_positive_int` as :class:`ModelParams` checks ``name``.
    Returns a tuple, or a ``range`` that passes as it is: one that is
    nonempty, ascending and starts at 1 or above, whatever its length."""
    if (isinstance(values, range) and values and values.step > 0
            and values.start >= 1):
        return values
    vals = tuple(_check_positive_int(name, v) for v in values)
    if not vals:
        raise InvalidParamsError(f"{name}s must be nonempty")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise InvalidParamsError(f"{name}s must be strictly ascending, got {vals}")
    return vals


def _check_probability(name: str, value) -> float:
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        raise InvalidParamsError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= as_float <= 1.0:
        raise InvalidParamsError(f"{name} must be in [0, 1], got {as_float}")
    return abs(as_float)  # -0.0 is 0.0, so that no result prints as -0


@dataclass(frozen=True)
class ModelParams:
    """The four scalars driving every formula in the model.

    order_size      units per customer order (>= 1)
    batch_size      units per input batch (>= 1)
    total_quantity  total ordered quantity across the horizon (>= order_size)
    crisis_prob     probability that any given batch is unacceptable, in [0, 1]
    """

    order_size: int
    batch_size: int
    total_quantity: int
    crisis_prob: float

    def __post_init__(self):
        object.__setattr__(self, "order_size",
                           _check_positive_int("order_size", self.order_size))
        object.__setattr__(self, "batch_size",
                           _check_positive_int("batch_size", self.batch_size))
        object.__setattr__(self, "total_quantity",
                           _check_positive_int("total_quantity", self.total_quantity))
        object.__setattr__(self, "crisis_prob",
                           _check_probability("crisis_prob", self.crisis_prob))
        if self.order_size > self.total_quantity:
            raise InvalidParamsError(
                "order size exceeds total quantity "
                f"({self.order_size} > {self.total_quantity})")


@dataclass(frozen=True)
class FragmentationStats:
    """Two-point distribution of the number of batch fragments in one order.

    ``p_fr_min + p_fr_max == 1`` and
    ``expected_fragments == p_fr_min*fr_min + p_fr_max*fr_max`` hold exactly;
    the probabilities and expectation are rationals.
    """

    fr_min: int
    fr_max: int
    p_fr_min: Fraction
    p_fr_max: Fraction
    expected_fragments: Fraction


def fragment_stats(params: ModelParams) -> FragmentationStats:
    """Fragment-count distribution for one order under FIFO.

    With ``r = order_size mod batch_size``: the maximal fragment count occurs
    with probability ``(B-1)/B`` when r == 0 and ``(r-1)/B`` otherwise
    (the number of first-batch offsets that force an extra fragment). When
    that probability is zero the count is deterministic and fr_max is
    reported equal to fr_min rather than as an unreachable value.
    """
    o, b = params.order_size, params.batch_size
    r = o % b
    extra = b - 1 if r == 0 else r - 1  # offsets that force fr_max
    fr_min = -(-o // b)  # ceil(o / b)
    return FragmentationStats(fr_min=fr_min, fr_max=fr_min + (extra > 0),
                              p_fr_min=Fraction(b - extra, b),
                              p_fr_max=Fraction(extra, b),
                              expected_fragments=expected_fragments(params))


def expected_fragments(params: ModelParams) -> Fraction:
    """Expected fragment count ``(O + B - 1) / B``, as an exact rational."""
    return Fraction(params.order_size + params.batch_size - 1,
                    params.batch_size)


def _order_crisis_prob(crisis_prob: float, exponents: np.ndarray) -> np.ndarray:
    """P(at least one of e independent batches is in crisis), for every
    exponent e of a float array ``exponents``.

    ``1 - (1 - p)**e``, exactly 0 at p = 0 and 1 at p = 1 with no special
    case (``1.0**e == 1.0`` and ``0.0**e == 0.0`` for every e >= 1). At
    e = 1 it returns p itself, because the float round trip 1-(1-p) is not
    the identity.

    Every value equals Python's ``1 - (1 - p)**e`` bit for bit, by how
    both powers are built. ``np.float_power``'s float64 loop applies
    numpy's ``npy_pow``, which is the C library's ``pow`` with no SIMD
    dispatch (``np.power`` dispatches to SIMD code and differs from ``**``
    by an ulp on thousands of cells of a 1000 x 50 grid). CPython's
    ``float_pow`` hands a finite base in [0, 1] and a finite exponent
    >= 1 to the same ``pow``; its own cases (base 0, base 1, ERANGE on
    underflow to 0) return what ``pow`` returns. ``pow`` raises the
    underflow flag on tiny results, where ``**`` returns them silently,
    so underflow is ignored whatever the caller's ``np.errstate``. The
    subtraction is the same IEEE operation in numpy as in Python.
    """
    with np.errstate(under="ignore"):
        probs = 1.0 - np.float_power(1.0 - crisis_prob, exponents)
    probs[exponents == 1.0] = crisis_prob
    return probs


def recall_probability(params: ModelParams) -> float:
    """Probability one order is recalled, via the expected fragment count.

    Uses the generally fractional expectation as the exponent; see
    :func:`recall_probability_exact` for the exact two-point mixture.
    """
    return recall_size_formula(1, params.order_size, params.batch_size,
                               params.crisis_prob)  # 1 * prob is exact


def recall_probability_exact(params: ModelParams) -> float:
    """Recall probability as the exact mixture over both fragment counts.

    Never exceeds :func:`recall_probability` (the fractional-exponent form
    is the concave map evaluated at the mean), with equality when the
    fragment count is deterministic or crisis_prob is 0 or 1.
    """
    stats = fragment_stats(params)
    at_min, at_max = _order_crisis_prob(
        params.crisis_prob,
        np.array([float(stats.fr_min), float(stats.fr_max)])).tolist()
    return float(stats.p_fr_min) * at_min + float(stats.p_fr_max) * at_max


def expected_recall_size(params: ModelParams) -> float:
    """Expected recalled units out of the total quantity.

    ``Q * (1 - (1 - p)**((O + B - 1)/B))``; an order-size-1 row reduces to
    exactly ``Q * p`` for every batch size.
    """
    return params.total_quantity * recall_probability(params)


def _check_grid(total_quantity: int, crisis_prob: float,
                order_sizes: Sequence[int], batch_sizes: Sequence[int]
                ) -> tuple[int, float, tuple[int, ...], tuple[int, ...]]:
    """Check a grid's inputs as :class:`ModelParams` checks every cell, in
    its order: both axes by :func:`_check_axis`, then Q and p, then O <= Q
    at the largest order size. Returns them normalised, in argument order.
    A ``range`` axis is checked without being built, so an order range far
    past Q fails at once."""
    orders = _check_axis("order_size", order_sizes)
    batches = _check_axis("batch_size", batch_sizes)
    corner = ModelParams(orders[-1], batches[0], total_quantity, crisis_prob)
    return (corner.total_quantity, corner.crisis_prob, tuple(orders),
            tuple(batches))


def _recall_size_surface(q: int, p: float, order_sizes: tuple[int, ...],
                         batch_sizes: tuple[int, ...]) -> np.ndarray:
    """:func:`expected_recall_size` of every (order size, batch size) cell,
    as a float matrix indexed [order size index, batch size index], on inputs
    that have passed :func:`_check_grid`: the analytic surface of
    :func:`batchfrag.montecarlo.sweep`.

    Every cell equals :func:`expected_recall_size` bit for bit. The
    exponents ``(O + B - 1) / B`` are one numpy division over the grid:
    while ``O + B - 1 <= 2**53`` both operands are exact doubles, so it is
    the same correctly rounded quotient as Python's ``int / int`` (larger
    axes divide Python ints in an object array). :func:`_order_crisis_prob`
    then raises every cell with one libm ``pow`` call each, the same
    ``pow`` as Python's ``**``, and Q is applied by one IEEE
    multiplication, the same as ``Q * prob``.
    """
    exact = order_sizes[-1] - 1 + batch_sizes[-1] <= 2**53
    dtype = np.float64 if exact else object
    orders = np.array(order_sizes, dtype=dtype)[:, None]
    batches = np.array(batch_sizes, dtype=dtype)
    exponents = np.asarray((orders - 1 + batches) / batches, dtype=np.float64)
    surface = _order_crisis_prob(p, exponents)
    surface *= float(q)
    return surface


def recall_size_formula(total_quantity: int, order_size: int,
                        batch_size: int, crisis_prob: float) -> float:
    """The recall-size closed form evaluated on raw arguments.

    Identical to :func:`expected_recall_size` on feasible scenarios, but
    without coupling the order size to the total quantity: the expression
    extends smoothly into the order_size > total_quantity region, which is
    how its large-order limit is probed even though such scenarios are
    rejected as model parameters.
    """
    q = _check_positive_int("total_quantity", total_quantity)
    o = _check_positive_int("order_size", order_size)
    b = _check_positive_int("batch_size", batch_size)
    p = _check_probability("crisis_prob", crisis_prob)
    (prob,) = _order_crisis_prob(p, np.array([(o + b - 1) / b])).tolist()
    return q * prob


def recall_limit_batch_inf(total_quantity: int, crisis_prob: float) -> float:
    """Recall size in the infinitely-large-batch limit: ``Q * p``.

    Every order then sits inside a single batch fragment, so only the bare
    batch crisis probability remains.
    """
    q = _check_positive_int("total_quantity", total_quantity)
    p = _check_probability("crisis_prob", crisis_prob)
    return q * p


def recall_limit_order_inf(total_quantity: int) -> float:
    """Recall size in the infinitely-large-order limit: ``Q``.

    An unboundedly large order spans unboundedly many batches, so for any
    positive crisis probability everything shipped is recalled. (For
    crisis_prob == 0 the recall size is identically zero instead.)
    """
    q = _check_positive_int("total_quantity", total_quantity)
    return float(q)

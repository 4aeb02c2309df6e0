"""Closed-form model: fragment distribution, recall probability, limits."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from batchfrag.model import (
    InvalidParamsError,
    ModelParams,
    _order_crisis_prob,
    expected_fragments,
    expected_recall_size,
    fragment_stats,
    recall_limit_batch_inf,
    recall_limit_order_inf,
    recall_probability,
    recall_probability_exact,
    recall_size_formula,
)
from batchfrag.montecarlo import sweep

order_sizes = st.integers(min_value=1, max_value=300)
batch_sizes = st.integers(min_value=1, max_value=300)


def params(o, b, q=None, p=0.15):
    return ModelParams(o, b, q if q is not None else max(o, 1000), p)


class TestModelParams:
    def test_rejects_order_above_quantity(self):
        with pytest.raises(InvalidParamsError, match="exceeds total quantity"):
            ModelParams(60, 4, 50, 0.15)

    @pytest.mark.parametrize("field,value", [
        ("order_size", 0), ("order_size", -3), ("order_size", 2.5),
        ("batch_size", 0), ("total_quantity", 0),
    ])
    def test_rejects_non_positive_or_fractional(self, field, value):
        good = dict(order_size=5, batch_size=4, total_quantity=50,
                    crisis_prob=0.1)
        good[field] = value
        with pytest.raises(InvalidParamsError):
            ModelParams(**good)

    @pytest.mark.parametrize("p", [-0.01, 1.01, float("nan"), "abc"])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(InvalidParamsError):
            ModelParams(5, 4, 50, p)

    def test_negative_zero_probability_is_zero(self):
        assert math.copysign(1.0, ModelParams(5, 4, 50, -0.0).crisis_prob) == 1.0
        assert math.copysign(1.0, recall_limit_batch_inf(50, -0.0)) == 1.0

    def test_rejects_boolean_sizes(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(True, 4, 50, 0.1)

    def test_integral_floats_are_coerced(self):
        assert ModelParams(5.0, 4, 50, 0.15).order_size == 5


class TestFragmentStats:
    def test_worked_example(self):
        """O=10, B=4: counts 3 or 4, P(4) = 1/4, mean 3.25."""
        st_ = fragment_stats(params(10, 4))
        assert st_.fr_min == 3
        assert st_.fr_max == 4
        assert st_.p_fr_max == Fraction(1, 4)
        assert st_.p_fr_min == Fraction(3, 4)
        assert st_.expected_fragments == Fraction(13, 4)

    def test_divisible_case(self):
        """O=8, B=4: only u=0 avoids the extra fragment."""
        st_ = fragment_stats(params(8, 4))
        assert (st_.fr_min, st_.fr_max) == (2, 3)
        assert st_.p_fr_max == Fraction(3, 4)

    def test_degenerate_remainder_one(self):
        """O mod B = 1 makes the count deterministic; no phantom fr_max."""
        st_ = fragment_stats(params(5, 4))
        assert st_.p_fr_max == 0
        assert st_.fr_min == st_.fr_max == 2
        assert st_.expected_fragments == 2

    def test_unit_batch(self):
        st_ = fragment_stats(params(7, 1))
        assert st_.fr_min == st_.fr_max == 7
        assert st_.p_fr_max == 0

    def test_batch_larger_than_order(self):
        st_ = fragment_stats(params(3, 10))
        assert (st_.fr_min, st_.fr_max) == (1, 2)
        assert st_.p_fr_max == Fraction(2, 10)

    @given(order_sizes, batch_sizes)
    def test_closed_form_and_normalization(self, o, b):
        st_ = fragment_stats(params(o, b))
        assert st_.p_fr_min + st_.p_fr_max == 1
        mean = st_.p_fr_min * st_.fr_min + st_.p_fr_max * st_.fr_max
        assert mean == Fraction(o + b - 1, b)
        assert expected_fragments(params(o, b)) == mean

    @given(order_sizes, batch_sizes)
    def test_bounds_and_step(self, o, b):
        st_ = fragment_stats(params(o, b))
        assert st_.fr_min == -(-o // b)
        assert st_.fr_max - st_.fr_min in (0, 1)
        assert 0 <= st_.p_fr_max < 1

    @given(order_sizes, batch_sizes)
    def test_monotone_in_order_and_batch(self, o, b):
        fr = expected_fragments(params(o, b))
        assert expected_fragments(params(o + 1, b)) >= fr
        assert expected_fragments(params(o, b + 1)) <= fr

    def test_large_batch_asymptote(self):
        fr = expected_fragments(params(10, 10**6))
        assert abs(fr - 1) <= Fraction(1, 10**5)


class TestRecallProbability:
    def test_worked_example_values(self):
        """Frozen against independent high-precision evaluation."""
        p = params(10, 4, 50, 0.15)
        assert recall_probability(p) == pytest.approx(
            0.41032663903215316, abs=1e-15)
        assert recall_probability_exact(p) == pytest.approx(
            0.4089046875, abs=1e-12)

    def test_single_fragment_is_exactly_p(self):
        """Exponent 1 must return the crisis probability bit-for-bit."""
        for b in (1, 7, 1000):
            p = params(1, b, 1000, 0.15)
            assert recall_probability(p) == 0.15
            assert recall_probability_exact(p) == 0.15

    @pytest.mark.parametrize("prob,expected", [(0.0, 0.0), (1.0, 1.0)])
    def test_probability_edges(self, prob, expected):
        p = params(10, 4, 50, prob)
        assert recall_probability(p) == expected
        assert recall_probability_exact(p) == expected

    @given(order_sizes, batch_sizes,
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_jensen_ordering(self, o, b, prob):
        """The fractional-exponent form never undercuts the exact mixture."""
        p = params(o, b, p=prob)
        exact, approx = recall_probability_exact(p), recall_probability(p)
        assert exact <= approx + 1e-12
        st_ = fragment_stats(p)
        if st_.p_fr_max == 0 or prob in (0.0, 1.0):
            assert exact == approx

    @given(order_sizes, batch_sizes,
           st.floats(min_value=0.01, max_value=0.99))
    def test_in_unit_interval(self, o, b, prob):
        # the upper end is reachable by rounding once (1-p)^fr underflows
        # past one ulp, so only the closed interval is float-true
        assert 0.0 < recall_probability(params(o, b, p=prob)) <= 1.0


class TestRecallSize:
    def test_scales_probability_by_quantity(self):
        p = params(10, 4, 50, 0.15)
        assert expected_recall_size(p) == 50 * recall_probability(p)

    def test_formula_matches_params_path(self):
        for o in range(1, 30):
            for b in range(1, 30):
                p = ModelParams(o, b, 50 if o <= 50 else o, 0.15)
                assert expected_recall_size(p) == recall_size_formula(
                    p.total_quantity, o, b, 0.15)

    def test_formula_reaches_beyond_quantity(self):
        """The raw expression is evaluable where params are rejected."""
        assert recall_size_formula(50, 10**6, 10, 0.15) == pytest.approx(
            50.0, abs=1e-6)

    def test_monotone_in_order_and_batch(self):
        for b in (1, 3, 10, 100):
            values = [recall_size_formula(50, o, b, 0.15)
                      for o in range(1, 51)]
            assert values == sorted(values)
        for o in (1, 7, 50):
            values = [recall_size_formula(50, o, b, 0.15)
                      for b in range(1, 101)]
            assert values == sorted(values, reverse=True)


@st.composite
def grids(draw):
    """A quantity with ascending order (at most Q) and batch axes."""
    q = draw(st.integers(1, 5000), label="Q")
    orders = draw(st.lists(st.integers(1, q), min_size=1, max_size=8,
                           unique=True).map(sorted), label="orders")
    batches = draw(st.lists(st.integers(1, 400), min_size=1, max_size=8,
                            unique=True).map(sorted), label="batches")
    return q, orders, batches


def surface(q, p, orders, batches):
    """The analytic surface alone, as sweep computes it without trials."""
    return sweep(q, p, orders, batches, include_simulation=False).analytic


class TestRecallSurface:
    @settings(max_examples=300, deadline=None)
    @given(grid=grids(), p=st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
        st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
        st.floats(0.0, 1.0)))
    # np.power differs from ** by an ulp here, as on 477 other cells of
    # the 1000 x 50 grid at this p
    @example(grid=(1000, [2], [31]), p=0.15)
    def test_equals_expected_recall_size_bit_for_bit(self, grid, p):
        q, orders, batches = grid
        expected = np.array([[expected_recall_size(ModelParams(o, b, q, p))
                              for b in batches] for o in orders])
        assert np.array_equal(surface(q, p, orders, batches), expected)

    @pytest.mark.parametrize("p", [0.15, 1e-9, 0.0, 1.0])
    def test_axes_beyond_two_to_the_53_bit_for_bit(self, p):
        """Where O + B - 1 exceeds 2**53 a float64 division is not Python's
        int / int; the surface still equals the per-cell closed form."""
        q = 2**60
        # a float64 division puts the exponent of the last two diagonal
        # cells an ulp off, which at p = 0.15 moves their values
        orders = [1, 2, 2**53 + 1, 71320213161695996, 222625075061555397]
        batches = [1, 3, 2**53 - 1, 11593100697977884, 71689487253333982]
        expected = np.array([[expected_recall_size(ModelParams(o, b, q, p))
                              for b in batches] for o in orders])
        assert np.array_equal(surface(q, p, orders, batches), expected)

    @pytest.mark.parametrize("q,p", [
        (0, 0.15), (True, 0.15), (2.5, 0.15),
        (10, -0.1), (10, 1.5), (10, math.nan),
    ])
    def test_rejects_what_model_params_rejects(self, q, p):
        with pytest.raises(InvalidParamsError) as cell:
            ModelParams(1, 1, q, p)
        with pytest.raises(InvalidParamsError,
                           match=f"^{re.escape(str(cell.value))}$"):
            surface(q, p, [1], [1, 2])

    @pytest.mark.parametrize("orders,batches,message", [
        ([1, 0], [2], "order_size must be >= 1, got 0"),
        ([-3], [2], "order_size must be >= 1, got -3"),
        ([2.5], [2], "order_size must be an integer, got 2.5"),
        ([True], [2], "order_size must be an integer, got True"),
        ([1], [0], "batch_size must be >= 1, got 0"),
        ([1], [-3], "batch_size must be >= 1, got -3"),
        ([1], [2.5], "batch_size must be an integer, got 2.5"),
        ([1], [True], "batch_size must be an integer, got True"),
        ([], [2], "order_sizes must be nonempty"),
        ([1], [], "batch_sizes must be nonempty"),
        ([3, 2], [2], "order_sizes must be strictly ascending, got (3, 2)"),
        ([1], [2, 2], "batch_sizes must be strictly ascending, got (2, 2)"),
        ([1, 60], [2], "order size exceeds total quantity (60 > 50)"),
    ], ids=[f"{axis}-{case}" for axis in ("order", "batch")
            for case in ("zero", "negative", "fraction", "bool")]
       + ["order-empty", "batch-empty", "order-descending", "batch-repeated",
          "order-above-quantity"])
    def test_rejects_a_bad_axis_with_its_message(self, orders, batches,
                                                 message):
        with pytest.raises(InvalidParamsError,
                           match=f"^{re.escape(message)}$"):
            surface(50, 0.15, orders, batches)

    def test_underflow_raises_nothing(self):
        """0.5**1100 underflows to 0 in libm's pow, as in Python's ``**``;
        a caller's ``np.errstate(all="raise")`` does not turn it into an
        error."""
        with np.errstate(all="raise"):
            assert expected_recall_size(ModelParams(1100, 1, 1100, 0.5)) \
                == 1100.0
            assert surface(1100, 0.5, [1100], [1]).tolist() == [[1100.0]]


def python_order_crisis_prob(p, exponents):
    """Python's own ``1 - (1 - p)**e`` for every e, and p itself at e = 1."""
    return np.array([p if e == 1.0 else 1 - (1 - p) ** e for e in exponents])


_EDGE_PROBS = [0.0, 1.0, 5e-324, 2.0**-53, 2.0**-52, 0.5,
               1.0 - 2.0**-53, 1.0 - 2.0**-52, 0.15, 0.137, 0.07]


class TestOrderCrisisProbAnchor:
    """``_order_crisis_prob`` against Python's float ``**``, compared as
    bits: the surface tests compare it only with itself."""

    @pytest.mark.parametrize("p", [0.15, 0.137, 0.07])
    def test_analytic_surface_grid(self, p):
        # the 1000 x 50 grid of the analytic-surface sweep; np.power is an
        # ulp off Python's ** on over 2,000 of its cells at each of these p
        orders = np.arange(1, 1001, dtype=np.float64)[:, None]
        batches = np.arange(1, 51, dtype=np.float64)
        exponents = (orders - 1 + batches) / batches
        expected = python_order_crisis_prob(p, exponents.ravel().tolist())
        got = _order_crisis_prob(p, exponents)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(p=st.sampled_from(_EDGE_PROBS) | st.floats(0.0, 1.0),
           exponents=st.lists(
               st.integers(1, 2**53).map(float)
               | st.tuples(st.integers(1, 2**53), st.integers(1, 2**53))
                   .map(lambda ob: (ob[0] + ob[1] - 1) / ob[1])
               | st.floats(1.0, 2.0**60),
               min_size=1, max_size=64))
    def test_equals_python_power_bit_for_bit(self, p, exponents):
        got = _order_crisis_prob(p, np.array(exponents))
        assert got.tobytes() == python_order_crisis_prob(
            p, exponents).tobytes()


class TestLimits:
    def test_batch_limit_value(self):
        assert recall_limit_batch_inf(50, 0.15) == 7.5
        assert recall_limit_batch_inf(10, 0.0) == 0.0

    def test_order_limit_value(self):
        assert recall_limit_order_inf(50) == 50.0

    def test_convergence_to_batch_limit(self):
        v = recall_size_formula(50, 10, 10**9, 0.15)
        assert abs(v - recall_limit_batch_inf(50, 0.15)) <= 1e-6

    def test_convergence_to_order_limit(self):
        v = recall_size_formula(50, 10**6, 10, 0.15)
        assert abs(v - recall_limit_order_inf(50)) <= 1e-6

    def test_zero_probability_excluded_from_order_limit(self):
        assert recall_size_formula(50, 10**6, 10, 0.0) == 0.0

    def test_limit_validation(self):
        with pytest.raises(InvalidParamsError):
            recall_limit_batch_inf(0, 0.15)
        with pytest.raises(InvalidParamsError):
            recall_limit_batch_inf(50, 1.5)

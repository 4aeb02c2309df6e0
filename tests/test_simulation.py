"""FIFO fulfillment simulator: hand traces, invariants, determinism."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchfrag.model import InvalidParamsError, ModelParams
from batchfrag.seeding import below, stream_output, unit_float
from batchfrag.simulation import (
    Batch,
    FulfillmentOutcome,
    InsufficientInventoryError,
    Order,
    TrialConfig,
    fifo_assign,
    generate_batches,
    generate_orders,
    measure_recall,
    run_trial,
    run_trial_outcome,
)


def make_params(o=10, b=4, q=50, p=0.15):
    return ModelParams(o, b, q, p)


class TestGenerateOrders:
    def test_divisible_quantity(self):
        orders = generate_orders(make_params(o=10, q=50))
        assert [o.size for o in orders] == [10] * 5
        assert [o.id for o in orders] == [0, 1, 2, 3, 4]
        assert all(o.fragments == [] for o in orders)

    def test_remainder_order_is_appended(self):
        orders = generate_orders(make_params(o=7, q=50))
        assert [o.size for o in orders] == [7] * 7 + [1]

    def test_single_order_horizon(self):
        orders = generate_orders(make_params(o=50, q=50))
        assert [o.size for o in orders] == [50]

    @given(st.integers(1, 60), st.integers(1, 500))
    def test_sizes_sum_to_quantity(self, o, q_extra):
        q = o + q_extra
        orders = generate_orders(make_params(o=o, q=q))
        assert sum(x.size for x in orders) == q
        assert all(x.size == o for x in orders[:-1])
        assert 1 <= orders[-1].size <= o


class TestGenerateBatches:
    def test_count_covers_quantity_plus_consumption(self):
        params = make_params(o=10, b=4, q=50)
        for u in range(4):
            batches = generate_batches(TrialConfig(params, u, 0))
            assert len(batches) == -(-(50 + u) // 4)
            assert batches[0].consumed == u
            assert all(b.consumed == 0 for b in batches[1:])
            assert all(b.size == 4 for b in batches)

    def test_crisis_flags_extreme_probabilities(self):
        no = generate_batches(TrialConfig(make_params(p=0.0), 0, 5))
        assert not any(b.in_crisis for b in no)
        all_ = generate_batches(TrialConfig(make_params(p=1.0), 0, 5))
        assert all(b.in_crisis for b in all_)

    def test_rejects_out_of_range_consumption(self):
        """The TrialConfig that generate_batches takes cannot hold u >= B."""
        with pytest.raises(InvalidParamsError):
            generate_batches(TrialConfig(make_params(b=4), 4, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 12),
           st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)))
    def test_flag_j_is_stream_output_one_plus_j(self, seed, b, p):
        """Output 0 is the consumption draw; batch j's flag is output 1 + j,
        whatever the consumption u."""
        params = make_params(o=5, b=b, q=40, p=p)
        for u in range(b):
            batches = generate_batches(TrialConfig(params, u, seed))
            assert [x.in_crisis for x in batches] == [
                unit_float(stream_output(seed, 1 + j)) < p
                for j in range(len(batches))]


class TestFifoAssign:
    def test_hand_trace_three_orders(self):
        """Sizes {4,3,3} into 4-unit batches with 2 units pre-consumed."""
        orders = [Order(0, 4), Order(1, 3), Order(2, 3)]
        batches = [Batch(0, 4, False, consumed=2), Batch(1, 4, False),
                   Batch(2, 4, False)]
        out = fifo_assign(orders, batches)
        assert out.orders[0].fragments == [(0, 2), (1, 2)]
        assert out.orders[1].fragments == [(1, 2), (2, 1)]
        assert out.orders[2].fragments == [(2, 3)]
        assert [b.consumed for b in out.batches] == [4, 4, 4]

    def test_fragment_count_follows_offset(self):
        """One 10-unit order, 4-unit batches: u=0 gives 3 cuts, u=3 gives 4."""
        order = [Order(0, 10)]
        flat = fifo_assign(order, [Batch(i, 4, False) for i in range(3)])
        assert flat.orders[0].fragments == [(0, 4), (1, 4), (2, 2)]
        shifted = [Batch(0, 4, False, consumed=3)] + [
            Batch(i, 4, False) for i in range(1, 4)]
        bumped = fifo_assign(order, shifted)
        assert bumped.orders[0].fragments == [(0, 1), (1, 4), (2, 4), (3, 1)]

    def test_inputs_not_mutated(self):
        orders = [Order(0, 4)]
        batches = [Batch(0, 4, False)]
        fifo_assign(orders, batches)
        assert batches[0].consumed == 0
        assert orders[0].fragments == []

    def test_insufficient_inventory(self):
        with pytest.raises(InsufficientInventoryError):
            fifo_assign([Order(0, 5)], [Batch(0, 4, False)])


class TestMeasureRecall:
    def test_no_crisis_recalls_nothing(self):
        out = fifo_assign([Order(0, 4)], [Batch(0, 4, False)])
        measured = measure_recall(out)
        assert measured.recalled_order_ids == frozenset()
        assert measured.recalled_quantity == 0

    def test_all_crisis_recalls_everything(self):
        orders = [Order(0, 4), Order(1, 4)]
        batches = [Batch(i, 4, True) for i in range(2)]
        measured = measure_recall(fifo_assign(orders, batches))
        assert measured.recalled_quantity == 8

    def test_straddling_batch_recalls_both_orders(self):
        """A 6-unit crisis batch feeding two 4-unit orders pulls both."""
        orders = [Order(0, 4), Order(1, 4)]
        batches = [Batch(0, 6, True), Batch(1, 6, False)]
        measured = measure_recall(fifo_assign(orders, batches))
        assert measured.recalled_order_ids == frozenset({0, 1})
        assert measured.recalled_quantity == 8


class TestTrialConfig:
    def test_from_seed_draws_stream_output_zero(self):
        params = make_params(b=7)
        for seed in (0, 1, 99, 2**60):
            cfg = TrialConfig.from_seed(params, seed)
            assert cfg.initial_consumption == below(stream_output(seed, 0), 7)

    def test_rejects_out_of_range_consumption(self):
        with pytest.raises(InvalidParamsError):
            TrialConfig(make_params(b=4), 4, 0)
        with pytest.raises(InvalidParamsError):
            TrialConfig(make_params(b=4), -1, 0)

    def test_integer_rule(self):
        """Consumption and seed follow the library's one integer rule:
        integral values are normalised to int, others are rejected."""
        params = make_params(b=4)
        config = TrialConfig(params, np.int64(2), np.uint64(5))
        assert config == TrialConfig(params, 2, 5)
        assert type(config.initial_consumption) is type(config.rng_seed) is int
        assert TrialConfig(params, 2.0, -3).rng_seed == -3
        with pytest.raises(InvalidParamsError,
                           match=r"^initial_consumption must be an integer, got 1\.5$"):
            TrialConfig(params, 1.5, 0)
        with pytest.raises(InvalidParamsError,
                           match=r"^rng_seed must be an integer, got True$"):
            TrialConfig(params, 0, True)

    @pytest.mark.parametrize("seed", [1.5, None, "x", True, np.True_],
                             ids=["fraction", "none", "str", "bool", "np-bool"])
    def test_from_seed_checks_seed_as_constructor_does(self, seed):
        with pytest.raises(InvalidParamsError) as built:
            TrialConfig(make_params(), 0, seed)
        with pytest.raises(InvalidParamsError,
                           match=f"^{re.escape(str(built.value))}$"):
            TrialConfig.from_seed(make_params(), seed)

    @pytest.mark.parametrize("seed", [np.int64(3), 3.0], ids=["int64", "float"])
    def test_from_seed_accepts_integral_seeds(self, seed):
        config = TrialConfig.from_seed(make_params(), seed)
        assert config == TrialConfig.from_seed(make_params(), 3)
        assert type(config.rng_seed) is int

    def test_crisis_flags_independent_of_consumption(self):
        """Output 0 is reserved either way, so flags never shift."""
        params = make_params(o=4, b=4, q=8)
        lo = run_trial_outcome(TrialConfig(params, 0, 31))
        hi = run_trial_outcome(TrialConfig(params, 3, 31))
        shared = min(len(lo.batches), len(hi.batches))
        assert ([b.in_crisis for b in lo.batches[:shared]]
                == [b.in_crisis for b in hi.batches[:shared]])


class TestRunTrial:
    def test_zero_probability_never_recalls(self):
        params = make_params(p=0.0)
        assert all(run_trial(TrialConfig.from_seed(params, s)) == 0
                   for s in range(50))

    def test_certain_crisis_recalls_everything(self):
        params = make_params(p=1.0)
        assert all(run_trial(TrialConfig.from_seed(params, s)) == 50
                   for s in range(50))

    def test_bit_identical_reruns(self):
        cfg = TrialConfig.from_seed(make_params(), 424242)
        assert run_trial(cfg) == run_trial(cfg)
        assert run_trial_outcome(cfg) == run_trial_outcome(cfg)


configs = st.tuples(
    st.integers(1, 40),          # order size
    st.integers(1, 20),          # batch size
    st.integers(0, 80),          # quantity excess over order size
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(0, 2**64 - 1),   # seed
)


@settings(max_examples=300, deadline=None)
@given(configs)
def test_outcome_invariants(case):
    """Conservation, FIFO shape, and contiguity for randomized trials."""
    o, b, q_extra, p, seed = case
    params = ModelParams(o, b, o + q_extra, p)
    cfg = TrialConfig.from_seed(params, seed)
    out = run_trial_outcome(cfg)
    u = cfg.initial_consumption
    q = params.total_quantity

    # conservation
    assert all(sum(qty for _, qty in x.fragments) == x.size
               for x in out.orders)
    assert sum(x.size for x in out.orders) == q
    assert sum(x.consumed for x in out.batches) - u == q

    # FIFO shape: every batch but the last is exhausted, none are untouched
    assert all(x.consumed == x.size for x in out.batches[:-1])
    assert 1 <= out.batches[-1].consumed <= out.batches[-1].size

    # fragment quantities are positive and batch ids consecutive per order;
    # adjacent orders share at most the boundary batch
    prev_ids = None
    for x in out.orders:
        ids = [bid for bid, qty in x.fragments]
        assert all(qty >= 1 for _, qty in x.fragments)
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        if prev_ids is not None:
            assert ids[0] >= prev_ids[-1]
            assert len(set(ids) & set(prev_ids)) <= 1
        prev_ids = ids

    # recall measure consistency
    crisis = {x.id for x in out.batches if x.in_crisis}
    expect = frozenset(x.id for x in out.orders
                       if any(bid in crisis for bid, _ in x.fragments))
    assert out.recalled_order_ids == expect
    assert out.recalled_quantity == sum(x.size for x in out.orders
                                        if x.id in expect)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 25), st.integers(0, 2**64 - 1))
def test_single_order_fragment_count_law(o, b, seed):
    """A lone O-unit order with offset u splits into ceil((O+u)/B) pieces."""
    params = ModelParams(o, b, o, 0.5)
    cfg = TrialConfig.from_seed(params, seed)
    out = run_trial_outcome(cfg)
    u = cfg.initial_consumption
    assert len(out.orders[0].fragments) == -(-(o + u) // b)

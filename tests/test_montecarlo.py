"""Monte Carlo harness: kernel parity, estimator algebra, sweep grids."""

import decimal
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchfrag import montecarlo
from batchfrag.model import (
    InvalidParamsError,
    ModelParams,
    expected_recall_size,
    recall_probability_exact,
)
from batchfrag.montecarlo import (
    Z95,
    Z98,
    EstimateConfig,
    estimate_recall,
    sweep,
    trial_recalls,
)
from batchfrag.seeding import derive_seed, derive_seeds
from batchfrag.simulation import (Batch, Order, TrialConfig, fifo_assign,
                                  measure_recall, run_trial)


# A feasible cell, and the ModelParams field whose message each other integer
# input shares (with the name swapped).
_CELL = dict(order_size=1, batch_size=1, total_quantity=10, crisis_prob=0.15)
_MODEL_FIELD = {"n_trials": "order_size", "base_seed": "order_size"}
_INTEGER_ENTRIES = {
    "sweep-Q": ("total_quantity", lambda v: sweep(
        v, 0.15, [1], [1, 3], include_simulation=False)),
    "sweep-order": ("order_size", lambda v: sweep(
        10, 0.15, [v], [1], include_simulation=False)),
    "sweep-batch": ("batch_size", lambda v: sweep(
        10, 0.15, [1], [1, v], include_simulation=False)),
    "sweep-n_trials": ("n_trials", lambda v: sweep(
        10, 0.15, [1], [1], n_trials=v)),
    "sweep-base_seed": ("base_seed", lambda v: sweep(
        10, 0.15, [1], [1], n_trials=5, base_seed=v)),
    "EstimateConfig-n_trials": ("n_trials", lambda v: EstimateConfig(
        ModelParams(**_CELL), v)),
    "EstimateConfig-base_seed": ("base_seed", lambda v: EstimateConfig(
        ModelParams(**_CELL), 5, v)),
}


def exact_std_error(recalls):
    """sqrt((n*S2 - S1**2) / (n**2 * (n - 1))) of integer recalls, from
    their sums as Python ints and a 60-digit decimal root, rounded once to
    a float (0 for one recall)."""
    xs = [int(x) for x in recalls]
    n, s1, s2 = len(xs), sum(xs), sum(x * x for x in xs)
    if n == 1:
        return 0.0
    with decimal.localcontext() as context:
        context.prec = 60
        return float((decimal.Decimal(n * s2 - s1 * s1)
                      / (n * n * (n - 1))).sqrt())


def record_calls(mp, name):
    """Patch kernel function ``name`` to record each call's (args, kwargs,
    result) in the returned list."""
    calls = []
    make = getattr(montecarlo, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs, make(*args, **kwargs)))
        return calls[-1][2]

    mp.setattr(montecarlo, name, recorded)
    return calls


def group_recalls(orders, b, q, p, seeds, n):
    """The (cells, n) recall matrix whose blocks _group_recalls hands to its
    sink; fails unless every (cell, trial) entry is handed over once."""
    recalls = np.zeros((len(orders), n), dtype=np.int64)
    handed = np.zeros((len(orders), n), dtype=np.int64)

    def store(cell, trial, block):
        at = np.s_[cell:cell + block.shape[0], trial:trial + block.shape[1]]
        recalls[at] = block
        handed[at] += 1

    montecarlo._group_recalls(orders, b, q, p, seeds, n, store)
    assert (handed == 1).all()
    return recalls


class TestTrialRecalls:
    @pytest.mark.parametrize("o,b,q,p", [
        (10, 4, 50, 0.15),
        (7, 3, 50, 0.2),
        (1, 1, 20, 0.05),
        (50, 1, 50, 0.15),
        (13, 29, 61, 0.5),
        (5, 100, 23, 0.9),
        (23, 23, 23, 1.0),
        (10, 4, 50, 0.0),
        # batch sizes past int32, up to the last with B + Q below 2**63
        *[(o, b, 50, 0.5) for o in (1, 7, 50)
          for b in (2**31, 10**12, 2**62, 2**63 - 51)],
    ])
    def test_matches_single_trial_path(self, o, b, q, p):
        """The array kernel must reproduce run_trial bit for bit."""
        params = ModelParams(o, b, q, p)
        config = EstimateConfig(params, n_trials=200, base_seed=77)
        vectorized = trial_recalls(config).tolist()
        direct = [run_trial(TrialConfig.from_seed(params, derive_seed(77, i)))
                  for i in range(200)]
        assert vectorized == direct

    @pytest.mark.parametrize("orders_longer", [True, False],
                             ids=["order-axis", "batch-axis"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_single_trial_path_random(self, orders_longer, data):
        """Parity on random cells, probabilities at and next to the 2**-53
        grid of the crisis test, and chunk budgets down to one trial."""
        q = data.draw(st.integers(2 if orders_longer else 1, 80), label="Q")
        o = data.draw(st.integers(2 if orders_longer else 1, q), label="O")
        b = data.draw(st.integers(1, o - 1) if orders_longer
                      else st.one_of(st.integers(o, 120),
                                     st.integers(o, 10**6)), label="B")
        p = data.draw(st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.integers(0, 2**12).map(lambda k: k * 2.0**-53),
            st.floats(0.0, 1.0)), label="p")
        p = math.nextafter(p, data.draw(st.sampled_from([p, 0.0, 1.0])))
        n = data.draw(st.integers(1, 40), label="n_trials")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        budget = data.draw(st.sampled_from([None, 1, 7, 64]), label="chunk")
        params = ModelParams(o, b, q, p)
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(montecarlo, "_CHUNK_OUTPUTS", budget)
            vectorized = trial_recalls(EstimateConfig(params, n, seed)).tolist()
        direct = [run_trial(TrialConfig.from_seed(params, derive_seed(seed, i)))
                  for i in range(n)]
        assert vectorized == direct

    @pytest.mark.parametrize("o,b,q,p", [
        (100, 1, 6000, 0.002),
        (7, 3, 5000, 0.03),
        (5, 4, 8000, 0.05),
    ])
    def test_matches_single_trial_path_on_long_horizons(self, o, b, q, p):
        """Chunks with more batches than columns, on the order axis, with
        probabilities that leave some orders unrecalled."""
        params = ModelParams(o, b, q, p)
        vectorized = trial_recalls(EstimateConfig(params, 24, 5)).tolist()
        direct = [run_trial(TrialConfig.from_seed(params, derive_seed(5, i)))
                  for i in range(24)]
        assert vectorized == direct
        assert 0 < min(direct) < max(direct) < q

    def test_memory_bounded_at_large_quantity(self):
        """Trials are processed in chunks, so the working set does not grow
        with n_trials * Q (unchunked this cell would need about 8 GB)."""
        config = EstimateConfig(ModelParams(1, 1, 20_000, 0.15), 10_000, 1)
        tracemalloc.start()
        try:
            recalls = trial_recalls(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recalls.shape == (10_000,)
        assert peak < 128 * 2**20

    @pytest.mark.parametrize("o", [1, 7])
    def test_memory_independent_of_batch_size(self, o):
        """Initial consumptions below B - Q all put the horizon in batch 0,
        so the batch-axis tables cover at most Q of them: a table over every
        u in [0, B) would need tens of MB here."""
        config = EstimateConfig(ModelParams(o, 10**7, 50, 0.15), 20, 1)
        tracemalloc.start()
        try:
            recalls = trial_recalls(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recalls.shape == (20,)
        assert peak < 2**20

    @pytest.mark.parametrize("b", [2**63 - 50, 2**64 + 5])
    def test_rejects_batch_size_beyond_int64(self, b):
        config = EstimateConfig(ModelParams(7, b, 50, 0.5), 10)
        with pytest.raises(InvalidParamsError, match="^batch_size must be"
                           " below 2\\*\\*63 - total_quantity"):
            trial_recalls(config)

    def test_bounded_by_quantity(self):
        config = EstimateConfig(ModelParams(9, 5, 47, 0.4), 500, 3)
        recalls = trial_recalls(config)
        assert recalls.min() >= 0
        assert recalls.max() <= 47

    def test_deterministic(self):
        config = EstimateConfig(ModelParams(10, 4, 50, 0.15), 300, 5)
        assert trial_recalls(config).tolist() == trial_recalls(config).tolist()


class TestKernelTables:
    @pytest.mark.parametrize("rows,cells,trials", [
        (300, 1, 8), (130, 3, 5), (20, 2, 200), (1, 1, 3)],
        ids=["rows>columns", "several-cells", "rows<=columns", "one-row"])
    def test_crisis_in_rows_matches_prefix_counts(self, rows, cells, trials):
        """Every run [a, b) of rows, empty ones too, in every cell, against a
        prefix count, on a column slice as _group_recalls passes one."""
        rng = np.random.default_rng(rows)
        flags = rng.random((rows, 7 + cells * trials)) < min(0.5, 3 / rows)
        crisis = flags[:, 7:].reshape(rows, cells, trials)
        start, stop = np.triu_indices(rows + 1)
        start, stop, cell = (np.repeat(start, cells), np.repeat(stop, cells),
                             np.tile(np.arange(cells), len(start)))
        prefix = np.zeros((rows + 1, cells, trials), dtype=np.int64)
        np.cumsum(crisis, axis=0, out=prefix[1:])
        expected = prefix[stop, cell] > prefix[start, cell]
        touched = montecarlo._crisis_in_rows(crisis, start, stop, cell)
        np.testing.assert_array_equal(touched, expected)
        assert 0 < expected.mean() < 1

    @pytest.mark.parametrize("b", [2**62, 2**63 - 51])
    def test_batch_axis_tables_exact_at_huge_batch_sizes(self, b):
        """W and S against Python-int sums of the orders touching each
        batch, for every initial consumption the tables cover."""
        q, order_sizes = 50, (1, 7, 50)
        n_batches = (q + 2 * b - 2) // b
        axis = montecarlo._batch_axis_tables(np.array(order_sizes), b, q,
                                             n_batches)
        touch, straddle = _full_tables(axis)
        assert axis.period == 0
        assert (axis.straddle is None) == (not straddle.any())
        lo = b - q
        for c, o in enumerate(order_sizes):
            for u in range(lo, b):
                w = [0] * n_batches
                s = [0] * (n_batches - 1)
                for first in range(0, q, o):
                    size = min(o, q - first)
                    j0, j1 = (u + first) // b, (u + first + size - 1) // b
                    for j in range(j0, j1 + 1):
                        w[j] += size
                    if j1 > j0:
                        s[j0] += size
                column = c * (b - lo) + u - lo
                assert touch[:, column].tolist() == w
                assert straddle[:, column].tolist() == s


def _full_tables(axis):
    """W and S of a _BatchAxis, with S's zeros where it holds None."""
    if axis.straddle is not None:
        return axis.touch, axis.straddle
    return axis.touch, np.zeros_like(axis.touch[:-1])


def _repeating_rows(axis, period):
    """Rows 1 .. span of both tables repeat with ``period``: scanned row by
    row against row 1 + (j - 1) % period."""
    touch, straddle = _full_tables(axis)
    j = 1
    while (j < len(straddle)
           and (touch[j] == touch[1 + (j - 1) % period]).all()
           and (straddle[j] == straddle[1 + (j - 1) % period]).all()):
        j += 1
    return j - 1


def _fold_case(orders, b, q, columns):
    """The unfolded _BatchAxis of a group and what _batch_axis_fold makes
    of it."""
    axis = montecarlo._batch_axis_tables(
        np.array(orders), b, q, (q + 2 * b - 2) // b)
    return axis, montecarlo._batch_axis_fold(np.array(orders), b, axis,
                                             columns)


class TestBatchAxisFold:
    """Long batch-axis horizons are reduced by residue class of the tables'
    row period; no recall may change."""

    @pytest.mark.parametrize("orders,b,q", [
        ((1,), 1, 6000), ((2,), 3, 6000), ((7,), 10, 6000), ((4,), 6, 600),
        ((1, 2, 3, 4), 4, 600), ((2, 3, 4, 5, 6), 6, 1000)])
    @pytest.mark.parametrize("columns", [1, 32, 2114])
    def test_period_and_span_match_a_scan_of_the_tables(self, orders, b, q,
                                                        columns):
        """The fold's period is the smallest with two repeating periods of
        rows, and its end falls on the last whole group of periods of the
        scanned span."""
        tables, fold = _fold_case(orders, b, q, columns)
        smallest = next(period for period in itertools.count(1)
                        if _repeating_rows(tables, period) >= 2 * period)
        assert fold.period == smallest == math.lcm(
            *(o // math.gcd(o, b) for o in orders))
        periods = _repeating_rows(tables, fold.period) // fold.period
        assert fold.group == min(periods, -(-montecarlo._FOLD_WIDTH
                                            // (fold.period * columns)))
        assert fold.end == 1 + periods // fold.group * fold.group * fold.period
        assert (fold.straddle is None) == (tables.straddle is None)
        for full, kept in zip(_full_tables(tables), _full_tables(fold)):
            rows = [*range(fold.period + 1), *range(fold.end, len(full))]
            np.testing.assert_array_equal(kept, full[rows])

    @pytest.mark.parametrize("orders,b,q", [
        ((5,), 7, 60), ((7, 9, 11, 13), 20, 600), ((7,), 10**7, 50),
        ((1, 2), 20, 5)])
    def test_no_fold_without_two_periods(self, orders, b, q):
        axis, fold = _fold_case(orders, b, q, 32)
        assert fold is axis and fold.period == 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_folded_reduction_matches_gather_random(self, data):
        """Random crisis matrices and initial consumptions, on groups of one
        to four cells, horizons from under two periods to hundreds of them
        and B > Q: the folded reduction equals the gathered one, and a
        group whose S is all zeros gives the same recalls with its zeros
        put back in."""
        b = data.draw(st.integers(1, 12), label="B")
        q = data.draw(st.one_of(st.integers(1, 3 * b), st.integers(1, 400)),
                      label="Q")
        orders = data.draw(st.lists(st.integers(1, min(b, q)), min_size=1,
                                    max_size=4, unique=True).map(sorted),
                           label="orders")
        n = data.draw(st.integers(1, 40), label="trials per cell")
        columns = data.draw(st.integers(1, 4 * len(orders) * n),
                            label="chunk columns")
        density = data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]),
                            label="crisis density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="rng seed"))
        tables, fold = _fold_case(orders, b, q, columns)
        rows = (q + 2 * b - 2) // b
        crisis = rng.random((rows, len(orders) * n)) < density
        u = rng.integers(0, b, len(orders) * n)
        cells = np.arange(len(orders))
        cases = [(tables, fold)]
        if tables.straddle is None:
            cases.append(tuple(axis._replace(straddle=_full_tables(axis)[1])
                               for axis in (tables, fold)))
        for whole, folded in cases:
            np.testing.assert_array_equal(
                montecarlo._batch_axis_recalls(folded, b, q, cells, u, crisis),
                montecarlo._batch_axis_recalls(whole, b, q, cells, u, crisis))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_recalls_unchanged_by_the_fold(self, data):
        """Whole groups, batch-axis cells with or without order-axis ones,
        under chunk budgets from one column up: every recall equals the
        kernel's with the fold turned off."""
        b = data.draw(st.integers(1, 8), label="B")
        q = data.draw(st.integers(b, 300), label="Q")
        orders = data.draw(st.lists(st.integers(1, q), min_size=1, max_size=5,
                                    unique=True).map(sorted), label="orders")
        p = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]), label="p")
        n = data.draw(st.integers(1, 30), label="n_trials")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        budget = data.draw(st.sampled_from([None, 1, 7, 64, 4096]),
                           label="chunk")
        seeds = [derive_seed(seed, o, b) for o in orders]
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(montecarlo, "_CHUNK_OUTPUTS", budget)
            folded = group_recalls(orders, b, q, p, seeds, n)
            mp.setattr(montecarlo, "_batch_axis_fold",
                       lambda orders, b, axis, columns: axis)
            gathered = group_recalls(orders, b, q, p, seeds, n)
        np.testing.assert_array_equal(folded, gathered)

    @pytest.mark.parametrize("o,b,q,p", [
        (1, 1, 6000, 0.2), (2, 3, 6000, 0.2), (7, 10, 6000, 0.05),
        (1, 100, 6000, 0.3), (3, 7, 60, 0.4)])
    def test_matches_single_trial_path_on_long_horizons(self, monkeypatch,
                                                        o, b, q, p):
        """Folded horizons, long ones and one of only three periods of
        rows, against the object-level simulator on sampled trials."""
        folds = []
        make_fold = montecarlo._batch_axis_fold

        def recorded_fold(*args):
            folds.append(make_fold(*args))
            return folds[-1]

        monkeypatch.setattr(montecarlo, "_batch_axis_fold", recorded_fold)
        params = ModelParams(o, b, q, p)
        vectorized = trial_recalls(EstimateConfig(params, 64, 9)).tolist()
        assert folds[0].period > 0
        for i in (0, 1, 31, 63):
            assert vectorized[i] == run_trial(
                TrialConfig.from_seed(params, derive_seed(9, i)))
        assert min(vectorized) < max(vectorized)


def unit_recalls(o, b, q, u, crisis):
    """Recall of each column by the process's definition, unit by unit:
    unit t lies in batch ``(u + t) // B``, and an order is recalled iff one
    of its units lies in a crisis batch. No W/S table, run or fold."""
    hit = np.take_along_axis(crisis, (u + np.arange(q)[:, None]) // b, axis=0)
    firsts = np.arange(0, q, o)
    recalled = np.logical_or.reduceat(hit, firsts, axis=0)
    return np.minimum(o, q - firsts) @ recalled


def every_pattern(b, rows):
    """A column for each initial consumption u in [0, B) and each of the
    2**rows crisis patterns, u-major: column ``u * 2**rows + code`` has
    crisis flag j set iff bit j of code is."""
    patterns = 1 << rows
    flags = (np.arange(patterns) >> np.arange(rows)[:, None]) & 1 == 1
    return np.repeat(np.arange(b), patterns), np.tile(flags, b)


class TestExhaustiveReductions:
    """Every Q <= 10, B <= 12, O <= Q, u in [0, B) and crisis pattern: both
    reductions, with and without the fold and the straddle term, and the
    recall table, against the process's unit-by-unit definition."""

    def test_reductions_and_table_match_the_definition(self):
        checked = 0
        for q, b in itertools.product(range(1, 11), range(1, 13)):
            rows = (q + 2 * b - 2) // b
            u, crisis = every_pattern(b, rows)
            orders = np.arange(1, q + 1)
            expected = np.stack([unit_recalls(o, b, q, u, crisis)
                                 for o in orders])
            split = min(b, q)  # cells [0, split) on the batch axis
            tables = montecarlo._batch_axis_tables(orders[:split], b, q, rows)
            for cells in (range(split), *([c] for c in range(split))):
                cells = np.array(cells)
                own = montecarlo._batch_axis_tables(orders[cells], b, q, rows)
                tiled = (np.tile(u, len(cells)), np.tile(crisis, len(cells)))
                local = np.arange(len(cells))
                folded = montecarlo._batch_axis_fold(orders[cells], b, own,
                                                     len(tiled[0]))
                axes = (own,) if folded is own else (own, folded)
                if own.straddle is None:  # the straddle term on S's zeros
                    axes += tuple(axis._replace(straddle=_full_tables(axis)[1])
                                  for axis in axes)
                for axis in axes:
                    got = montecarlo._batch_axis_recalls(axis, b, q, local,
                                                         *tiled)
                    np.testing.assert_array_equal(
                        got.reshape(len(cells), -1), expected[cells])
            order_axis = montecarlo._order_axis_tables(orders[split:], b, q)
            if q > split:
                got = montecarlo._order_axis_recalls(
                    order_axis, 0, q - split, np.tile(u, q - split),
                    np.tile(crisis, q - split))
                np.testing.assert_array_equal(got, expected[split:])
            for columns in (3 << rows, 1 << 20):
                table = montecarlo._recall_table(
                    tables, order_axis, split, b, q, rows, columns)
                np.testing.assert_array_equal(table, expected.reshape(-1))
            checked += expected.size
        assert checked == 42084


def test_object_simulator_matches_the_definition():
    """fifo_assign and measure_recall on hand-built orders and batches, for
    every O <= Q <= 10, B <= 4, initial consumption u and crisis pattern of
    u's own batches, against the unit-by-unit definition (0.7 s on a
    2-vCPU Xeon)."""
    checked = 0
    for q, b in itertools.product(range(1, 11), range(1, 5)):
        rows = (q + 2 * b - 2) // b
        horizons = [[Order(k, min(o, q - start))
                     for k, start in enumerate(range(0, q, o))]
                    for o in range(1, q + 1)]
        for u in range(b):
            batches = -(-(q + u) // b)
            codes = np.arange(1 << batches)
            crisis = np.zeros((rows, len(codes)), dtype=bool)
            crisis[:batches] = (codes >> np.arange(batches)[:, None]) & 1 == 1
            columns = np.full(len(codes), u)
            expected = np.stack([unit_recalls(o, b, q, columns, crisis)
                                 for o in range(1, q + 1)], axis=1)
            got = []
            for code in codes.tolist():
                # fifo_assign copies the batches, so every O shares them
                stock = [Batch(j, b, code >> j & 1 == 1, u if j == 0 else 0)
                         for j in range(batches)]
                got.append([measure_recall(fifo_assign(orders, stock))
                            .recalled_quantity for orders in horizons])
            np.testing.assert_array_equal(got, expected, err_msg=f"B={b} "
                                          f"Q={q} u={u}, (pattern, O - 1)")
            checked += q * len(codes)
    assert checked == 23854


class TestExhaustiveGroupRecalls:
    """_group_recalls itself, with every order size of every B and Q <= 10
    at once, on streams that give each cell every (u, crisis pattern): every
    recall against the process's unit-by-unit definition, on the table
    path, both reductions, chunks that cut cells and probe plans that end
    long runs in rounds."""

    # p is 1/2, so output 0 is a crisis draw and 2**64 - 1 is not
    P = 0.5
    NO_CRISIS = np.uint64(2**64 - 1)

    @classmethod
    def _patterned(cls, mp, orders, b, q, seeds, n):
        """Patch stream_outputs so that trial i of cell c draws u and the
        crisis pattern of combination ``(i + c) % (B * 2**rows)`` (u-major),
        in every call form the kernel uses; returns the definition's
        recall of each (cell, trial)."""
        rows = (q + 2 * b - 2) // b
        combo = (np.arange(n) + np.arange(len(orders))[:, None]) % (b << rows)
        u, code = (combo >> rows).reshape(-1), (combo % (1 << rows)).reshape(-1)
        # output 0 at the middle of u's interval of unit floats
        first = ((2 * u + 1) << 52) // b
        first = first.astype(np.uint64) << np.uint64(11)
        crisis = (code >> np.arange(rows)[:, None]) & 1 == 1
        # words[k, column]: output k of the column's (cell, trial)
        words = np.vstack((first, np.where(crisis, np.uint64(0),
                                           cls.NO_CRISIS)))
        trial_seeds = derive_seeds(np.array(seeds, dtype=np.uint64)[:, None],
                                   np.arange(n, dtype=np.uint64)).reshape(-1)
        by_seed = np.argsort(trial_seeds)
        known = trial_seeds[by_seed]
        assert (np.diff(known) > 0).all()

        def patterned(s, outputs):
            at = by_seed[np.searchsorted(known, s)]
            assert (trial_seeds[at] == s).all()
            if isinstance(outputs, (int, np.integer)):
                return words[:outputs, at]
            # an index past the horizon fails here
            return words[np.asarray(outputs).astype(np.int64), at]

        mp.setattr(montecarlo, "stream_outputs", patterned)
        expected = [unit_recalls(o, b, q, u[c * n:(c + 1) * n],
                                 crisis[:, c * n:(c + 1) * n])
                    for c, o in enumerate(orders)]
        return np.array(expected)

    @pytest.mark.parametrize("path", [
        "table", "table, cells cut", "reductions", "reductions, cells cut",
        "probe plans"])
    def test_every_recall_matches_the_definition(self, path):
        tables = plans = rounds = short = 0
        for q, b in itertools.product(range(1, 11), range(1, 11)):
            rows = (q + 2 * b - 2) // b
            combos = b << rows
            orders = tuple(range(1, q + 1))
            n = 6 * combos if path.startswith("table") else combos
            if path == "probe plans" and b > 1:
                continue  # only B = 1 has order runs of more than 4 rows
            seeds = [derive_seed(q, o, b) for o in orders]
            with pytest.MonkeyPatch.context() as mp:
                if path == "table, cells cut":
                    # the smallest budget whose size cap admits the table
                    mp.setattr(montecarlo, "_CHUNK_OUTPUTS", 4 * q * combos)
                if path.startswith("reductions") or path == "probe plans":
                    mp.setattr(montecarlo, "_TABLE_ROWS", 0)
                if path == "reductions, cells cut":
                    mp.setattr(montecarlo, "_CHUNK_OUTPUTS", 1 << 8)
                if path == "probe plans":
                    # one trial per chunk, and every plan skips more outputs
                    mp.setattr(montecarlo, "_CHUNK_OUTPUTS", 1)
                    mp.setattr(montecarlo, "_probe_rows", lambda p: 1)
                calls = {name: record_calls(mp, name) for name in (
                    "_recall_table", "_probe_plan", "_finish_long_runs",
                    "derive_seeds")}
                expected = self._patterned(mp, orders, b, q, seeds, n)
                recalls = group_recalls(orders, b, q, self.P, seeds, n)
            np.testing.assert_array_equal(recalls, expected,
                                          err_msg=f"B={b} Q={q}")
            if path == "table, cells cut" and rows <= 8:
                assert len(calls["derive_seeds"]) >= 2 * q
            tables += len(calls["_recall_table"])
            plans += sum(plan is not None
                         for *_, plan in calls["_probe_plan"])
            rounds += len(calls["_finish_long_runs"])
            short += rows <= 8
        assert tables == (short if path.startswith("table") else 0)
        assert (plans > 0, rounds > 0) == (path == "probe plans",) * 2


class TestRecallTable:
    """Short horizons read each trial's recall from a table of every
    (cell, u, crisis pattern); no recall and no draw may change."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_recalls_match_the_reductions(self, data):
        """Groups of one to four cells on either axis or both, with enough
        trials for the table, several cells to a chunk or cells cut into
        chunks: every recall
        equals the reductions' with the table turned off, sampled trials
        equal run_trial, and every row is still drawn."""
        b = data.draw(st.integers(1, 8), label="B")
        rows = data.draw(st.integers(1, min(8, (512 // b).bit_length() - 1)),
                         label="rows")
        q = data.draw(st.integers(max(1, (rows - 2) * b + 2),
                                  (rows - 1) * b + 1), label="Q")
        orders = data.draw(st.lists(st.integers(1, q), min_size=1, max_size=4,
                                    unique=True).map(sorted), label="orders")
        p = data.draw(st.sampled_from([0.0, 2**-53, 0.3, 1.0]), label="p")
        n = data.draw(st.integers(0, 64), label="extra trials") + (
            montecarlo._TABLE_TRIALS * b << rows)
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        budget = data.draw(st.sampled_from([None, 1 << 15]), label="chunk")
        seeds = [derive_seed(seed, o, b) for o in orders]
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:  # cells cut into chunks, table kept
                mp.setattr(montecarlo, "_CHUNK_OUTPUTS", budget)
            tables = record_calls(mp, "_recall_table")
            draws = record_calls(mp, "stream_outputs")
            recalls = group_recalls(orders, b, q, p, seeds, n)
            assert len(tables) == 1
            assert sum(out.size for *_, out in draws) == (
                len(orders) * n * (rows + 1))
            mp.setattr(montecarlo, "_TABLE_ROWS", 0)
            reduced = group_recalls(orders, b, q, p, seeds, n)
            assert len(tables) == 1
        np.testing.assert_array_equal(recalls, reduced)
        sample = sorted({0, n - 1, data.draw(st.integers(0, n - 1),
                                             label="trial")})
        for c, (o, cell_seed) in enumerate(zip(orders, seeds)):
            for i in sample:
                assert recalls[c, i] == run_trial(TrialConfig.from_seed(
                    ModelParams(o, b, q, p), derive_seed(cell_seed, i)))

    @pytest.mark.parametrize("orders,b,q,slack,used,probed", [
        ((1, 5), 4, 20, 0, True, False),          # 6 rows
        ((1, 5), 4, 20, -1, False, False),        # one trial too few
        ((1, 7), 1, 8, 0, True, False),           # 8 rows, runs of 6
        ((1, 7), 1, 9, 10**4, False, True),       # 9 rows
        (range(1, 11), 7, 50, 0, True, False),    # 17,920 entries
        (range(1, 51), 7, 50, 0, False, True),    # 89,600 entries
    ])
    def test_used_only_on_short_horizons_with_enough_trials(
            self, monkeypatch, orders, b, q, slack, used, probed):
        """The fewest trials that take the table, and the horizon and size
        limits; at p = 1 runs of more than 4 rows are probed, except on the
        table path."""
        rows = (q + 2 * b - 2) // b
        n = (montecarlo._TABLE_TRIALS * b << rows) + slack
        tables = record_calls(monkeypatch, "_recall_table")
        plans = record_calls(monkeypatch, "_probe_plan")
        montecarlo._group_recalls(tuple(orders), b, q, 1.0,
                                  list(range(len(orders))), n,
                                  lambda *block: None)
        assert (len(tables), bool(plans)) == (used, probed)

    @pytest.mark.parametrize("orders,b,q,straddles", [
        ((1,), 1, 6000, False), ((1,), 7, 50, False), ((1, 2), 3, 50, True),
        ((3,), 100, 50, True), ((1, 60), 20, 100, False)])
    def test_straddle_term_decided_once_per_group(self, monkeypatch, orders,
                                                  b, q, straddles):
        """Only a group whose S table is all zeros (O = 1) skips the
        straddle term, and every batch-axis reduction of it does."""
        calls = record_calls(monkeypatch, "_batch_axis_recalls")
        monkeypatch.setattr(montecarlo, "_CHUNK_OUTPUTS", 1 << 11)
        recalls = group_recalls(orders, b, q, 0.3, [4] * len(orders), 300)
        assert len(calls) > 1
        assert {args[0].straddle is not None
                for args, _, _ in calls} == {straddles}
        for c, o in enumerate(orders):
            for i in (0, 299):
                assert recalls[c, i] == run_trial(TrialConfig.from_seed(
                    ModelParams(o, b, q, 0.3), derive_seed(4, i)))


class TestEarlyResolution:
    """Long order-axis runs are drawn in part for every trial and in full
    only for orders not yet recalled; no recall may change."""

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.25, 0.3, 0.5, 0.9])
    def test_probe_finds_a_crisis_with_probability_three_quarters(self, p):
        rows = montecarlo._probe_rows(p)
        assert (1 - p) ** rows <= 0.25 < (1 - p) ** (rows - 1)

    @pytest.mark.parametrize("p,rows", [(0.0, 0), (5e-324, 0), (1.0, 1)])
    def test_probe_extremes(self, p, rows):
        assert montecarlo._probe_rows(p) == rows

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_group_matches_cells_and_single_trials(self, data):
        """Groups with batch-axis cells and order-axis cells whose runs pass
        the probing threshold, under chunk budgets that split cells or hold
        several and probe lengths from 1 to none: every cell's recalls equal
        trial_recalls of that cell alone with default settings, sampled
        trials equal run_trial, and sweep equals estimate_recall."""
        q = data.draw(st.integers(20, 300), label="Q")
        b = data.draw(st.integers(1, 4), label="B")
        orders = data.draw(st.lists(st.integers(q // 3, q), min_size=1,
                                    max_size=3), label="long orders")
        if data.draw(st.booleans(), label="other cells"):
            orders += data.draw(st.lists(st.integers(1, q), max_size=2),
                                label="orders")
        if data.draw(st.booleans(), label="batch-axis cell"):
            orders.append(data.draw(st.integers(1, b), label="short order"))
        orders = sorted(set(orders))
        p = data.draw(st.sampled_from([2**-53, 0.01, 0.05, 0.3, 1.0]),
                      label="p")
        n = data.draw(st.integers(1, 40), label="n_trials")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        budget = data.draw(st.sampled_from([None, 1, 7, 64, 4096]),
                           label="chunk")
        probe = data.draw(st.sampled_from([None, 1, 2, 10**9]), label="probe")
        seeds = [derive_seed(seed, o, b) for o in orders]
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(montecarlo, "_CHUNK_OUTPUTS", budget)
            if probe is not None:
                mp.setattr(montecarlo, "_probe_rows", lambda p: probe)
            recalls = group_recalls(orders, b, q, p, seeds, n)
            grid = sweep(q, p, orders, [b], n_trials=n, base_seed=seed)
        sample = sorted({0, n - 1, data.draw(st.integers(0, n - 1),
                                             label="trial")})
        for c, (o, cell_seed) in enumerate(zip(orders, seeds)):
            config = EstimateConfig(ModelParams(o, b, q, p), n, cell_seed)
            assert recalls[c].tolist() == trial_recalls(config).tolist()
            for i in sample:
                assert recalls[c, i] == run_trial(TrialConfig.from_seed(
                    config.params, derive_seed(cell_seed, i)))
            est = estimate_recall(config)
            assert grid.sim_mean[c, 0] == est.mean_recall
            assert grid.std_error[c, 0] == est.std_error

    @pytest.mark.parametrize("probe", [None, 1, 2])
    @pytest.mark.parametrize("p", [0.01, 0.05])
    def test_several_probing_cells_in_one_chunk(self, p, probe):
        """Cells whose long runs end in rounds, two to a chunk (a horizon
        past 4096 batches at 16 trials) and one to a chunk: each pair's
        rounds draw from its own cell's seeds."""
        orders, b, q, n = [150, 210, 300, 420], 1, 4200, 16
        seeds = [derive_seed(3, o) for o in orders]
        expected = [trial_recalls(EstimateConfig(ModelParams(o, b, q, p), n,
                                                 s)).tolist()
                    for o, s in zip(orders, seeds)]
        probing_cells = []
        make_plan = montecarlo._probe_plan

        def recorded_plan(tables, lo, hi, *args):
            plan = make_plan(tables, lo, hi, *args)
            if plan is not None:
                probing_cells.append(hi - lo)
            return plan

        for budget in (montecarlo._CHUNK_OUTPUTS, 400):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(montecarlo, "_CHUNK_OUTPUTS", budget)
                mp.setattr(montecarlo, "_probe_plan", recorded_plan)
                if probe is not None:
                    mp.setattr(montecarlo, "_probe_rows", lambda p: probe)
                recalls = group_recalls(orders, b, q, p, seeds, n)
            assert recalls.tolist() == expected
        if probe is not None:
            assert 2 in probing_cells and 1 in probing_cells
        for c, (o, s) in enumerate(zip(orders, seeds)):
            for i in (0, 7, n - 1):
                assert expected[c][i] == run_trial(TrialConfig.from_seed(
                    ModelParams(o, b, q, p), derive_seed(s, i)))
        assert min(map(min, expected)) < q

    @staticmethod
    def _words(monkeypatch, o, b, q, p, n):
        """Stream outputs trial_recalls draws, summed over every call."""
        drawn = []
        draw = montecarlo.stream_outputs

        def counted(*args):
            out = draw(*args)
            drawn.append(out.size)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(montecarlo, "stream_outputs", counted)
            recalls = trial_recalls(
                EstimateConfig(ModelParams(o, b, q, p), n, 4))
        return sum(drawn), recalls

    def test_draws_under_a_quarter_of_the_stream_on_long_runs(
            self, monkeypatch):
        n, dense = 200, 200 * (6001 + 1)
        words, recalls = self._words(monkeypatch, 100, 1, 6000, 0.3, n)
        assert words < dense // 4
        assert 0 < recalls.min() and recalls.max() == 6000

    @pytest.mark.parametrize("o,b,p", [
        (2, 1, 0.3), (2, 1, 0.05), (100, 1, 0.0), (7, 3, 0.0), (1, 1, 0.0)])
    def test_draws_every_output_once_otherwise(self, monkeypatch, o, b, p):
        n, q = 200, 6000
        words, _ = self._words(monkeypatch, o, b, q, p, n)
        assert words == n * ((q + 2 * b - 2) // b + 1)


class TestMonotoneInProbability:
    """A trial's stream outputs do not depend on p and a crisis flag is
    ``x < unit_threshold(p)``, so each trial's recall is nondecreasing in
    p, whichever way the kernel reduces it."""

    PROBS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0)

    @pytest.mark.parametrize("o,b,q,mechanism", [
        (3, 4, 10, "_recall_table"), (1, 1, 600, "_batch_axis_fold"),
        (2, 3, 600, "_batch_axis_fold"), (100, 1, 6000, "_probe_plan"),
        (7, 3, 50, None), (40, 2, 300, None), (13, 29, 61, None)])
    def test_trial_recalls(self, monkeypatch, o, b, q, mechanism):
        calls = [] if mechanism is None else record_calls(monkeypatch,
                                                         mechanism)
        recalls = np.array([
            trial_recalls(EstimateConfig(ModelParams(o, b, q, p), 500, 11))
            for p in self.PROBS])
        assert (np.diff(recalls, axis=0) >= 0).all()
        assert recalls[0].max() == 0 and recalls[-1].min() == q
        # a table or probe plan was built, or the tables were folded
        assert mechanism is None or any(
            made is not None and getattr(made, "period", 1) > 0
            for *_, made in calls)

    def test_run_trial(self):
        for o, b, q in ((3, 4, 10), (2, 3, 60), (7, 2, 50), (1, 1, 30),
                        (20, 3, 90)):
            for i in range(40):
                seed = derive_seed(5, o, b, i)
                recalls = [run_trial(TrialConfig.from_seed(
                    ModelParams(o, b, q, p), seed)) for p in self.PROBS]
                assert recalls == sorted(recalls), (o, b, q, i)
                assert recalls[0] == 0 and recalls[-1] == q


class TestEstimateRecall:
    def test_mean_is_exact_integer_ratio(self):
        config = EstimateConfig(ModelParams(10, 4, 50, 0.15), 1000, 11)
        est = estimate_recall(config)
        assert est.mean_recall == est.total_recalled / est.n_trials
        assert est.total_recalled == int(trial_recalls(config).sum())
        assert 0.0 <= est.mean_recall <= 50.0

    def test_statistics_match_manual_recomputation(self):
        """Mean, std_error and both half-widths to the last bit, recomputed
        from trial_recalls in Python ints. std_error is sqrt((n*S2 - S1**2)
        / (n**2 * (n - 1))) of the exact sums S1 = sum(x), S2 = sum(x**2),
        rounded once; on this grid rounding the ratio before the root
        differs in some cells, so the single rounding is pinned, not just
        the formula."""
        cells = [(7, 3, 40, 0.3, 2000, 4)] + [
            (o, b, 50, 0.15, n, seed) for o, b, n, seed in itertools.product(
                (1, 3, 10), (1, 4, 7), (2, 3, 10, 100, 1000), range(3))]
        twice_rounded = 0
        for o, b, q, p, n, seed in cells:
            config = EstimateConfig(ModelParams(o, b, q, p), n, seed)
            est = estimate_recall(config)
            recalls = [int(x) for x in trial_recalls(config)]
            s1, s2 = sum(recalls), sum(x * x for x in recalls)
            se = exact_std_error(recalls)
            assert (est.mean_recall, est.std_error) == (s1 / n, se), config
            assert est.total_recalled == s1
            assert est.ci95_half_width == Z95 * se
            assert est.ci98_half_width == Z98 * se
            twice_rounded += math.sqrt(
                (n * s2 - s1 * s1) / (n * n * (n - 1))) != se
        assert twice_rounded > 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sums_exact_and_near_the_two_pass_value(self, data):
        """Recalls handed over in blocks of the kernel's integer type, on
        recall vectors of quantities up to 2**40 (whose squares and sums
        leave int32 and int64) and on the recalls of kernel cells: S1, S2,
        the mean and std_error are exact, and where the float mean's error
        is negligible (Q <= 2**16) std_error lies within a few ulp of the
        two-pass value sqrt(sum((x - mean)**2) / (n - 1) / n)."""
        if data.draw(st.booleans(), label="kernel cell"):
            q = data.draw(st.integers(1, 200), label="Q")
            o = data.draw(st.integers(1, q), label="O")
            b = data.draw(st.integers(1, 250), label="B")
            p = data.draw(st.floats(0.0, 1.0), label="p")
            n = data.draw(st.integers(1, 300), label="n_trials")
            recalls = trial_recalls(EstimateConfig(
                ModelParams(o, b, q, p), n, data.draw(st.integers(0, 99))))
            recalls = recalls.tolist()
        else:
            q = data.draw(st.one_of(st.integers(1, 2**16),
                                    st.integers(2**29, 2**40)), label="Q")
            recalls = data.draw(st.lists(st.integers(0, q) | st.just(q),
                                         min_size=1, max_size=200),
                                label="recalls")
        n = len(recalls)
        cuts = sorted(data.draw(st.sets(st.integers(1, n), max_size=4),
                                label="block ends") | {n})
        sums = montecarlo._TrialSums(1, q)
        start = 0
        for end in cuts:
            sums.add(0, start, np.array([recalls[start:end]],
                                        dtype=montecarlo._sum_type(q)))
            start = end
        [total], [mean], [se] = sums.summary(n)
        s1 = sum(recalls)
        assert sums.s2 == [sum(x * x for x in recalls)]
        assert (total, mean) == (s1, s1 / n)
        assert se == exact_std_error(recalls)
        if q <= 2**16:
            squares = (np.array(recalls, dtype=np.float64) - s1 / n) ** 2
            two_pass = math.sqrt(squares.sum() / (n - 1) / n) if n > 1 else 0.0
            assert abs(se - two_pass) <= 8 * math.ulp(two_pass)

    @pytest.mark.parametrize("q,b", [(2**32 + 3, 2**31), (2**31 + 1, 2**30)])
    def test_exact_where_squares_pass_int64(self, q, b):
        """One order of Q units over a horizon of a few batches recalls 0 or
        Q, so at Q > 2**31.5 one square passes int64 and at Q > 2**31 forty
        of them do; S1 and S2 are then added in Python ints."""
        config = EstimateConfig(ModelParams(q, b, q, 0.5), 40, 2)
        recalls = [int(x) for x in trial_recalls(config)]
        assert set(recalls) == {0, q}
        est = estimate_recall(config)
        assert est.total_recalled == sum(recalls)
        assert est.mean_recall == sum(recalls) / 40
        assert est.std_error == exact_std_error(recalls)
        grid = sweep(q, 0.5, [q], [b], n_trials=40, base_seed=2)
        assert grid.std_error[0, 0] == exact_std_error(trial_recalls(
            EstimateConfig(config.params, 40, derive_seed(2, q, b))))

    @pytest.mark.parametrize("estimate", ["estimate_recall", "sweep"])
    def test_memory_bounded_in_trials(self, estimate):
        """Trials are summed as they are drawn, so 4 million trials per cell
        need no more memory than a few chunks (61 MiB for one cell and
        46 MiB for a 6-cell sweep when every recall was kept)."""
        n = 4_000_000
        tracemalloc.start()
        try:
            if estimate == "sweep":
                grid = sweep(50, 0.15, [5, 50], [50, 100, 200], n_trials=n)
                result = grid.sim_mean
            else:
                result = estimate_recall(EstimateConfig(
                    ModelParams(50, 100, 50, 0.15), n, 0)).mean_recall
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(result > 0)
        assert peak < 4 * 2**20

    def test_zero_probability_collapses(self):
        est = estimate_recall(EstimateConfig(ModelParams(10, 4, 50, 0.0),
                                             500, 0))
        assert est.mean_recall == 0.0
        assert est.std_error == 0.0
        assert est.total_recalled == 0

    def test_mean_invariant_under_trial_permutation(self):
        """Exact integer accumulation makes scheduling irrelevant."""
        config = EstimateConfig(ModelParams(10, 4, 50, 0.15), 400, 9)
        recalls = trial_recalls(config)
        assert int(recalls.sum()) == int(recalls[::-1].sum())
        assert estimate_recall(config).total_recalled == int(recalls.sum())

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            EstimateConfig(ModelParams(10, 4, 50, 0.15), 0, 0)

    @pytest.mark.parametrize("n,seed", [(np.int64(300), np.int64(7)),
                                        (300.0, 7.0), (np.int32(300), np.uint64(7))])
    def test_integral_trials_and_seed_normalised(self, n, seed):
        params = ModelParams(10, 4, 50, 0.15)
        config = EstimateConfig(params, n, seed)
        assert config == EstimateConfig(params, int(n), 7)
        assert type(config.n_trials) is int and type(config.base_seed) is int
        assert estimate_recall(config) == estimate_recall(
            EstimateConfig(params, int(n), 7))

    def test_checkpoint_small_orders(self):
        """Unit orders from unit batches: mean near Q*p."""
        est = estimate_recall(EstimateConfig(ModelParams(1, 1, 50, 0.15),
                                             10_000, 0))
        assert abs(est.mean_recall - 7.5) <= 3 * est.std_error


class TestSweep:
    def test_grid_shape_and_error_identities(self):
        grid = sweep(50, 0.15, range(1, 6), range(1, 8), n_trials=150,
                     base_seed=2)
        assert grid.analytic.shape == (5, 7)
        assert grid.sim_mean.shape == (5, 7)
        np.testing.assert_array_equal(
            grid.abs_error, np.abs(grid.analytic - grid.sim_mean))
        expect_pct = 100.0 * float(grid.abs_error.mean()) / 50
        assert grid.mean_abs_error_pct == expect_pct

    def test_analytic_cells_match_model(self):
        grid = sweep(50, 0.15, [1, 10, 50], [1, 4, 100], n_trials=10,
                     base_seed=0)
        for i, o in enumerate([1, 10, 50]):
            for j, b in enumerate([1, 4, 100]):
                assert grid.analytic[i, j] == expected_recall_size(
                    ModelParams(o, b, 50, 0.15))

    def test_analytic_only_leaves_simulation_empty(self):
        grid = sweep(50, 0.15, range(1, 4), range(1, 4),
                     include_simulation=False)
        assert grid.sim_mean is None
        assert grid.abs_error is None
        assert grid.std_error is None
        assert grid.ci95_half_width is None
        assert grid.mean_abs_error_pct is None
        assert grid.n_trials is None

    def test_cells_recomputable_in_isolation(self):
        """A cell's estimate depends only on (base_seed, o, b)."""
        big = sweep(50, 0.15, [3, 10], [2, 7], n_trials=250, base_seed=6)
        small = sweep(50, 0.15, [10], [7], n_trials=250, base_seed=6)
        assert small.sim_mean[0, 0] == big.sim_mean[1, 1]
        assert small.ci95_half_width[0, 0] == big.ci95_half_width[1, 1]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_cell_estimates_random(self, data):
        """Simulating the cells of a batch size together changes no figure:
        each cell equals estimate_recall of that cell alone, with groups
        holding both O > B and O <= B, B > n, and chunk budgets that split
        cells or span several."""
        q = data.draw(st.integers(1, 80), label="Q")
        orders = data.draw(st.lists(st.integers(1, q), min_size=1, max_size=6,
                                    unique=True).map(sorted), label="orders")
        batches = data.draw(st.lists(st.integers(1, 120), min_size=1,
                                     max_size=4, unique=True), label="batches")
        if len(orders) > 1:  # a batch size that splits the order sizes
            batches.append(data.draw(st.integers(orders[0], orders[-1] - 1),
                                     label="B between orders"))
        batches = sorted(set(batches))
        p = data.draw(st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.integers(0, 2**12).map(lambda k: k * 2.0**-53),
            st.floats(0.0, 1.0)), label="p")
        n = data.draw(st.integers(1, 40), label="n_trials")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        budget = data.draw(st.sampled_from([None, 1, 7, 64]), label="chunk")
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(montecarlo, "_CHUNK_OUTPUTS", budget)
            grid = sweep(q, p, orders, batches, n_trials=n, base_seed=seed)
        cells = [[estimate_recall(EstimateConfig(ModelParams(o, b, q, p), n,
                                                 derive_seed(seed, o, b)))
                  for b in batches] for o in orders]
        mean = np.array([[e.mean_recall for e in row] for row in cells])
        se = np.array([[e.std_error for e in row] for row in cells])
        ci95 = np.array([[e.ci95_half_width for e in row] for row in cells])
        assert np.array_equal(grid.sim_mean, mean)
        assert np.array_equal(grid.std_error, se)
        assert np.array_equal(grid.ci95_half_width, ci95)
        assert np.array_equal(grid.abs_error, np.abs(grid.analytic - mean))

    def test_matches_per_cell_estimates_at_a_huge_batch_size(self):
        grid = sweep(50, 0.5, [1, 7, 50], [3, 2**40], n_trials=30,
                     base_seed=5)
        cells = [[estimate_recall(EstimateConfig(ModelParams(o, b, 50, 0.5),
                                                 30, derive_seed(5, o, b)))
                  for b in (3, 2**40)] for o in (1, 7, 50)]
        assert np.array_equal(grid.sim_mean, np.array(
            [[e.mean_recall for e in row] for row in cells]))
        assert np.array_equal(grid.std_error, np.array(
            [[e.std_error for e in row] for row in cells]))

    @pytest.mark.parametrize("b", [2**63 - 50, 2**64 + 5])
    def test_rejects_batch_size_beyond_int64_only_when_simulating(self, b):
        with pytest.raises(InvalidParamsError, match="^batch_size must be"
                           " below 2\\*\\*63 - total_quantity"):
            sweep(50, 0.5, [1, 7], [3, b], n_trials=10)
        grid = sweep(50, 0.5, [1, 7], [3, b], include_simulation=False)
        assert grid.analytic[0, 1] == 25.0

    def test_memory_bounded_for_a_batch_size_group(self):
        """The cells of one batch size share a stream table that is built
        chunk by chunk, so the group's working set does not grow with
        cells * n_trials * Q (one table for the whole group would need
        about 290 MB)."""
        tracemalloc.start()
        try:
            grid = sweep(6000, 0.15, range(1, 4), [1], n_trials=2000,
                         base_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.sim_mean.shape == (3, 1)
        assert peak < 32 * 2**20

    def test_memory_bounded_for_many_cells_at_few_trials(self):
        """The cells per kernel call are capped by the size of their W/S
        tables, so memory does not grow with the grid at few trials (a cap
        by the trial count alone peaks at ~30 MiB here)."""
        tracemalloc.start()
        try:
            grid = sweep(5000, 0.15, range(1, 201), [300, 4000], n_trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.sim_mean.shape == (200, 2)
        assert peak < 4 * 2**20

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            sweep(50, 0.15, [], [1, 2])
        with pytest.raises(ValueError):
            sweep(50, 0.15, [3, 2], [1])
        with pytest.raises(ValueError):
            sweep(50, 0.15, [1, 60], [1])  # order size above quantity
        with pytest.raises(ValueError):
            sweep(50, 0.15, [1], [0, 1])

    @pytest.mark.parametrize("q,p,orders,message", [
        (0, 0.15, [1, 2], "total_quantity must be >= 1, got 0"),
        (True, 0.15, [1], "total_quantity must be an integer, got True"),
        (2.5, 0.15, [1, 2], "total_quantity must be an integer, got 2.5"),
        (10, -0.1, [1, 2], "crisis_prob must be in [0, 1], got -0.1"),
        (10, 1.5, [1, 2], "crisis_prob must be in [0, 1], got 1.5"),
        (10, math.nan, [1, 2], "crisis_prob must be in [0, 1], got nan"),
    ])
    def test_quantity_and_probability_validation(self, q, p, orders, message):
        """The axes are checked first, then Q and p, each once per grid,
        with the messages a per-cell ModelParams gave."""
        with pytest.raises(InvalidParamsError) as exc:
            sweep(q, p, orders, [1, 3], include_simulation=False)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "x", None,
                                       math.inf, np.True_], ids=repr)
    @pytest.mark.parametrize("entry", list(_INTEGER_ENTRIES))
    def test_integer_rule(self, entry, value):
        """Every integer input of EstimateConfig and sweep follows the one
        rule of ModelParams, with its message; seeds may be 0 or negative."""
        field, call = _INTEGER_ENTRIES[entry]
        if field == "base_seed" and value in (0, -1):
            call(value)
            return
        model_field = _MODEL_FIELD.get(field, field)
        with pytest.raises(InvalidParamsError) as cell:
            ModelParams(**{**_CELL, model_field: value})
        message = str(cell.value).replace(model_field, field)
        with pytest.raises(InvalidParamsError,
                           match=f"^{re.escape(message)}$"):
            call(value)

    def test_order_size_above_quantity_checked_last(self):
        """O <= Q is checked after Q and p, as ModelParams checks it."""
        with pytest.raises(InvalidParamsError,
                           match=r"^order size exceeds total quantity \(60 > 50\)$"):
            sweep(50, 0.15, [1, 60], [1], include_simulation=False)
        with pytest.raises(InvalidParamsError, match="^crisis_prob"):
            sweep(50, 1.5, [1, 60], [1], include_simulation=False)

    def test_trials_and_seed_checked_only_when_simulating(self):
        grid = sweep(50, 0.15, [1], [1], n_trials=0, base_seed=2.5,
                     include_simulation=False)
        assert grid.n_trials is None and grid.base_seed is None

    @pytest.mark.parametrize("as_type", [np.int64, float], ids=["int64", "float"])
    def test_integral_values_normalised(self, as_type):
        """numpy integers and integral floats give the int run's figures,
        with every integer field of the grid an int."""
        expected = sweep(30, 0.2, [1, 4], [2, 5], n_trials=40, base_seed=3)
        grid = sweep(as_type(30), 0.2, [as_type(1), as_type(4)],
                     np.array([2, 5]).astype(as_type), n_trials=as_type(40),
                     base_seed=as_type(3))
        fields = (grid.total_quantity, grid.n_trials, grid.base_seed,
                  *grid.order_sizes, *grid.batch_sizes)
        assert all(type(v) is int for v in fields)
        assert (grid.total_quantity, grid.n_trials, grid.base_seed) == (30, 40, 3)
        np.testing.assert_array_equal(grid.analytic, expected.analytic)
        np.testing.assert_array_equal(grid.sim_mean, expected.sim_mean)
        np.testing.assert_array_equal(grid.std_error, expected.std_error)

    def test_negative_seed_wraps_to_64_bits(self):
        a = sweep(20, 0.3, [1, 3], [2], n_trials=30, base_seed=-1)
        b = sweep(20, 0.3, [1, 3], [2], n_trials=30, base_seed=2**64 - 1)
        np.testing.assert_array_equal(a.sim_mean, b.sim_mean)

    def test_reruns_bit_identical(self):
        a = sweep(20, 0.25, range(1, 5), range(1, 5), n_trials=120,
                  base_seed=8)
        b = sweep(20, 0.25, range(1, 5), range(1, 5), n_trials=120,
                  base_seed=8)
        np.testing.assert_array_equal(a.sim_mean, b.sim_mean)
        np.testing.assert_array_equal(a.ci95_half_width, b.ci95_half_width)
        assert a.mean_abs_error_pct == b.mean_abs_error_pct

    def test_divisor_grid_confidence_coverage(self):
        """At 10,000 trials the closed form sits inside the 99% CI for at
        least 95% of cells once remainder orders are excluded."""
        divisors = [o for o in range(1, 51) if 50 % o == 0]
        grid = sweep(50, 0.15, divisors, range(1, 101), n_trials=10_000,
                     base_seed=0)
        se = grid.std_error
        covered = np.abs(grid.sim_mean - grid.analytic) <= 2.576 * se
        assert covered.mean() >= 0.95

    def test_divisor_cells_track_exact_mixture(self):
        """Without remainder orders the trial mean estimates Q times the
        exact two-point recall probability."""
        grid = sweep(50, 0.15, [1, 2, 5, 10, 25, 50], [3, 4, 7],
                     n_trials=10_000, base_seed=1)
        se = grid.std_error
        for i, o in enumerate([1, 2, 5, 10, 25, 50]):
            for j, b in enumerate([3, 4, 7]):
                exact = 50 * recall_probability_exact(
                    ModelParams(o, b, 50, 0.15))
                tolerance = 4 * max(se[i, j], 1e-9)
                assert abs(grid.sim_mean[i, j] - exact) <= tolerance

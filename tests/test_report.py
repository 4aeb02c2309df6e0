"""Report serialization: CSV layouts, round-trips, byte determinism."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchfrag import report
from batchfrag.model import ModelParams, expected_recall_size
from batchfrag.montecarlo import EstimateConfig, SweepGrid, estimate_recall, sweep
from batchfrag.report import (
    LONG_CSV_HEADER,
    _grid_comment,
    render_outcome,
    render_summary,
    write_fragments_curve,
    write_sweep,
)
from batchfrag.simulation import TrialConfig, run_trial_outcome


@pytest.fixture
def small_grid():
    return sweep(50, 0.15, range(1, 4), range(1, 6), n_trials=80, base_seed=1)


@pytest.fixture
def analytic_grid():
    return sweep(50, 0.15, range(1, 4), range(1, 6), include_simulation=False)


class TestLongCsv:
    def test_layout(self, small_grid, tmp_path):
        path = tmp_path / "grid.csv"
        write_sweep(small_grid, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == LONG_CSV_HEADER
        assert len(lines) == 1 + 3 * 5 + 1
        assert lines[-1].startswith("# quantity=50 crisis_prob=0.150000")
        assert "n_trials=80" in lines[-1]
        assert "base_seed=1" in lines[-1]
        # order-size-major ordering
        keys = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:-1]]
        assert keys == [(o, b) for o in (1, 2, 3) for b in range(1, 6)]

    def test_round_trip_to_precision(self, small_grid, tmp_path):
        path = tmp_path / "grid.csv"
        write_sweep(small_grid, path)
        with open(path, encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(
                (ln for ln in fh if not ln.startswith("#")))]
        for row in rows:
            i = small_grid.order_sizes.index(int(row["order_size"]))
            j = small_grid.batch_sizes.index(int(row["batch_size"]))
            assert float(row["analytic_recall"]) == pytest.approx(
                small_grid.analytic[i, j], abs=5e-7)
            assert float(row["sim_mean"]) == pytest.approx(
                small_grid.sim_mean[i, j], abs=5e-7)
            assert float(row["abs_error"]) == pytest.approx(
                small_grid.abs_error[i, j], abs=5e-7)
            assert float(row["ci95_half_width"]) == pytest.approx(
                small_grid.ci95_half_width[i, j], abs=5e-7)

    def test_analytic_only_leaves_fields_empty(self, analytic_grid, tmp_path):
        path = tmp_path / "grid.csv"
        write_sweep(analytic_grid, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        data_rows = lines[1:-1]
        assert all(ln.endswith(",,,") for ln in data_rows)
        assert all(ln.count(",") == 5 for ln in data_rows)
        assert "n_trials= " in lines[-1]
        assert lines[-1].endswith("mean_abs_error_pct=")

    def test_byte_identical_reruns(self, small_grid, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep(small_grid, a)
        write_sweep(small_grid, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()


# Cell values for the renderer: odd multiples of 2**-7 are exact six-decimal
# rounding ties (k/128 = k * 0.0078125), multiples of 2**-20 sit near them,
# and the rest are zeros, subnormals, large values and any double at all.
cell_values = st.one_of(
    st.integers(0, 2**20).map(lambda k: k / 2**7),
    st.integers(0, 2**40).map(lambda k: k / 2**20),
    st.sampled_from([0.0, -0.0, 0.0000005, 0.0000015, 2.5e-6, 5e-324,
                     2.2250738585072014e-308]),
    st.floats(1e12, 1e300),
    st.floats(width=64),
)
# std_error is scaled by Z95 when rendered; keep that product finite
std_errors = st.one_of(st.integers(0, 2**40).map(lambda k: k / 2**20),
                       st.floats(0.0, 1e300))
axes = st.lists(st.integers(1, 10**9), min_size=1, max_size=6,
                unique=True).map(lambda v: tuple(sorted(v)))


@st.composite
def sweep_grids(draw):
    """Any analytic-only or simulated grid, including 1-row and 1-column
    ones, with arbitrary cell values."""
    orders, batches = draw(axes, label="orders"), draw(axes, label="batches")
    size = len(orders) * len(batches)

    def matrix(values):
        cells = draw(st.lists(values, min_size=size, max_size=size))
        return np.array(cells, dtype=np.float64).reshape(len(orders), -1)

    grid = dict(total_quantity=draw(st.integers(1, 10**12)),
                crisis_prob=draw(cell_values), order_sizes=orders,
                batch_sizes=batches, analytic=matrix(cell_values))
    if draw(st.booleans(), label="simulated"):
        grid.update(sim_mean=matrix(cell_values), abs_error=matrix(cell_values),
                    std_error=matrix(std_errors),
                    mean_abs_error_pct=draw(cell_values),
                    n_trials=draw(st.integers(1, 10**6)),
                    base_seed=draw(st.integers(-2**63, 2**64)))
    return SweepGrid(**grid)


def per_cell_long_csv(grid):
    """The long CSV written one cell at a time with f-strings."""
    lines = [LONG_CSV_HEADER]
    for i, o in enumerate(grid.order_sizes):
        for j, b in enumerate(grid.batch_sizes):
            a = float(grid.analytic[i, j])
            if grid.sim_mean is None:
                lines.append(f"{o},{b},{a:.6f},,,")
            else:
                m, e, c = (float(x[i, j]) for x in (
                    grid.sim_mean, grid.abs_error, grid.ci95_half_width))
                lines.append(f"{o},{b},{a:.6f},{m:.6f},{e:.6f},{c:.6f}")
    lines.append(_grid_comment(grid))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestLongCsvBytes:
    @settings(max_examples=300, deadline=None)
    @given(grid=sweep_grids())
    def test_equals_per_cell_f_strings(self, grid, tmp_path_factory):
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        write_sweep(grid, path)
        assert path.read_bytes() == per_cell_long_csv(grid)


# A six-decimal tie (k + 0.5) / 1e6 rounds to the double nearest it, and
# each neighbour of that double lies within a few ulps of a tie, where the
# product x * 1e6 may round onto the other side of it.
near_ties = st.builds(
    lambda k, step: step((k + 0.5) / 1e6),
    st.integers(0, 2**40),
    st.sampled_from([lambda x: x,
                     lambda x: math.nextafter(x, 0.0),
                     lambda x: math.nextafter(x, math.inf),
                     lambda x: math.nextafter(math.nextafter(x, 0.0), 0.0),
                     lambda x: math.nextafter(math.nextafter(x, math.inf),
                                              math.inf)]))
# the writer's fixed-point rule applies below x * 1e6 = 2**51
LIMIT = 2.0**51 / 1e6


def neighbours(x, count):
    """``count`` doubles either side of x, and x."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def analytic_grid_of(values, orders=None, batches=None):
    """An analytic-only grid holding ``values`` order-size-major."""
    values = np.asarray(values, dtype=np.float64)
    batches = batches or tuple(range(1, values.size + 1))
    orders = orders or tuple(range(1, values.size // len(batches) + 1))
    return SweepGrid(total_quantity=7, crisis_prob=0.25, order_sizes=orders,
                     batch_sizes=batches,
                     analytic=values.reshape(len(orders), len(batches)))


def simulated_grid_of(analytic, sim_mean, abs_error, std_error):
    """A simulated one-row grid holding the four columns given."""
    analytic, sim_mean, abs_error, std_error = (
        np.asarray(c, dtype=np.float64).reshape(1, -1)
        for c in (analytic, sim_mean, abs_error, std_error))
    return SweepGrid(total_quantity=7, crisis_prob=0.25, order_sizes=(3,),
                     batch_sizes=tuple(range(1, analytic.size + 1)),
                     analytic=analytic, sim_mean=sim_mean, abs_error=abs_error,
                     std_error=std_error, mean_abs_error_pct=1.5, n_trials=9,
                     base_seed=4)


# Values with every count of integer digits from 1 to 10, with zeros inside
# and at the ends of three-digit groups, all on the fast path: each product
# x * 1e6 is exact, below 2**50 and not a tie.
DIGIT_COUNTS = [0.0, 0.5] + [v for d in range(1, 11) for v in (
    10**(d - 1) + 0.25, min(10**d - 1, 1125899906) + 0.125,
    10**(d - 1) + 10**((d - 1) // 2) + 0.75)]


class TestFixedPointEdges:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(near_ties, min_size=1, max_size=40))
    def test_values_at_and_beside_ties(self, values, tmp_path_factory):
        grid = analytic_grid_of(values)
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        write_sweep(grid, path)
        assert path.read_bytes() == per_cell_long_csv(grid)

    @pytest.mark.parametrize("x", [LIMIT, LIMIT / 2, LIMIT / 4, 2.0**31])
    def test_values_around_the_fast_path_limit(self, x, tmp_path):
        grid = analytic_grid_of(neighbours(x, 40) + neighbours(x + 0.5, 4))
        write_sweep(grid, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == per_cell_long_csv(grid)

    def test_axis_labels_past_int64(self, tmp_path):
        grid = SweepGrid(total_quantity=2**70, crisis_prob=0.5,
                         order_sizes=(5, 2**63, 2**64 + 1, 10**30),
                         batch_sizes=(2**63 - 1, 2**63, 3**50),
                         analytic=np.linspace(0.0, 99.0, 12).reshape(4, 3))
        write_sweep(grid, tmp_path / "grid.csv")
        data = (tmp_path / "grid.csv").read_bytes()
        assert data == per_cell_long_csv(grid)
        assert b"\n1000000000000000000000000000000,717897987691852588770249," in data

    def test_blocks_split_order_rows(self, tmp_path):
        """Three blocks and more, whose boundaries fall mid order-row, with
        values off the fast path on both sides of each boundary."""
        batches = tuple(range(1, 14))
        assert report._BLOCK_CELLS % len(batches)
        size = 3 * report._BLOCK_CELLS + 5 * len(batches)
        size -= size % len(batches)
        values = np.arange(size) * 1.0000001 + 0.1234
        odd = [np.nan, -0.0, 0.0000005, -np.inf, 2.0**60, -1.25]
        for edge in range(0, size, report._BLOCK_CELLS):
            for k, x in enumerate(odd):
                values[(edge - 3 + k) % size] = x
        grid = analytic_grid_of(values, batches=batches)
        write_sweep(grid, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == per_cell_long_csv(grid)

    @pytest.mark.parametrize("simulated", [False, True],
                             ids=["analytic-only", "simulated"])
    def test_every_integer_digit_count_in_one_block(self, simulated,
                                                    tmp_path):
        """One block holds integer parts of 1 to 10 digits, so all but the
        longest have leading zeros to drop."""
        values = np.array(DIGIT_COUNTS)
        assert report._micro_units(values)[1].all()
        grid = (simulated_grid_of(values, values[::-1], values, values / 8)
                if simulated else analytic_grid_of(values))
        write_sweep(grid, tmp_path / "grid.csv")
        data = (tmp_path / "grid.csv").read_bytes()
        assert data == per_cell_long_csv(grid)
        assert b",1125899906.125000," in data and b",1.250000," in data

    @pytest.mark.parametrize("x", [9.9999995, 999.9999996, 99999.9999999])
    @pytest.mark.parametrize("simulated", [False, True],
                             ids=["analytic-only", "simulated"])
    def test_rounding_into_an_extra_digit(self, x, simulated, tmp_path):
        """The largest value rounds up to a power of ten: its integer part
        has one digit more than the value's own."""
        values = [x, 1.5, x / 10, 0.25]
        grid = (simulated_grid_of(values, values, values[::-1], values)
                if simulated else analytic_grid_of(values))
        write_sweep(grid, tmp_path / "grid.csv")
        data = (tmp_path / "grid.csv").read_bytes()
        assert data == per_cell_long_csv(grid)
        assert f",{x:.6f},".encode() in data

    def test_fast_column_beside_a_column_with_a_tie(self, tmp_path):
        """A simulated block whose analytic column is all on the fast path
        and whose mean column holds a six-decimal tie (3 / 128)."""
        analytic = [1.25, 20.5, 300.125]
        assert report._micro_units(np.array(analytic))[1].all()
        grid = simulated_grid_of(analytic, [0.5, 3 / 128, 7.0],
                                 [0.75, 0.25, 1.5], [0.0, 0.125, 2.0])
        assert not report._micro_units(grid.sim_mean.ravel())[1].all()
        write_sweep(grid, tmp_path / "grid.csv")
        data = (tmp_path / "grid.csv").read_bytes()
        assert data == per_cell_long_csv(grid)
        assert b"\n3,2,20.500000,0.023438,0.250000,0.245000\n" in data

    @pytest.mark.parametrize("e", [20, 36, 50])
    def test_values_a_few_ulp_from_ties(self, e, tmp_path):
        """Values within a few ulp of (k + 0.5) / 1e6, with products x * 1e6
        in the binade from 2**e and the one below it, up to the products of
        spacing 1/4 below the 2**51 limit: every cell prints as '%.6f'
        prints it, and only exact ties leave the fast path."""
        top = 2.0**e
        values = np.array([v for k in (top + 2**(e - 2), top / 2 + 2**(e - 3))
                           for v in neighbours((k + 0.5) / 1e6, 6)])
        y = values * 1e6
        assert y.max() < 2.0**51
        off_tie = y - np.floor(y) != 0.5
        np.testing.assert_array_equal(report._micro_units(values)[1], off_tie)
        assert off_tie.any() and not off_tie.all()
        grid = analytic_grid_of(values)
        write_sweep(grid, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == per_cell_long_csv(grid)

    @pytest.mark.parametrize("q,share", [(10**9, 0.85), (2 * 10**9, 0.75)])
    def test_large_quantity_surfaces_mostly_fast(self, q, share, tmp_path):
        """The 1000 x 50 surface at p = 0.07: most cells take the fixed-point
        path (89% at Q = 10**9 and 79% at 2 * 10**9, where a tie margin of
        2 * spacing made 40% and none fast), and every cell prints as
        '%.6f' prints it."""
        grid = sweep(q, 0.07, range(1, 1001), range(1, 51),
                     include_simulation=False)
        x = grid.analytic.ravel()
        fast = np.concatenate([
            report._micro_units(x[start:start + report._BLOCK_CELLS])[1]
            for start in range(0, x.size, report._BLOCK_CELLS)])
        assert fast.mean() >= share
        write_sweep(grid, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == per_cell_long_csv(grid)

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        """The CSV is written block by block: the writer's peak does not
        grow with the grid and stays well below the file's size."""
        peaks = []
        for orders in (1000, 4000):
            grid = sweep(4000, 0.07, range(1, orders + 1), range(1, 51),
                         include_simulation=False)
            tracemalloc.start()
            try:
                write_sweep(grid, tmp_path / "grid.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]
        assert peaks[1] < (tmp_path / "grid.csv").stat().st_size / 4


def text_mode_write(path, chunks):
    """Text-mode writing, UTF-8 with no newline translation: the
    reference for write_text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


class TestWriteText:
    @pytest.mark.parametrize("text, chunks", [
        ("a,b\r\n\u00e9\u20ac\n", ["a,b\r\n\u00e9\u20ac\n"]),
        (b"1,2\n3,4\n", ["1,2\n3,4\n"]),
        (["# \u03bb=0.5\n", b"1,2,3.000000\n", "", b"", "\U0001f600 x\r\n"],
         ["# \u03bb=0.5\n", "1,2,3.000000\n", "", "", "\U0001f600 x\r\n"]),
    ], ids=["str", "bytes", "mixed-chunks"])
    def test_same_bytes_as_text_mode(self, text, chunks, tmp_path):
        """str chunks are UTF-8 with no newline translation and bytes
        chunks are written as they are: the bytes text mode writes for
        the same text."""
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        assert report.write_text(new, text) == new
        text_mode_write(old, chunks)
        assert new.read_bytes() == old.read_bytes()


class TestFragmentsCurve:
    def test_reference_curve_rows(self, tmp_path):
        path = tmp_path / "frag.csv"
        write_fragments_curve(10, range(1, 21), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "batch_size,expected_fragments"
        assert len(lines) == 21
        values = {int(ln.split(",")[0]): float(ln.split(",")[1])
                  for ln in lines[1:]}
        assert values[1] == 10.0
        assert values[4] == 3.25
        assert values[10] == 1.9

    def test_large_batch_row_near_one(self, tmp_path):
        path = tmp_path / "frag.csv"
        write_fragments_curve(10, [10**6], path)
        value = float(path.read_text().splitlines()[1].split(",")[1])
        assert abs(value - 1.0) <= 1e-5


class TestSummary:
    def test_checkpoint_line_reads_exactly(self):
        params = ModelParams(1, 1, 50, 0.15)
        est = estimate_recall(EstimateConfig(params, 500, 0))
        text = render_summary(est, expected_recall_size(params), params)
        assert "analytic_recall     7.500000" in text

    def test_zero_probability_all_zero_statistics(self):
        params = ModelParams(10, 4, 50, 0.0)
        est = estimate_recall(EstimateConfig(params, 200, 0))
        text = render_summary(est, expected_recall_size(params), params)
        for label in ("analytic_recall", "simulated_mean", "std_error",
                      "abs_deviation", "pct_deviation_of_q"):
            line = next(ln for ln in text.splitlines()
                        if ln.strip().startswith(label))
            assert line.split()[-1] == "0.000000"

    def test_deviation_field_matches_definition(self):
        params = ModelParams(10, 4, 50, 0.15)
        est = estimate_recall(EstimateConfig(params, 300, 5))
        analytic = expected_recall_size(params)
        text = render_summary(est, analytic, params)
        line = next(ln for ln in text.splitlines()
                    if ln.strip().startswith("abs_deviation"))
        assert float(line.split()[-1]) == pytest.approx(
            abs(est.mean_recall - analytic), abs=5e-7)


class TestRenderOutcome:
    def test_contains_batches_orders_and_recall(self):
        params = ModelParams(10, 4, 50, 1.0)
        out = run_trial_outcome(TrialConfig.from_seed(params, 7))
        text = render_outcome(out)
        assert "batches (id: consumed/size, * = crisis):" in text
        assert "recalled quantity: 50 of 50" in text
        assert "RECALLED" in text
        assert text.count("o") >= 5

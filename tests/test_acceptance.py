"""End-to-end acceptance gate.

One test per stated requirement, each at its stated tolerance, each
emitting a single PASS line on success (pytest's own -v report carries
the fail line otherwise). Statistical checks use frozen seeds so the
whole gate is deterministic; reference values were computed with
independent high-precision arithmetic before the library existed.
"""

import random
import time
from fractions import Fraction

from batchfrag.cli import main
from batchfrag.model import (
    ModelParams,
    expected_recall_size,
    fragment_stats,
    recall_probability,
    recall_probability_exact,
    recall_size_formula,
)
from batchfrag.montecarlo import EstimateConfig, estimate_recall, sweep
from batchfrag.simulation import TrialConfig, run_trial_outcome

CHECKPOINT_LARGE_ORDER = 49.985211766814366  # 50*(1-0.85**50), precomputed
JENSEN_GRID_PROBS = (0.05, 0.15, 0.25, 0.35, 0.5)


def test_01_worked_example_exact():
    """10-unit orders from 4-unit batches: 3 or 4 fragments, mean 3.25."""
    stats = fragment_stats(ModelParams(10, 4, 50, 0.15))
    assert stats.fr_min == 3
    assert stats.fr_max == 4
    assert stats.p_fr_max == Fraction(1, 4)
    assert stats.expected_fragments == Fraction(13, 4)
    print("criterion 01 worked example: PASS (13/4 and 1/4, exact)")


def test_02_enumeration_oracle_exact():
    """Brute-force enumeration over every first-batch offset agrees with
    the closed form, exactly, for all O in 1..256 and B in 1..64. The loop
    is timed in process CPU time, so other processes on the host do not
    count."""
    started = time.process_time()
    for b in range(1, 65):
        for o in range(1, 257):
            counts = [-(-(o + u) // b) for u in range(b)]
            total = sum(counts)
            hi = max(counts)
            hi_freq = Fraction(counts.count(hi), b)
            stats = fragment_stats(ModelParams(o, b, o, 0.0))
            assert stats.expected_fragments == Fraction(total, b)
            if hi_freq == 1:
                # deterministic count: the two-point law collapses
                assert stats.p_fr_max == 0
                assert stats.fr_min == stats.fr_max == hi
            else:
                assert stats.p_fr_max == hi_freq
                assert stats.fr_max == hi
                assert stats.fr_min == hi - 1
    elapsed = time.process_time() - started
    assert elapsed < 1.0
    print(f"criterion 02 enumeration oracle: PASS "
          f"(16384 cases exact, {elapsed:.2f} s)")


def test_03_checkpoint_small_orders():
    """Unit orders, unit batches: closed form exactly 7.5; simulation
    within 3 standard errors at 10,000 trials."""
    params = ModelParams(1, 1, 50, 0.15)
    analytic = expected_recall_size(params)
    assert analytic == 7.5
    started = time.perf_counter()
    est = estimate_recall(EstimateConfig(params, 10_000, 0))
    elapsed = time.perf_counter() - started
    deviation = abs(est.mean_recall - 7.5)
    assert deviation <= 3 * est.std_error
    assert elapsed < 1.0
    print(f"criterion 03 small-order checkpoint: PASS "
          f"(mean {est.mean_recall:.4f}, {deviation / est.std_error:.2f} se)")


def test_04_checkpoint_large_orders():
    """One 50-unit order from unit batches: closed form 50*(1-0.85^50);
    simulation within 3 standard errors at 10,000 trials."""
    params = ModelParams(50, 1, 50, 0.15)
    analytic = expected_recall_size(params)
    assert abs(analytic - CHECKPOINT_LARGE_ORDER) <= 1e-12
    started = time.perf_counter()
    est = estimate_recall(EstimateConfig(params, 10_000, 0))
    elapsed = time.perf_counter() - started
    assert abs(est.mean_recall - analytic) <= 3 * est.std_error
    assert elapsed < 1.0
    print(f"criterion 04 large-order checkpoint: PASS "
          f"(analytic {analytic:.6f}, mean {est.mean_recall:.4f})")


def test_05_full_validation_sweep():
    """Reference grid at 10,000 trials per cell stays within 2.5% mean
    absolute error of the quantity; the reduced 1,000-trial mode stays
    within 6% and finishes in under 30 seconds."""
    grid = sweep(50, 0.15, range(1, 51), range(1, 101), n_trials=10_000,
                 base_seed=0)
    assert grid.mean_abs_error_pct <= 2.5
    started = time.perf_counter()
    reduced = sweep(50, 0.15, range(1, 51), range(1, 101), n_trials=1_000,
                    base_seed=0)
    elapsed = time.perf_counter() - started
    assert reduced.mean_abs_error_pct <= 6.0
    assert elapsed < 30.0
    print(f"criterion 05 full sweep: PASS "
          f"(error {grid.mean_abs_error_pct:.3f}% at n=10000, "
          f"{reduced.mean_abs_error_pct:.3f}% at n=1000 in {elapsed:.1f} s)")


def test_06_secondary_sweeps():
    """Other probability/quantity combinations hold the same 2.5% budget,
    with orders up to Q and batches up to 2Q."""
    errors = {}
    for prob in (0.05, 0.25):
        for quantity in (20, 50):
            grid = sweep(quantity, prob, range(1, quantity + 1),
                         range(1, 2 * quantity + 1), n_trials=10_000,
                         base_seed=0)
            errors[(prob, quantity)] = grid.mean_abs_error_pct
            assert grid.mean_abs_error_pct <= 2.5
    summary = ", ".join(f"p={p}/Q={q}: {e:.2f}%"
                        for (p, q), e in errors.items())
    print(f"criterion 06 secondary sweeps: PASS ({summary})")


def test_07_asymptotes():
    """Huge batches leave Q*p; huge orders recall everything."""
    toward_qp = recall_size_formula(50, 10, 10**9, 0.15)
    toward_q = recall_size_formula(50, 10**9, 10, 0.15)
    assert abs(toward_qp - 7.5) <= 1e-5
    assert abs(toward_q - 50.0) <= 1e-5
    print(f"criterion 07 asymptotes: PASS "
          f"({toward_qp:.9f} vs 7.5, {toward_q:.6f} vs 50)")


def test_08_boundary_table():
    """Unit-order row is exactly Q*p for any batch size; the huge equal
    order/batch diagonal approaches Q*(1-(1-p)^2)."""
    for b in (1, 10, 1000):
        assert expected_recall_size(ModelParams(1, b, 50, 0.15)) == 7.5
    diagonal = recall_size_formula(50, 10**6, 10**6, 0.15)
    assert abs(diagonal - 13.875) <= 1e-4
    print(f"criterion 08 boundary table: PASS "
          f"(unit row 7.5 exact, diagonal {diagonal:.6f})")


def test_09_property_suite():
    """Conservation, FIFO shape, contiguity, and the fragment-count law
    over 10,000 randomized outcomes, plus Jensen ordering and analytic
    monotonicity over a 50x100x5 grid, all inside 10 seconds."""
    started = time.perf_counter()
    rng = random.Random(20260816)
    outcomes = 0
    for _ in range(10_000):
        b = rng.randint(1, 20)
        o = rng.randint(1, 40)
        q = rng.randint(o, o + 60)
        params = ModelParams(o, b, q, rng.random())
        config = TrialConfig.from_seed(params, rng.getrandbits(64))
        out = run_trial_outcome(config)
        u = config.initial_consumption

        assert sum(x.size for x in out.orders) == q
        assert sum(x.consumed for x in out.batches) - u == q
        assert all(x.consumed == x.size for x in out.batches[:-1])
        offset = u
        prev_ids = None
        for x in out.orders:
            assert sum(qty for _, qty in x.fragments) == x.size
            ids = [bid for bid, _ in x.fragments]
            assert ids == list(range(ids[0], ids[0] + len(ids)))
            if prev_ids is not None:
                assert len(set(ids) & set(prev_ids)) <= 1
            # count law: offset into the current batch fixes the fragment
            # count of this order exactly
            assert len(ids) == -(-(x.size + offset % b) // b)
            offset += x.size
            prev_ids = ids
        outcomes += 1

    for prob in JENSEN_GRID_PROBS:
        for b in range(1, 101):
            column = [recall_probability(ModelParams(o, b, 50, prob))
                      for o in range(1, 51)]
            exact = [recall_probability_exact(ModelParams(o, b, 50, prob))
                     for o in range(1, 51)]
            assert all(e <= a for e, a in zip(exact, column))
            assert all(x <= y for x, y in zip(column, column[1:]))
        for o in range(1, 51):
            row = [recall_probability(ModelParams(o, b, 50, prob))
                   for b in range(1, 101)]
            assert all(x >= y for x, y in zip(row, row[1:]))

    elapsed = time.perf_counter() - started
    assert outcomes >= 10_000
    assert elapsed < 10.0
    print(f"criterion 09 property suite: PASS "
          f"({outcomes} outcomes + 25000 grid cells in {elapsed:.1f} s)")


def test_10_cli_determinism(capsys, tmp_path):
    """simulate and sweep emit byte-identical stdout and files on reruns
    with identical flags and seed."""
    started = time.perf_counter()

    sim_argv = ["simulate", "-O", "10", "-B", "4", "-Q", "50", "-p", "0.15",
                "-n", "2000", "--seed", "42", "--dump-trial"]
    assert main(list(sim_argv)) == 0
    first = capsys.readouterr().out
    assert main(list(sim_argv)) == 0
    second = capsys.readouterr().out
    assert first == second

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep_argv = ["sweep", "-Q", "50", "-p", "0.15", "--order-range", "1:8",
                  "--batch-range", "1:8", "-n", "500", "--seed", "7", "--out"]
    assert main(sweep_argv + [str(out_a)]) == 0
    stdout_a = capsys.readouterr().out.replace(str(out_a), "OUT")
    assert main(sweep_argv + [str(out_b)]) == 0
    stdout_b = capsys.readouterr().out.replace(str(out_b), "OUT")
    assert out_a.read_bytes() == out_b.read_bytes()
    assert stdout_a == stdout_b

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 10 deterministic interface: PASS ({elapsed:.1f} s)")

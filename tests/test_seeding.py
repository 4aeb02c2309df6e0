"""Counter-based RNG: canonical vectors, random access, and derivation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from batchfrag.seeding import (
    below,
    belows,
    derive_seed,
    derive_seeds,
    mix64,
    stream_output,
    stream_outputs,
    unit_float,
    unit_less,
    unit_threshold,
)

# First five outputs of the reference sequential generator, recomputed
# from the published constants before this suite was written.
CANONICAL = {
    0x0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
          0xF88BB8A8724C81EC, 0x1B39896A51A8749B],
    0x123456789ABCDEF: [0x157A3807A48FAA9D, 0xD573529B34A1D093,
                        0x2F90B72E996DCCBE, 0xA2D419334C4667EC,
                        0x01404CE914938008],
    0xFFFFFFFFFFFFFFFF: [0xE4D971771B652C20, 0xE99FF867DBF682C9,
                         0x382FF84CB27281E9, 0x6D1DB36CCBA982D2,
                         0xB4A0472E578069AE],
}


# Crisis probabilities where a float test can go wrong: 0, 1 and the least
# float above or below them, every multiple k * 2**-53 (where the integer
# threshold moves) and the float on either side of it, and any p.
EDGE_PROBS = st.one_of(
    st.sampled_from([0.0, 5e-324, math.nextafter(1, 0), 1.0]),
    st.tuples(st.integers(0, 2**53), st.sampled_from([None, 0.0, 2.0])).map(
        lambda t: t[0] * 2.0**-53 if t[1] is None
        else min(1.0, math.nextafter(t[0] * 2.0**-53, t[1]))),
    st.floats(0.0, 1.0))

class TestStreamOutput:
    @pytest.mark.parametrize("seed", sorted(CANONICAL))
    def test_canonical_vectors(self, seed):
        assert [stream_output(seed, k) for k in range(5)] == CANONICAL[seed]

    def test_random_access_matches_sequential(self):
        """Output k is addressable directly, without drawing 0..k-1 first."""
        seed = 987654321
        sequential = [stream_output(seed, k) for k in range(64)]
        assert stream_output(seed, 63) == sequential[63]
        assert stream_output(seed, 17) == sequential[17]

    def test_outputs_are_64_bit(self):
        for k in range(100):
            v = stream_output(12345, k)
            assert 0 <= v < 2**64

    def test_vectorized_matches_scalar(self):
        seeds = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        table = stream_outputs(seeds, np.arange(6)[:, None])
        for i, seed in enumerate(seeds.tolist()):
            assert table[:, i].tolist() == [stream_output(seed, k)
                                            for k in range(6)]


    def test_integer_form_bytes_pinned(self):
        """Outputs 0 .. 100 of 37 derived seeds drawn through an int64
        column of indices, byte for byte, as the int form that the index
        column replaced drew them; a uint64 column, as the kernel builds,
        draws the same table."""
        seeds = derive_seeds(np.array([3], dtype=np.uint64),
                             np.arange(37, dtype=np.uint64))
        table = stream_outputs(seeds, np.arange(101)[:, None])
        assert table.shape == (101, 37) and table.dtype == np.uint64
        assert table.flags["C_CONTIGUOUS"]
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "b70a8dcd06d1803a39d0ce2cc04de5860c9b3f610c8da8f26b6d45c431fdfb29")
        np.testing.assert_array_equal(
            stream_outputs(seeds, np.arange(101, dtype=np.uint64)[:, None]),
            table)

    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1),
                              st.integers(0, 2**64 - 2)),
                    min_size=1, max_size=12))
    def test_index_form_matches_scalar(self, pairs):
        """Element-wise pairs, as 1-D arrays and as a 2-D index array
        broadcast against a row of seeds."""
        seeds = np.array([s for s, _ in pairs], dtype=np.uint64)
        ks = np.array([k for _, k in pairs], dtype=np.uint64)
        assert stream_outputs(seeds, ks).tolist() == [
            stream_output(s, k) for s, k in pairs]
        grid = np.stack([ks, ks // np.uint64(3), ks[::-1]])
        table = stream_outputs(seeds, grid)
        assert table.shape == grid.shape
        assert table.tolist() == [
            [stream_output(s, k) for s, k in zip(seeds.tolist(), row)]
            for row in grid.tolist()]

    def test_index_form_accepts_signed_indices(self):
        seeds = np.array([7, 2**64 - 1], dtype=np.uint64)
        rows = np.array([[0], [5], [40]], dtype=np.int64)
        assert stream_outputs(seeds, rows).tolist() == [
            [stream_output(s, k) for s in (7, 2**64 - 1)] for k in (0, 5, 40)]


class TestDeriveSeed:
    def test_component_order_matters(self):
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_distinct_components_give_distinct_seeds(self):
        seeds = {derive_seed(5, o, b) for o in range(1, 30)
                 for b in range(1, 30)}
        assert len(seeds) == 29 * 29

    def test_no_components_is_identity(self):
        """Folding nothing returns the base, so one derivation step is
        exactly one component."""
        assert derive_seed(123) == 123
        assert derive_seed(123, 0) != 123

    def test_vectorized_matches_scalar(self):
        base = 99
        idx = np.arange(50, dtype=np.uint64)
        vec = derive_seeds(np.array([base], dtype=np.uint64), idx)
        assert vec.tolist() == [derive_seed(base, i) for i in range(50)]

    @given(st.integers(-2**65, 2**65), st.integers(-2**65, 2**65),
           st.integers(0, 2**64 - 1))
    def test_base_and_first_component_act_through_their_sum(self, s, c, b):
        """derive_seed(s, c) mixes (s + c) mod 2**64, so a unit moved from
        the component to the base leaves it unchanged, across the wrap
        at 2**64 as well; a second component follows the first's seed."""
        assert derive_seed(s, c) == derive_seed(s + 1, c - 1)
        assert derive_seed(s, c, b) == derive_seed(s + 1, c - 1, b)

    def test_base_and_component_wrap_at_64_bits(self):
        assert derive_seed(2**64 - 1, 5) == derive_seed(0, 4)
        assert derive_seed(2**64 - 1, 5) == derive_seed(2**64, 4)
        assert derive_seed(3, 0) == derive_seed(4, -1)
        assert derive_seed(4, -1) == derive_seed(4, 2**64 - 1)
        assert derive_seed(3, 0) != derive_seed(3, 1)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=0, max_size=5))
    def test_stays_in_64_bits(self, base, components):
        assert 0 <= derive_seed(base, *components) < 2**64


class TestUnitFloat:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_unit_interval(self, x):
        u = unit_float(x)
        assert 0.0 <= u < 1.0

    def test_extremes(self):
        assert unit_float(0) == 0.0
        assert unit_float(2**64 - 1) < 1.0

    @given(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 2.0**-53]),
                     st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
                     st.floats(0.0, 1.0)))
    def test_threshold_matches_float_comparison(self, p):
        """x < unit_threshold(p) decides unit_float(x) < p on both sides of
        the threshold, for Python ints and for the uint64 array test."""
        thr = unit_threshold(p)
        for x in (thr - 1, thr, thr + 1):
            if not 0 <= x < 2**64:
                continue
            assert (x < thr) == (unit_float(x) < p)
            if thr < 2**64:
                array_test = np.array([x], dtype=np.uint64) < np.uint64(thr)
                assert bool(array_test[0]) == (unit_float(x) < p)

    @given(EDGE_PROBS,
           st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    max_size=10))
    def test_vectorized_less_matches_scalar(self, p, picks):
        """unit_less(p) equals unit_float(x) < p element by element at x = 0
        and 2**64 - 1 and on both sides of the threshold, a few ulp (units
        of 2**11) and a few units off, for p at 0, 1 and the least float
        above or below them, and at multiples k * 2**-53 and their
        neighbours, where the threshold moves."""
        thr = unit_threshold(p)
        xs = [0, 2**64 - 1, thr - 1, thr, thr + 1]
        xs += [thr + (ulps << 11) + units for ulps, units in picks]
        xs = [min(max(x, 0), 2**64 - 1) for x in xs]
        flags = unit_less(p)(np.array(xs, dtype=np.uint64))
        assert flags.dtype == bool
        assert flags.tolist() == [unit_float(x) < p for x in xs]

    def test_threshold_extremes(self):
        assert unit_threshold(0.0) == 0
        assert unit_threshold(1.0) == 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=1, max_value=10**6))
    def test_below_in_range(self, x, n):
        assert 0 <= below(x, n) < n

    @given(st.one_of(st.sampled_from([1, 2, 3, 7, 100, 2**31, 2**53 - 1,
                                      2**53 + 1, 2**62, 2**63 - 51]),
                     st.integers(1, 2**63 - 1)),
           st.lists(st.tuples(st.integers(0, 2**64 - 1),
                              st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=20))
    def test_vectorized_below_matches_scalar(self, n, picks):
        """belows equals below element by element at 0, 2**64 - 1 and on
        both sides of u boundaries ``((k << 53) // n) << 11``, a few ulp
        (units of 2**11) and a few units off."""
        xs = [0, 2**64 - 1]
        for r, ulps, units in picks:
            k = r % n
            x = (((k << 53) // n) << 11) + (ulps << 11) + units
            xs.append(min(max(x, 0), 2**64 - 1))
        vec = belows(np.array(xs, dtype=np.uint64), n)
        assert vec.dtype == np.int64
        assert vec.tolist() == [below(x, n) for x in xs]


def test_mix64_is_a_bijection_sample():
    """The finalizer must not collide on a dense low-entropy sample."""
    values = {mix64(i) for i in range(10_000)}
    assert len(values) == 10_000

"""Deterministic random streams for reproducible simulation.

All randomness in this package comes from SplitMix64, a published 64-bit
generator whose k-th output is a pure function of the seed::

    output(seed, k) = finalize(seed + (k + 1) * GOLDEN)   (mod 2**64)

The counter form means a stream can be evaluated one output at a time
(``stream_output``) or as a numpy array over many trials at once
(``stream_outputs``), with bit-identical results, in any layout, order or
chunking. The array form is output-major: row k holds output k of every
seed, so one output of all trials is a contiguous row. Uniform floats are
the top 53 bits scaled by 2**-53, so scalar and vectorized paths agree
exactly, and ``unit_float(x) < p`` can be decided on the raw output with
the integer ``unit_threshold``, or on an array of outputs with the test
that ``unit_less`` builds.

Per-trial stream layout used by the simulator:

* output 0 - the initial-consumption draw for the first batch,
* outputs 1, 2, ... - crisis flags, one per batch in batch-id order.

Seeds for trials and sweep cells are derived with ``derive_seed``, which
folds each component through the SplitMix64 finalizer. Derivation uses the
cell's actual (order size, batch size) values, never grid indices, so any
subset of a sweep recomputes identically on its own.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

# 2**-53; multiplying the top 53 bits by this gives a uniform float in [0, 1)
_UNIT = 2.0**-53

# The array functions' constants as numpy scalars, built once: building one
# takes about 0.6 us (2-vCPU Xeon, numpy 2.4), and every block that
# _mix64_inplace mixes used five of them.
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
_U_ONE, _U_GOLDEN = np.uint64(1), np.uint64(_GOLDEN)
_U_C1, _U_C2 = np.uint64(_MIX_C1), np.uint64(_MIX_C2)

# Elements the array finalizer mixes per pass: a block and its scratch copy
# (2 x 256 KiB) stay in a core's cache through all eight passes.
_MIX_BLOCK = 1 << 15


def mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele et al. variant of the MurmurHash3 mixer)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream_output(seed: int, k: int) -> int:
    """The k-th (0-based) 64-bit output of the stream with the given seed.

    ``seed`` and ``k`` must be Python ints. They are not checked: this runs
    once per batch of every ``run_trial``, whose :class:`TrialConfig` has
    checked the seed already.
    """
    return mix64((seed + (k + 1) * _GOLDEN) & _MASK64)


def derive_seed(base_seed: int, *components: int) -> int:
    """Mix integer components into ``base_seed``, one finalizer pass each.

    Order matters: derive_seed(s, a, b) != derive_seed(s, b, a) in general.
    Like :func:`stream_output` it takes Python ints unchecked, since it runs
    once per simulated sweep cell; ``sweep`` checks the base seed first.
    """
    h = base_seed & _MASK64
    for c in components:
        h = mix64((h + _GOLDEN + (c & _MASK64)) & _MASK64)
    return h


def unit_float(x: int) -> float:
    """Map a 64-bit output to a uniform float in [0, 1)."""
    return (x >> 11) * _UNIT


def unit_threshold(p: float) -> int:
    """The integer form of the test ``unit_float(x) < p``, for p in [0, 1].

    ``unit_float(x) < p`` holds exactly when ``x < unit_threshold(p)``,
    because ``(x >> 11) * 2**-53 < p`` iff ``(x >> 11) < ceil(p * 2**53)``
    (``p * 2**53`` is exact in floating point). The result is 2**64, above
    every output, when p == 1.
    """
    return math.ceil(p * 2.0**53) << 11


def unit_less(p: float) -> partial:
    """Vectorized ``unit_float(x) < p``, for p in [0, 1]: a function that
    maps a uint64 array of outputs to an array of its bool flags, built once
    per p.

    It compares ``x < unit_threshold(p)`` while that threshold fits a
    uint64, and at p == 1, whose threshold 2**64 is above every output,
    sets every flag.
    """
    # below p = 1 the threshold is at most 2**64 - 2**11
    return (partial(np.greater, np.uint64(unit_threshold(p))) if p < 1
            else partial(np.less_equal, np.uint64(0)))


def below(x: int, n: int) -> int:
    """Map a 64-bit output to a uniform integer in {0, ..., n-1}."""
    return min(int(unit_float(x) * n), n - 1)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """Apply :func:`mix64` to every element of the contiguous uint64 ``z``,
    in place, one cache-sized block at a time; returns ``z``."""
    flat = z.reshape(-1)
    scratch = np.empty(min(flat.size, _MIX_BLOCK), dtype=np.uint64)
    for start in range(0, flat.size, _MIX_BLOCK):
        block = flat[start:start + _MIX_BLOCK]
        shifted = scratch[:block.size]
        np.right_shift(block, _U30, out=shifted)
        block ^= shifted
        block *= _U_C1
        np.right_shift(block, _U27, out=shifted)
        block ^= shifted
        block *= _U_C2
        np.right_shift(block, _U31, out=shifted)
        block ^= shifted
    return z


def derive_seeds(base_seed: np.ndarray, components: np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive_seed` with one final component.

    ``base_seed`` is a uint64 array of bases (one per cell, say); it is
    broadcast against ``components``, and each result element is
    ``derive_seed(base, component)``.
    """
    base = base_seed.astype(np.uint64, copy=False) + _U_GOLDEN
    return _mix64_inplace(base + components.astype(np.uint64, copy=False))


def stream_outputs(seeds: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Stream outputs of many seeds at once, as uint64.

    ``outputs`` is an array of output indices that is broadcast against
    ``seeds``: each result element is the output of its seed at its index.
    A column of indices gives an output-major table: with
    ``np.arange(n)[:, None]``, row j column i is ``stream_output(seeds[i],
    j)``.
    """
    ks = np.asarray(outputs, dtype=np.uint64) + _U_ONE
    ks *= _U_GOLDEN
    return _mix64_inplace(np.add(ks, seeds.astype(np.uint64, copy=False)))


def belows(x: np.ndarray, n: int) -> np.ndarray:
    """Vectorized :func:`below`, as int64, for n < 2**63.

    :func:`below` rounds the real product ``(x >> 11) * 2**-53 *
    float(n)`` once, as ``unit_float(x) * n``. Here it is rounded once as
    ``(x >> 11) * (float(n) * 2**-53)``, whose two factors are exact
    doubles too (the second is ``float(n)`` scaled by a power of two), so
    the float, its truncation and the cap at n - 1 are :func:`below`'s.
    The product is below 2**63, so the truncation is exact in int64.
    """
    u = (x >> _U11).astype(np.float64)
    u *= float(n) * _UNIT
    u = u.astype(np.int64)
    np.minimum(u, n - 1, out=u)
    return u

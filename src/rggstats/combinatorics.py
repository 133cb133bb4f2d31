"""Exact occupation statistics of photons scattered over speckle cells.

A deep multiply-scattering diffuser erases all which-path information, so
each of the ``binom(N + M - 1, M - 1)`` ways of distributing ``N``
indistinguishable photons over ``M`` cells is equally likely (bosonic
"stars and bars").  The photon count on one cell then follows

    p_n = b_{N-n} / z_N,   b_k = binom(k + M - 2, M - 2),
                           z_N = binom(N + M - 1, M - 1) = b_0 + ... + b_N.

The integer numerators ``b_k`` come from exact recurrences, run afresh
by each call that needs them: nothing is kept between calls.  A row runs
``b_{k-1} = b_k k // (k + M - 2)`` down from ``b_N = z_N (M - 1) / (N + M - 1)``,
and each entry is one correctly rounded int/int division, so it is the
exact rational rounded once to float, at any ``N + M``.

A mixture of rows, ``sum_N P(N) b_{N-n} / z_N``, is one correlation of two
sequences; :func:`_mixture_array` evaluates it from the exact integers at
any ``N + M``, with a compensated sum.

:func:`fock_scatter_fractions` returns the exact rationals themselves.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Pmf, _as_int

__all__ = [
    "config_count",
    "fock_scatter_fractions",
    "fock_scatter_pmf",
    "approx_scatter_pmf",
]


def config_count(N: int, M: int) -> int:
    """Number of ways to place N indistinguishable photons on M cells."""
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    return math.comb(N + M - 1, M - 1)


def _numerators(count: int, M: int) -> list[int]:
    """The exact numerators ``b_0, ..., b_{count-1}`` of cell count M."""
    b = [1]
    for k in range(count - 1):
        b.append(b[k] * (k + M - 1) // (k + 1))
    return b[:count]


def _row_numerators(z: int, N: int, M: int) -> Iterator[int]:
    """Numerators ``b_N, ..., b_0`` of row N over M >= 2 cells (entry n first).

    ``z`` is z_N; ``b_N = binom(N + M - 2, M - 2)`` is ``z (M - 1) / (N + M - 1)``
    and each step down multiplies by ``k / (k + M - 2)``, all exactly.
    """
    b = z * (M - 1) // (N + M - 1)
    for k in range(N, 0, -1):
        yield b
        b = b * k // (k + M - 2)
    yield b


def fock_scatter_fractions(N: int, M: int) -> tuple[Fraction, ...]:
    """Single-cell count distribution for an N-photon input, as exact rationals.

    Entry ``n`` is the probability that one chosen cell holds exactly ``n``
    of the ``N`` photons.  With ``M = 1`` the only configuration puts all
    photons on the one cell, so the distribution degenerates to a point
    mass; for ``M >= 2`` the general counting formula applies (at ``M = 2``
    it reduces to the uniform distribution on ``0..N``).
    """
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    if M == 1:
        return (Fraction(0),) * N + (Fraction(1),)
    z = math.comb(N + M - 1, M - 1)
    numerators = list(_row_numerators(z, N, M))
    if sum(numerators) != z:
        raise AssertionError(f"configuration count mismatch for N={N}, M={M}")
    return tuple(Fraction(c, z) for c in numerators)


def _fock_scatter_array(N: int, M: int) -> np.ndarray:
    """Float row of :func:`fock_scatter_pmf`: each entry ``b_{N-n} / z_N`` rounded once."""
    arr = np.zeros(N + 1)
    if M == 1:
        arr[N] = 1.0
        return arr
    z = math.comb(N + M - 1, M - 1)
    probs = []
    # entries never rise with n, so after the first that rounds to 0.0 all do
    for b in _row_numerators(z, N, M):
        if not (p := b / z):
            break
        probs.append(p)
    arr[: len(probs)] = probs
    return arr


#: Most elements in one block of :func:`_mixture_array`, sized so that a
#: block's few arrays stay in cache; the bits of the result do not depend on it.
_BLOCK_ELEMENTS = 1 << 16
#: The binary exponents of z_N within one block stay at most this far above
#: the block's anchor, so the scaled weights and numerators stay in range.
_BLOCK_EXPONENT_SPAN = 256
#: Weights below this are mixed apart, divided by it first (exactly).
_TINY_WEIGHT = 2.0**-700


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positive ints ``x`` as ``m * 2**e``: ``m`` in [0.5, 1] correctly rounded."""
    # float() rounds an int correctly but overflows from 2**1024 on; for the
    # larger ones it rounds their top 64 bits, the last of them set when any
    # bit below is (a sticky bit), which rounds the same way
    small = bisect_left(values, 1 << 1023)
    mantissas, exponents = np.frexp(np.array(values[:small], dtype=float))
    big_exponents = [x.bit_length() for x in values[small:]]
    tops = []
    for x, e in zip(values[small:], big_exponents):
        top = x >> (e - 64)
        tops.append(float(top | ((top << (e - 64)) != x)))
    return (
        np.concatenate((mantissas, np.ldexp(tops, -64))),
        np.concatenate((exponents, big_exponents)).astype(np.int64),
    )


def _mixture_array(weights: np.ndarray, M: int) -> np.ndarray:
    """``sum_N weights[N] * row N`` over M >= 2 cells, as one Toeplitz sum.

    Entry n is ``sum_{N >= n} t(N, n)`` with the terms
    ``t(N, n) = (weights[N] / z_N) * b_{N-n}``.  The exact integers b_k and
    z_N are split once into float mantissas and binary exponents.  Rows N go
    in blocks that share an anchor exponent c, the binary exponent of z at
    the block's first row: the block's terms are the column
    ``weights[N] / m(z_N) * 2**(c - e(z_N))`` times a zero-copy Toeplitz view
    of ``m(b_k) * 2**(e(b_k) - c)``.  Scaling by powers of two is exact, so
    each term is the same double whatever the block, and it underflows only
    where its true value does.  The column reaches down to 2**-256 of a
    weight, so weights below ``_TINY_WEIGHT`` = 2**-700 are mixed in a
    second pass at 2**700 times their size and scaled back, which keeps
    their column normal.

    Each entry adds its terms in ascending N and also adds up, exactly by
    Fast2Sum, the rounding error of every addition; the sum of those errors
    corrects the entry at the end (Ogita, Rump and Oishi's Sum2), so the
    result is as accurate as if summed in twice the precision.  Both sums
    run in ascending N across blocks, so the bits do not depend on the
    blocking either.
    """
    tiny = np.where(weights < _TINY_WEIGHT, weights, 0.0)
    if tiny.any():
        rest = _mixture_array(weights - tiny, M)
        return rest + _mixture_array(tiny / _TINY_WEIGHT, M) * _TINY_WEIGHT
    out = np.zeros(len(weights))
    nonzero = np.flatnonzero(weights)
    if not len(nonzero):
        return out
    top = int(nonzero[-1]) + 1
    b = _numerators(top, M)
    b_mant, b_exp = _split(b)
    z_mant, z_exp = _split(list(accumulate(b)))
    scaled = weights[:top] / z_mant
    carry = np.zeros(len(weights))  # summed rounding errors of out
    # work space shared by the blocks, so that no block faults in fresh pages
    space = np.empty((3, max(_BLOCK_ELEMENTS, top) + top))
    start = int(nonzero[0])  # rows below the first weight add nothing
    while start < top:
        anchor = int(z_exp[start])
        stop = int(np.searchsorted(z_exp, anchor + _BLOCK_EXPONENT_SPAN, side="right"))
        # r rows of width start + r, with r (start + r) <= _BLOCK_ELEMENTS
        rows = (math.isqrt(start * start + 4 * _BLOCK_ELEMENTS) - start) // 2
        stop = min(stop, start + max(rows, 1), top)
        rows = stop - start
        terms, partial, larger = (
            flat[: r * stop].reshape(r, stop) for flat, r in zip(space, (rows, rows + 1, rows))
        )
        # padded[j] = b_{j - stop + 1} scaled, zero for negative k, so window
        # N holds the factors of entries n = stop - 1, ..., 0 of row N
        padded = np.zeros(2 * stop - 1)
        padded[stop - 1 :] = np.ldexp(b_mant[:stop], b_exp[:stop] - anchor)
        toeplitz = sliding_window_view(padded, stop)[start:stop]
        column = np.ldexp(scaled[start:stop], anchor - z_exp[start:stop])
        np.multiply(column[:, None], toeplitz, out=terms)
        partial[0] = out[stop - 1 :: -1]
        for previous, term, current in zip(partial, terms, partial[1:]):
            np.add(previous, term, out=current)
        # Fast2Sum needs the larger addend first; all terms are >= 0
        before, after = partial[:-1], partial[1:]
        np.maximum(before, terms, out=larger)
        lost = np.minimum(before, terms, out=terms)
        lost -= np.subtract(after, larger, out=larger)
        lost[0] += carry[stop - 1 :: -1]
        carry[:stop] = lost.sum(axis=0)[::-1]
        out[:stop] = partial[-1, ::-1]
        start = stop
    return out + carry


def fock_scatter_pmf(N: int, M: int) -> Pmf:
    """Single-cell count distribution for an N-photon input, in doubles."""
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    return Pmf(_fock_scatter_array(N, M), 0.0)


def approx_scatter_pmf(N: int, M: int) -> Pmf:
    """Small-n Gaussian-exponent approximation of the scattered pmf.

    Expands ``log p_n`` of the exact distribution to second order in ``n``:

        p_n ~ exp(-beta0 * n - beta_c * (n^2 - n)),
        beta0   = ln(1 + (M - 2) / N),
        beta_c  = (M - 2) / (2 N (N + M - 2)),

    normalized over ``0..N``.  Valid where the occupation stays small
    against N; requires ``M >= 3`` (for ``M = 2`` the exact pmf is flat and
    the expansion is pointless).
    """
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    if N < 1:
        raise ValueError(f"approximation needs N >= 1, got N={N}")
    if M < 3:
        raise ValueError(f"approximation needs M >= 3, got M={M}")
    beta0 = math.log1p((M - 2) / N)
    beta_c = (M - 2) / (2.0 * N * (N + M - 2))
    n = np.arange(N + 1)
    log_w = -beta0 * n - beta_c * (n * (n - 1.0))
    # log-sum-exp about the unique maximum log_w[0] = 0, as log1p of the
    # other weights; the max slot is zeroed, not dropped, so the pairwise sum
    # adds in the same order as scipy.special.logsumexp and the bits agree
    w = np.exp(log_w)
    w[0] = 0.0
    probs = np.exp(log_w - np.log1p(w.sum()))
    return Pmf(probs, 0.0)

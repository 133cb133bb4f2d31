"""Exact occupation statistics of photons scattered over speckle cells.

A deep multiply-scattering diffuser erases all which-path information, so
each of the ``binom(N + M - 1, M - 1)`` ways of distributing ``N``
indistinguishable photons over ``M`` cells is equally likely (bosonic
"stars and bars").  The photon count on one cell then follows

    p_n = b_{N-n} / z_N,   b_k = binom(k + M - 2, M - 2),
                           z_N = binom(N + M - 1, M - 1) = b_0 + ... + b_N.

The integer numerators ``b_k`` come from exact recurrences, run once by
each call that needs them: nothing is kept between calls.  A row runs
``b_{k-1} = b_k k // (k + M - 2)`` down from ``b_N = z_N (M - 1) / (N + M - 1)``,
and each entry is one correctly rounded int/int division, so it is the
exact rational rounded once to float, at any ``N + M``.

A mixture of rows, ``sum_N P(N) b_{N-n} / z_N``, is evaluated from the
exact integers at any ``N + M`` by :func:`_mixture_array`, the one place
that picks a route: one nonzero weight takes its exact row; for more, it
builds the ``b_k`` and z_N once, splits z_N once into floats, forms
``w_N = P(N) / z_N`` once, tests the cost and the range of w, and hands w
to exactly one of two compensated kernels, neither of which falls back or
sees z_N.  As ``sum_k b_k x**k = (1 - x)**-(M - 1)``, the mixture is M - 1
suffix sums of w: O(L M) for L entries, each entry rounded about once.  It
is also one Toeplitz sum of w times the ``b_k``: O(L**2), within a few
units in the last place.  Both split their integers with :func:`_split`.

:func:`fock_scatter_fractions` returns the exact rationals themselves.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import NormalizationFailure, Pmf, _as_int

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
        raise NormalizationFailure(f"configuration count mismatch for N={N}, M={M}")
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


#: Most elements in one block of :func:`_toeplitz_mixture`, sized so that a
#: block's few arrays stay in cache; the bits of the result do not depend on it.
_BLOCK_ELEMENTS = 1 << 16
#: The binary exponents of b_k within one block stay at most this far above
#: the block's anchor, so the scaled weights and numerators stay in range.
_BLOCK_EXPONENT_SPAN = 256
#: :func:`_toeplitz_mixture` builds the columns of weights below this from
#: their w divided by it (exactly).
_TINY_WEIGHT = 2.0**-700
#: Cost rule of :func:`_mixture_array`, in seconds, for a support of L
#: entries: one suffix pass costs ``_SUFFIX_PASS_S + _SUFFIX_ENTRY_S * L``;
#: the Toeplitz sum costs ``L * (_TOEPLITZ_ENTRY_S + _TOEPLITZ_TERM_S * L)``
#: more than the suffix route's low parts of z_N and w.  Fitted to
#: interleaved medians of both kernels at L = 25 to 6400 on a 2-vCPU x86-64
#: machine; the rule then puts the crossover at M = 15, 52, 176, 579 and
#: 2088 for L = 25, 100, 400, 1600 and 6400, where the measured one was 18,
#: 40, 185, 599 and 2217.
_SUFFIX_PASS_S = 5.3e-6
_SUFFIX_ENTRY_S = 13.5e-9
_TOEPLITZ_ENTRY_S = 3e-6
_TOEPLITZ_TERM_S = 4.2e-9


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """Ascending positive ints ``x`` as ``m * 2**e``, m in [0.5, 1), with their tops and shifts.

    Each x is ``t * 2**s`` plus cut bits below 2**-105 of x, where the top t
    holds x's leading <= 106 bits (below 2**106, t is x and s is 0), and
    numpy rounds t once to ``m * 2**(e - s)``.  So ``m * 2**e`` is within
    half an ulp plus 2**-105 of x, and it differs from x correctly rounded
    only where t ends in exactly half an ulp and a cut bit is set.  The
    suffix route takes z_N's low part, t minus its rounding, from its tops.
    """
    cut = bisect_left(values, 1 << 106)
    big, shifts = values[cut:], np.zeros(len(values), dtype=np.int64)
    shifts[cut:] = np.fromiter(map(int.bit_length, big), np.int64, len(big)) - 106
    tops = values[:cut] + list(map(operator.rshift, big, shifts[cut:].tolist()))
    mantissas, exponents = np.frexp(np.array(tops, dtype=float))
    return mantissas, exponents + shifts, tops, shifts


def _mixture_array(weights: np.ndarray, M: int) -> np.ndarray:
    """``sum_N weights[N] * row N`` over M >= 2 cells, by the one route picked here.

    A single nonzero weight gives that weight times its exact row.  More
    share ``b = _numerators(L, M)`` for a support of L entries and their
    running sums z_N, built here once; z is split once (:func:`_split`) into
    ``h * 2**e``, and ``w_N = weights[N] / z_N`` is formed once, as ``q *
    2**f`` with ``q = m / h`` for ``weights[N] = m * 2**f'``, and scaled by
    one exact ``2**shift`` that puts the weights' total just below 2**1020.
    The stage goes to :func:`_suffix_mixture`, O(L M), where the cost rule
    says that M - 1 suffix passes beat ~L**2 Toeplitz terms and no nonzero
    scaled w falls below 2**-969, where its low part would lose bits to
    underflow; else to :func:`_toeplitz_mixture`, O(L**2).  Either kernel
    takes every weight in one pass; none takes z.

    On the suffix route w is a double-double: z_N's top bits are h plus its
    rounding error ``low``, and Dekker's TwoProduct on Veltkamp halves gives
    w's low part ``(m - q h - err - q low) / h``, err that of ``q h``.
    """
    out = np.zeros(len(weights))
    nonzero = np.flatnonzero(weights)
    top = int(nonzero[-1]) + 1 if len(nonzero) else 0
    if len(nonzero) == 1:
        out[:top] = weights[top - 1] * _fock_scatter_array(top - 1, M)
    elif top:
        head, b = weights[:top], _numerators(top, M)
        h, e, tops, shifts = _split(list(accumulate(b)))
        m, f = np.frexp(head)
        q, f = m / h, f - e  # w_N = q * 2**f
        shift = 1020 - math.frexp(float(head.sum()))[1]
        hi = np.ldexp(q, f + shift)
        toeplitz = top * (_TOEPLITZ_ENTRY_S + _TOEPLITZ_TERM_S * top)
        cheaper = M - 1 < toeplitz / (_SUFFIX_PASS_S + _SUFFIX_ENTRY_S * top)
        if not cheaper or hi[head > 0].min() < 2.0**-969:
            out[:top] = _toeplitz_mixture(q, f, (head > 0) & (head < _TINY_WEIGHT), b)
        else:
            # t = upper 2**53 + lower, and (upper 2**53 - t rounded) + lower is exact
            upper = np.fromiter(map(operator.rshift, tops, repeat(53)), float, top)
            lower = np.fromiter(map(operator.and_, tops, repeat((1 << 53) - 1)), float, top)
            low = np.ldexp((np.ldexp(upper, 53) - np.ldexp(h, e - shifts)) + lower, shifts - e)
            (q1, q2), (h1, h2) = _veltkamp(q), _veltkamp(h)
            product = q * h
            err = ((q1 * h1 - product) + q1 * h2 + q2 * h1) + q2 * h2
            lo = np.ldexp(((m - product) - err - q * low) / h, f + shift)
            out[:top] = np.ldexp(_suffix_mixture(hi, lo, M - 1), -shift)
    return out


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles ``a`` into halves of at most 26 significant bits each."""
    c = (2.0**27 + 1.0) * a
    high = c - (c - a)
    return high, a - high


def _suffix_mixture(hi: np.ndarray, lo: np.ndarray, passes: int) -> np.ndarray:
    """``S**passes`` of ``hi + lo``, as compensated suffix sums, still scaled.

    The router hands it w_N = weights[N] / z_N over M cells, two or more,
    as a scaled double-double ``hi + lo``, and ``passes = M - 1``: as ``sum_k
    b_k x**k = (1 - x)**-(M - 1)``, the mixture is ``S**(M - 1) w`` for the
    suffix sum ``(S w)(n) = sum_{N >= n} w_N``.  Every number below is >=
    0, so no pass cancels, and each ``S**j w`` is at most the final entry.
    Each pass runs a cumulative sum ``s`` of the high parts ``x``; the
    rounding error of each of its additions comes back elementwise by
    Fast2Sum from ``s[:-1]``, ``x[1:]`` and ``s[1:]`` and joins the low
    parts, which get a cumulative sum of their own (Ogita, Rump and Oishi's
    compensated summation).  The result is hi plus lo, rounded once.
    """
    # reversed, so that prefix sums over the index are suffix sums over N
    hi, lo = hi[::-1].copy(), lo[::-1].copy()
    # the passes swap two buffers; each has its views made once, ahead
    views = [(x, x[:-1], x[1:]) for x in (hi, np.empty_like(hi))]
    larger, lost = np.empty((2, len(hi) - 1))
    lo_tail = lo[1:]
    for _ in range(passes):
        (x, _, x_tail), (s, s_head, s_tail) = views
        np.add.accumulate(x, out=s)
        # Fast2Sum of s[i] = s[i - 1] + x[i], larger addend first
        np.maximum(s_head, x_tail, out=larger)
        np.minimum(s_head, x_tail, out=lost)
        lost -= np.subtract(s_tail, larger, out=larger)
        lo_tail += lost
        np.add.accumulate(lo, out=lo)
        views.reverse()
    return (views[0][0] + lo)[::-1]


def _toeplitz_mixture(q: np.ndarray, f: np.ndarray, tiny: np.ndarray, b: list[int]) -> np.ndarray:
    """The mixture of the rows over M >= 2 cells as one Toeplitz sum of ``w_N b_{N-n}``.

    The router hands it ``w_N = weights[N] / z_N = q[N] * 2**f[N]``, the
    rows ``tiny`` whose weights lie below ``_TINY_WEIGHT`` = 2**-700, and
    the numerators ``b`` of M cells, one per weight, split once by
    :func:`_split`; entry n is ``sum_{N >= n} w_N b_{N-n}``.  Rows N go in
    blocks that share an anchor exponent c, the binary exponent of b at the
    block's first row: the block's terms are the column ``q[N] * 2**(f[N] +
    c)`` times a zero-copy Toeplitz view of ``m(b_k) * 2**(e(b_k) - c)``.
    Scaling by powers of two is exact, so each term is the same double
    whatever the block, and it underflows only where its true value does.
    As ``z_N = b_N (N + M - 1) / (M - 1)``, the column reaches down to
    ``weight * 2**-(257 + log2((N + M - 1) / (M - 1)))``, so tiny rows build
    it from ``q / _TINY_WEIGHT``, normal at any N < 2**50, and their terms
    are scaled back after the block's product (exactly, unless subnormal).

    Each entry adds its terms in ascending N and also adds up, exactly by
    Fast2Sum, the rounding error of every addition; the sum of those errors
    corrects the entry at the end (Ogita, Rump and Oishi's Sum2), so the
    result is as accurate as if summed in twice the precision.  Both sums
    run in ascending N across blocks, so the bits do not depend on the
    blocking either.
    """
    top = len(q)
    out = np.zeros(top)
    b_mant, b_exp = _split(b)[:2]
    scaled = np.where(tiny, q / _TINY_WEIGHT, q)
    carry = np.zeros_like(out)  # summed rounding errors of out
    # work space shared by the blocks, so that no block faults in fresh pages
    space = np.empty((3, max(_BLOCK_ELEMENTS, top) + top))
    start = int(np.flatnonzero(q)[0])  # rows below the first weight add nothing
    while start < top:
        anchor = int(b_exp[start])
        stop = int(np.searchsorted(b_exp, anchor + _BLOCK_EXPONENT_SPAN, side="right"))
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
        column = np.ldexp(scaled[start:stop], f[start:stop] + anchor)
        np.multiply(column[:, None], toeplitz, out=terms)
        if tiny[start:stop].any():
            terms[tiny[start:stop]] *= _TINY_WEIGHT
        partial[0] = out[stop - 1 :: -1]
        # row by row: add.accumulate(axis=0) runs column by column, ~5x slower
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
    N, M = _as_int("photon number N", N, 1), _as_int("cell count M", M, 3)
    beta0 = math.log1p((M - 2) / N)
    beta_c = (M - 2) / (2.0 * N * (N + M - 2))
    n = np.arange(N + 1)
    log_w = (-beta0 * n - beta_c * (n * (n - 1.0))).tolist()
    # log-sum-exp about the unique maximum log_w[0] = 0, as log1p of the
    # other weights; the max slot is zeroed, not dropped, so the pairwise sum
    # adds in the same order as scipy.special.logsumexp.  exp and log1p come
    # from libm, not numpy's kernels, which numpy picks by CPU
    w = np.array([math.exp(x) for x in log_w])
    w[0] = 0.0
    shift = math.log1p(w.sum())
    return Pmf([math.exp(x - shift) for x in log_w], 0.0)

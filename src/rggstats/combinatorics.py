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
builds the ``b_k`` and z_N once, tests cost and range, and calls exactly
one of two compensated kernels, neither of which falls back.  As ``sum_k
b_k x**k = (1 - x)**-(M - 1)``, the mixture is M - 1 suffix sums of
``P(N) / z_N``: O(L M) for L entries, each entry rounded about once.  It
is also one Toeplitz sum: O(L**2), within a few units in the last place.

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
#: The binary exponents of z_N within one block stay at most this far above
#: the block's anchor, so the scaled weights and numerators stay in range.
_BLOCK_EXPONENT_SPAN = 256
#: :func:`_toeplitz_mixture` takes weights below this divided by it (exactly).
_TINY_WEIGHT = 2.0**-700
#: Cost rule of :func:`_suffix_route`, in seconds, for a support of L
#: entries: one suffix pass costs ``_SUFFIX_PASS_S + _SUFFIX_ENTRY_S * L``;
#: the Toeplitz sum costs ``L * (_TOEPLITZ_ENTRY_S + _TOEPLITZ_TERM_S * L)``
#: more than the suffix route's z_N and w.  Fitted to interleaved medians of
#: both kernels at L = 25 to 6400 on a 2-vCPU x86-64 machine; the rule then
#: puts the crossover at M = 15, 52, 176, 579 and 2088 for L = 25, 100,
#: 400, 1600 and 6400, where the measured one was 18, 40, 185, 599 and 2217.
_SUFFIX_PASS_S = 5.3e-6
_SUFFIX_ENTRY_S = 13.5e-9
_TOEPLITZ_ENTRY_S = 3e-6
_TOEPLITZ_TERM_S = 4.2e-9
#: The low 53 bits of an int, exactly a double's significand.
_LOW_53 = (1 << 53) - 1


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
    """``sum_N weights[N] * row N`` over M >= 2 cells, by the one route picked here.

    A single nonzero weight gives that weight times its exact row.  More
    share ``b = _numerators(L, M)`` for a support of L entries and their
    running sums z_N, built here once, and go to exactly one kernel, which
    takes every weight in one pass: :func:`_suffix_mixture`, O(L M), where
    :func:`_suffix_route` picks it, and :func:`_toeplitz_mixture`, O(L**2),
    elsewhere, always at large M.  No weight at all calls no kernel.
    """
    out = np.zeros(len(weights))
    nonzero = np.flatnonzero(weights)
    top = int(nonzero[-1]) + 1 if len(nonzero) else 0
    if len(nonzero) == 1:
        out[:top] = weights[top - 1] * _fock_scatter_array(top - 1, M)
    elif top:
        head, b = weights[:top], _numerators(top, M)
        z = list(accumulate(b))
        bits = _suffix_route(head, z, M)
        out[:top] = _toeplitz_mixture(head, b, z) if bits is None else _suffix_mixture(head, z, bits)
    return out


def _suffix_route(weights: np.ndarray, z: list[int], M: int) -> np.ndarray | None:
    """z_N's bit lengths if M - 1 suffix passes beat ~L**2 Toeplitz terms and w fits, else None.

    A weight of binary exponent f over B bits of z_N has ``w_N > 2**(f - 1 - B)``, which
    scaled as in :func:`_suffix_mixture` must reach 2**-969; up to 2**-968 it may be refused.
    """
    L = len(weights)
    toeplitz = L * (_TOEPLITZ_ENTRY_S + _TOEPLITZ_TERM_S * L)
    if M - 1 >= toeplitz / (_SUFFIX_PASS_S + _SUFFIX_ENTRY_S * L):
        return None
    bits = np.array([x.bit_length() for x in z])
    shift = 1020 - math.frexp(float(weights.sum()))[1]
    fits = (np.frexp(weights)[1] - bits)[weights > 0].min() - 1 + shift >= -969
    return bits if fits else None


def _z_parts(z: list[int], bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z_N of bit lengths ``bits`` as ``(hi + lo) * 2**e``, hi in [0.5, 1).

    The top 106 bits of each z_N are two 53-bit halves, whose float sum and
    Fast2Sum error are hi and lo; the bits cut below are under 2**-105 of z_N.
    """
    shifts = np.maximum(bits - 106, 0)
    tops = [x >> s for x, s in zip(z, shifts.tolist())]
    upper = np.ldexp(np.array([t >> 53 for t in tops], dtype=float), 53)
    lower = np.array([t & _LOW_53 for t in tops], dtype=float)
    hi = upper + lower
    lo = lower - (hi - upper)
    hi, e = np.frexp(hi)
    return hi, np.ldexp(lo, -e), e + shifts


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles ``a`` into halves of at most 26 significant bits each."""
    c = (2.0**27 + 1.0) * a
    high = c - (c - a)
    return high, a - high


def _suffix_mixture(weights: np.ndarray, z: list[int], bits: np.ndarray) -> np.ndarray:
    """The mixture as M - 1 compensated suffix sums.

    ``z`` and ``bits`` hold z_N of M cells and its bit length, one per
    weight (two or more).  As ``sum_k b_k x**k = (1 - x)**-(M - 1)``, ``z_1
    = M``, and multiplying by ``1 / (1 - x)`` is the suffix sum ``(S w)(n) =
    sum_{N >= n} w_N``, so the mixture is ``S**(M - 1) w`` with ``w_N =
    weights[N] / z_N``.  Every number below is >= 0, so no pass cancels,
    and each ``S**j w`` is at most the final entry.

    w is a double-double: with ``weights[N] = m * 2**f`` and
    ``z_N = (h + l) * 2**e`` (see :func:`_z_parts`), ``q = m / h`` and the
    error of ``q h`` from Dekker's TwoProduct on Veltkamp halves give the
    low part ``(m - q h - err - q l) / h``.  One exact power of two
    ``2**shift`` puts the weights' total just below 2**1020, and the router
    sends only stages where no nonzero w then falls below 2**-969, where its
    low part would lose bits to underflow.  Each pass runs a cumulative sum
    ``s`` of the high parts ``x``; the rounding error of each of its
    additions comes back elementwise by Fast2Sum from ``s[:-1]``, ``x[1:]``
    and ``s[1:]`` and joins the low parts, which get a cumulative sum of
    their own (Ogita, Rump and Oishi's compensated summation).  The result
    is the high plus low part, rounded once and scaled back.
    """
    zh, zl, ze = _z_parts(z, bits)
    mant, exps = np.frexp(weights)
    q = mant / zh
    q_high, q_low = _veltkamp(q)
    z_high, z_low = _veltkamp(zh)
    product = q * zh
    err = ((q_high * z_high - product) + q_high * z_low + q_low * z_high) + q_low * z_low
    low = ((mant - product) - err - q * zl) / zh
    exps = exps - ze
    shift = 1020 - math.frexp(float(weights.sum()))[1]
    # reversed, so that prefix sums over the index are suffix sums over N
    hi = np.ldexp(q, exps + shift)[::-1].copy()
    lo = np.ldexp(low, exps + shift)[::-1].copy()
    # the passes swap two buffers; each has its views made once, ahead
    views = [(x, x[:-1], x[1:]) for x in (hi, np.empty_like(hi))]
    larger, lost = np.empty((2, len(hi) - 1))
    lo_tail = lo[1:]
    for _ in range(z[1] - 1):  # M - 1 passes
        (x, _, x_tail), (s, s_head, s_tail) = views
        np.add.accumulate(x, out=s)
        # Fast2Sum of s[i] = s[i - 1] + x[i], larger addend first
        np.maximum(s_head, x_tail, out=larger)
        np.minimum(s_head, x_tail, out=lost)
        lost -= np.subtract(s_tail, larger, out=larger)
        lo_tail += lost
        np.add.accumulate(lo, out=lo)
        views.reverse()
    hi = views[0][0]
    return np.ldexp(hi + lo, -shift)[::-1]


def _toeplitz_mixture(weights: np.ndarray, b: list[int], z: list[int]) -> np.ndarray:
    """``sum_N weights[N] * row N`` over M >= 2 cells, as one Toeplitz sum.

    With ``b`` the numerators of M cells and ``z`` their running sums z_N,
    one of each per weight, entry n is ``sum_{N >= n} t(N, n)``, ``t(N, n)
    = (weights[N] / z_N) * b_{N-n}``.  The exact b_k and z_N are split once
    into float mantissas and binary exponents.  Rows N go in blocks that
    share an anchor exponent c, the binary exponent of z at the block's
    first row: the block's terms are the column
    ``weights[N] / m(z_N) * 2**(c - e(z_N))`` times a zero-copy Toeplitz view
    of ``m(b_k) * 2**(e(b_k) - c)``.  Scaling by powers of two is exact, so
    each term is the same double whatever the block, and it underflows only
    where its true value does.  The column reaches down to 2**-256 of a
    weight, so rows of weights below ``_TINY_WEIGHT`` = 2**-700 build it
    from the weight divided by ``_TINY_WEIGHT``, which keeps it normal, and
    their terms are scaled back right after the block's product (exactly,
    unless a term is subnormal).

    Each entry adds its terms in ascending N and also adds up, exactly by
    Fast2Sum, the rounding error of every addition; the sum of those errors
    corrects the entry at the end (Ogita, Rump and Oishi's Sum2), so the
    result is as accurate as if summed in twice the precision.  Both sums
    run in ascending N across blocks, so the bits do not depend on the
    blocking either.
    """
    top = len(weights)
    out = np.zeros(top)
    b_mant, b_exp = _split(b)
    z_mant, z_exp = _split(z)
    tiny = (weights > 0.0) & (weights < _TINY_WEIGHT)
    scaled = np.where(tiny, weights / _TINY_WEIGHT, weights) / z_mant
    carry = np.zeros_like(out)  # summed rounding errors of out
    # work space shared by the blocks, so that no block faults in fresh pages
    space = np.empty((3, max(_BLOCK_ELEMENTS, top) + top))
    start = int(np.flatnonzero(weights)[0])  # rows below the first weight add nothing
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

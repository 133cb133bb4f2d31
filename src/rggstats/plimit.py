"""Deep-cascade limit: photon statistics after many diffusers in series.

Once enough independent diffusers act in series, the field on one speckle
cell carries a completely randomized phase, and what survives of the input
is summarized by simple closed forms:

* a coherent input of mean ``m`` turns exactly thermal with mean ``m / M``
  per stage (:func:`coherent_limit_pmf`);
* factorial moments map as ``<n^(k)> = <N^(k)> * k! / M^k``, so every
  normalized correlation picks up ``k!`` per stage (:func:`gn_limit`);
* an N-photon input lands on the distribution of :func:`fock_pn_limit_pmf`.

All three are one model: binomial thinning of the photons with a random
transmissivity ``t ~ Exp(rate M)``,

    p_n = E[C(N, n) t^n (1-t)^(N-n)] = C(N, n) * M * J_n,
    J_n = int_0^inf e^(-M t) t^n (1-t)^(N-n) dt,

and ``E[t^k] = k!/M^k`` is the ``k!`` law.  Unlike a real transmissivity,
``t`` is not confined to [0, 1]: where ``(1-t)`` goes negative carries
enough weight (cells comparable to or fewer than photons) the "pmf" has
negative entries.  Those are reported as-is by
:func:`fock_pn_limit_fractions` and flagged - never clipped - when a pmf
is requested.

Expanding ``(1-t)^(N-n)`` defines the limit as the alternating sum

    p_n = (N!/n!) * sum_{k=n..N} (-1)^(k-n) k! / ((N-k)! (k-n)! M^k),

whose terms grow like ``N!`` while the result stays of order one, so it
cancels violently.  :func:`fock_pn_limit_float64` keeps a deliberately
naive double-precision transcription of it to demonstrate why that
matters.  The exact evaluation works on the integer pmf numerators
``s_n = M**N p_n = C(N, n) M**(N+1) J_n`` instead.  The ``J_n`` obey a
three-term recurrence (the contiguous relations of Kummer's U, DLMF 13.3);
times ``C(N, n)`` it has small-integer coefficients only,

    (n+1) s_(n+1) = (N-n+1) s_(n-1) + (2n-N-M) s_n,

and it runs downward from ``s_N = N!`` (``J_N = N!/M^(N+1)``) in O(N)
exact steps.  Solved for ``s_(n-1)`` it would divide by ``N-n+1`` at
every step; scaling out the falling factorial ``F_n = N!/(N-n)!`` removes
that division.  With ``s_n = F_n w_n``,

    w_(n-1) = (n+1)(N-n) w_(n+1) + (N+M-2n) w_n,   w_N = 1, w_(N+1) = 0,

multiplies big integers by small ones only.  The same downward pass
accumulates the Horner sum ``h = w_n + (N-n) h``, which ends as
``sum_n F_n w_n = sum_n s_n`` and must equal ``M**N`` exactly; anything
else is an arithmetic bug and raises :class:`NormalizationFailure`.

Each entry ``p_n = F_n w_n / M**N`` is rounded to double once, and as a
rule without a big-integer division (Ziv's strategy, ACM TOMS 17, 1991).
``F_n`` is built upward by small multiplies, ``R = floor(2^K / M**N)`` is
formed once per row with ``K = bits(M**N) + 64``, and ``tw``, ``tf`` are
the top 64 bits (``_TOP_BITS``) of ``w_n`` and ``F_n``, shifted right by
``sw`` and ``sf``.  Then ``p_n 2^(K-sw-sf)`` lies between ``tw tf R`` and
``(tw+1)(tf+1)(R+1)``, where a ``+1`` is dropped for a top that kept all
its bits.  Rounding is monotone, so when both bounds round to the same
double, that double times ``2^(sw+sf-K)`` is the correctly rounded
``p_n``.  Three cases are handled apart:

* bounds that round differently straddle a rounding boundary: the
  entry is the exact ``F_n w_n / M**N`` (int/int true division, which
  CPython rounds correctly);
* a result below ``2^-1022`` takes the same exact division, because the
  scaling would round a subnormal a second time;
* ``bits(w_n) + bits(F_n) - bits(M**N) <= -1076`` proves
  ``p_n < 2^-1075``, which rounds to 0.0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import InvalidPmf, NormalizationFailure, Pmf, _as_int, _as_mean
from .inputs import thermal_pmf

__all__ = [
    "coherent_limit_pmf",
    "gn_limit",
    "fock_pn_limit_fractions",
    "fock_pn_limit_pmf",
    "fock_pn_limit_float64",
]


def coherent_limit_pmf(mean: float, M: int) -> Pmf:
    """Deep-cascade output for a coherent input: thermal with mean ``mean / M``."""
    mean = _as_mean("mean", mean)
    M = _as_int("cell count M", M, 1)
    return thermal_pmf(mean / M)


def gn_limit(g_in: float, order: int, stages: int = 1) -> float:
    """Normalized correlation after ``stages`` deep cascades: ``(order!)**stages * g_in``.

    The ``M`` dependence cancels between numerator and mean, so each stage
    contributes a clean factor ``order!`` - thermal light (g2 = 2) turns
    into 2**stages super-bunched light, independent of intensity.
    """
    order = _as_int("order", order, 2)
    stages = _as_int("stages", stages, 1)
    return float(math.factorial(order) ** stages) * g_in


# Top bits of w_n and of F_n kept when an entry is rounded; R has one or two more.
_TOP_BITS = 64
_MIN_NORMAL = 2.0**-1022


def _downward_w(N: int, M: int):
    """Yield w_N, w_(N-1), ..., w_0 of the division-free recurrence."""
    w_next, w = 0, 1  # w_(n+1), w_n at n = N
    yield w
    for n in range(N, 0, -1):
        w_next, w = w, (n + 1) * (N - n) * w_next + (N + M - 2 * n) * w
        yield w


def _scaled_numerators(N: int, M: int) -> tuple[list[int], int]:
    """``w_0 .. w_N`` with ``s_n = F_n w_n``, and the denominator ``M**N``.

    The same downward pass accumulates ``h = w_n + (N - n) h``, which ends
    as ``sum_n F_n w_n = sum_n s_n``.  Anything but exactly ``M**N`` would
    be an arithmetic bug and raises :class:`NormalizationFailure`.
    """
    ws, h = [], 0
    for k, w in enumerate(_downward_w(N, M)):  # k = N - n
        h = w + k * h
        ws.append(w)
    denominator = M**N
    if h != denominator:
        raise NormalizationFailure(
            f"exact deep-cascade pmf for N={N}, M={M} sums to {h}/{denominator} != 1"
        )
    ws.reverse()
    return ws, denominator


def _limit_numerators(N: int, M: int) -> tuple[tuple[int, ...], int]:
    """Exact numerators ``s_n = F_n w_n`` of ``p_n = s_n / M**N``, ``F_n`` built upward."""
    ws, denominator = _scaled_numerators(N, M)
    numerators, F = [], 1
    for n, w in enumerate(ws):
        numerators.append(F * w)
        F *= N - n
    return tuple(numerators), denominator


def _rounded(ws: list[int], N: int, denominator: int) -> list[float]:
    """Each ``F_n w_n / denominator``, all >= 0, correctly rounded to a double.

    The rounding rule of the module docstring, with one reciprocal
    ``R = floor(2**K / denominator)`` for the whole row.
    """
    top = _TOP_BITS
    bits_d = denominator.bit_length()
    K = bits_d + top
    R = (1 << K) // denominator
    probs, F = [], 1
    for n, w in enumerate(ws):
        bits_w, bits_f = w.bit_length(), F.bit_length()
        if bits_w + bits_f - bits_d <= -1076:  # below 2**-1075: rounds to 0.0
            probs.append(0.0)
        else:
            sw = bits_w - top if bits_w > top else 0
            sf = bits_f - top if bits_f > top else 0
            tw, tf = w >> sw, F >> sf
            x = float(tw * tf * R)
            if x == float((tw + (sw > 0)) * (tf + (sf > 0)) * (R + 1)) and (
                x := math.ldexp(x, sw + sf - K)
            ) >= _MIN_NORMAL:
                probs.append(x)
            else:  # near a rounding boundary, or subnormal: the exact quotient
                probs.append(w * F / denominator)
        F *= N - n
    return probs


def fock_pn_limit_fractions(N: int, M: int) -> tuple[Fraction, ...]:
    """Exact rational deep-cascade pmf entries for an N-photon input."""
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    numerators, denominator = _limit_numerators(N, M)
    return tuple(Fraction(s, denominator) for s in numerators)


def fock_pn_limit_pmf(N: int, M: int) -> Pmf:
    """Deep-cascade pmf for an N-photon input, validated and in doubles.

    Raises
    ------
    NormalizationFailure
        If the exact rational entries do not sum to exactly 1 (would be an
        arithmetic bug, not roundoff - there is no roundoff here).
    InvalidPmf
        If any exact entry is negative, i.e. (N, M) lies outside the
        domain where the limit form is a distribution; the message names the
        first lowest entry, with ``F_n w_n`` formed for the negative ``w_n``
        only.  :func:`fock_pn_limit_fractions` gives the raw values.
    """
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    ws, denominator = _scaled_numerators(N, M)
    if min(ws) < 0:  # F_n > 0, so s_n and w_n share their sign
        lowest, F = (0, 0), 1  # (s_n, n) of the first lowest entry
        for n, w in enumerate(ws):
            if w < 0:
                lowest = min(lowest, (F * w, n))
            F *= N - n
        lowest, n = lowest
        raise InvalidPmf(
            f"deep-cascade form is not a distribution at N={N}, M={M}: "
            f"p_{n} = {lowest / denominator!r} < 0; "
            "raw values available via fock_pn_limit_fractions"
        )
    return Pmf(_rounded(ws, N, denominator), 0.0)


def fock_pn_limit_float64(N: int, M: int, n: int) -> float:
    """Naive double-precision transcription of the deep-cascade alternating sum.

    Kept as a measuring stick: factorials overflow the double range at
    171!, the alternating terms cancel catastrophically, and the result
    is garbage (inf/nan or wildly wrong) long before N = 200 at large M.
    Use :func:`fock_pn_limit_pmf` or :func:`fock_pn_limit_fractions` for
    answers.  Needs scipy, installed with the ``rggstats[test]`` extra.
    """
    try:
        from scipy.special import factorial as _float_factorial  # measuring stick only
    except ImportError as exc:
        raise ImportError(
            "fock_pn_limit_float64 needs scipy: pip install 'rggstats[test]'"
        ) from exc

    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    n = _as_int("n", n, 0)
    if n > N:
        return 0.0
    k = np.arange(n, N + 1, dtype=float)
    signs = np.where((k - n) % 2 == 0, 1.0, -1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = signs * _float_factorial(k) / (
            _float_factorial(N - k) * _float_factorial(k - n) * float(M) ** k
        )
        prefactor = _float_factorial(N) / _float_factorial(n)
        return float(prefactor * terms.sum())

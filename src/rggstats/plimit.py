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

and runs downward from ``s_N = N!`` (``J_N = N!/M^(N+1)``) in O(N) exact
steps.  Each entry is rounded to double once at the end.
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


def _exact_div(numerator: int, divisor: int, N: int, M: int) -> int:
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise NormalizationFailure(
            f"deep-cascade recurrence for N={N}, M={M} left remainder "
            f"{remainder} on division by {divisor}"
        )
    return quotient


def _limit_numerators(N: int, M: int) -> tuple[tuple[int, ...], int]:
    """Exact integer numerators s_n with p_n = s_n / M**N.

    The recurrence of the module docstring, solved for ``s_(n-1)``,

        s_(n-1) = [(n+1) s_(n+1) + (N+M-2n) s_n] / (N-n+1),

    runs for n = N..1 from ``s_N = N!`` and ``s_(N+1) = 0``; its first step
    gives ``s_(N-1) = N! (M-N)``.  O(N) big-integer steps, each a big
    integer times a small one.  Every division is exact; a remainder would
    be an arithmetic bug and raises :class:`NormalizationFailure`.
    """
    s_next, s_cur = 0, math.factorial(N)  # s_(n+1), s_n at n = N
    numerators = [s_cur]
    for n in range(N, 0, -1):
        s_prev = _exact_div((n + 1) * s_next + (N + M - 2 * n) * s_cur, N - n + 1, N, M)
        numerators.append(s_prev)
        s_next, s_cur = s_cur, s_prev
    return tuple(reversed(numerators)), M**N


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
        domain where the limit form is a distribution.  Use
        :func:`fock_pn_limit_fractions` to inspect the raw values.
    """
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    numerators, denominator = _limit_numerators(N, M)
    if sum(numerators) != denominator:
        raise NormalizationFailure(
            f"exact deep-cascade pmf for N={N}, M={M} sums to "
            f"{sum(numerators)}/{denominator} != 1"
        )
    lowest = min(numerators)
    if lowest < 0:
        raise InvalidPmf(
            f"deep-cascade form is not a distribution at N={N}, M={M}: "
            f"p_{numerators.index(lowest)} = {lowest / denominator!r} < 0; "
            "raw values available via fock_pn_limit_fractions"
        )
    return Pmf([s / denominator for s in numerators], 0.0)


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

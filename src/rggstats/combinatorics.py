"""Exact occupation statistics of photons scattered over speckle cells.

A deep multiply-scattering diffuser erases all which-path information, so
each of the ``binom(N + M - 1, M - 1)`` ways of distributing ``N``
indistinguishable photons over ``M`` cells is equally likely (bosonic
"stars and bars").  The photon count on one cell then follows

    p_n = b_{N-n} / z_N,   b_k = binom(k + M - 2, M - 2),
                           z_N = binom(N + M - 1, M - 1) = b_0 + ... + b_N.

Rows are evaluated on one of two routes, split at ``N + M = EXACT_LIMIT``:

* exact: the integer numerators ``b_k`` come from the recurrence
  ``b_{k+1} = b_k (k + M - 1) // (k + 1)``, shared by every row of the same
  ``M``, and each entry is one correctly rounded int/int division, so it is
  the exact rational rounded once to float;
* float: above the limit, ``p_n`` is the running product of the ratios
  ``p_{n+1} / p_n = (N - n) / (N - n + M - 2)``, normalized at the end,
  with a relative error of order 1e-15.

:func:`fock_scatter_fractions` returns the exact rationals themselves.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import Pmf, _as_int

__all__ = [
    "EXACT_LIMIT",
    "config_count",
    "fock_scatter_fractions",
    "fock_scatter_pmf",
    "approx_scatter_pmf",
]

#: Rows with N + M at or below this are exact integer ratios rounded once to
#: float; above it they are float products of the successive ratios.
EXACT_LIMIT = 20000


def config_count(N: int, M: int) -> int:
    """Number of ways to place N indistinguishable photons on M cells."""
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    return math.comb(N + M - 1, M - 1)


# Numerator sequences b_0, b_1, ... of the last four M, grown on demand.  For
# rows on the exact route one sequence takes at most about 23 MB (measured at
# N + M = EXACT_LIMIT, M near 5500), so the store stays below ~92 MB.
_numerator_lock = threading.Lock()  # guards the check-then-append on a store


@lru_cache(maxsize=4)
def _numerator_store(M: int) -> list[int]:
    return [1]


def _exact_row(N: int, M: int) -> tuple[list[int], int]:
    """Numerators ``b_N, ..., b_0`` of row N (entry n first) and their sum z_N."""
    with _numerator_lock:
        b = _numerator_store(M)
        for k in range(len(b) - 1, N):
            b.append(b[k] * (k + M - 1) // (k + 1))
        numerators = b[N::-1]
    z = math.comb(N + M - 1, M - 1)
    if sum(numerators) != z:
        raise AssertionError(f"configuration count mismatch for N={N}, M={M}")
    return numerators, z


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
    numerators, z = _exact_row(N, M)
    return tuple(Fraction(c, z) for c in numerators)


# Row N takes 8 (N + 1) bytes.  Rows of the truncated input states have
# N <= N_CAP = 4096, so the full cache then holds at most 4096 x 4097 doubles,
# about 134 MB; longer Fock or custom inputs raise that bound in proportion.
@lru_cache(maxsize=4096)
def _fock_scatter_array(N: int, M: int) -> np.ndarray:
    """Cached read-only float row of :func:`fock_scatter_pmf`."""
    if M == 1:
        arr = np.zeros(N + 1)
        arr[N] = 1.0
    elif N + M <= EXACT_LIMIT:
        numerators, z = _exact_row(N, M)
        arr = np.array([c / z for c in numerators])
    else:
        k = np.arange(N, 0, -1, dtype=float)  # N - n for n = 0..N-1
        arr = np.cumprod(np.concatenate(([1.0], k / (k + (M - 2)))))
        arr /= arr.sum()
    arr.setflags(write=False)
    return arr


def fock_scatter_pmf(N: int, M: int) -> Pmf:
    """Single-cell count distribution for an N-photon input, in doubles."""
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    return Pmf(_fock_scatter_array(N, M), 0.0)


def approx_scatter_pmf(N: int, M: int, n_max: int) -> Pmf:
    """Small-n Gaussian-exponent approximation of the scattered pmf.

    Expands ``log p_n`` of the exact distribution to second order in ``n``:

        p_n ~ exp(-beta0 * n - beta_c * (n^2 - n)),
        beta0   = ln(1 + (M - 2) / N),
        beta_c  = (M - 2) / (2 N (N + M - 2)),

    normalized over ``0..n_max``.  Valid where the occupation stays small
    against N; requires ``M >= 3`` (for ``M = 2`` the exact pmf is flat and
    the expansion is pointless) and ``n_max <= N``.
    """
    N, M = _as_int("photon number N", N, 0), _as_int("cell count M", M, 1)
    if N < 1:
        raise ValueError(f"approximation needs N >= 1, got N={N}")
    if M < 3:
        raise ValueError(f"approximation needs M >= 3, got M={M}")
    n_max = _as_int("n_max", n_max)
    if not 0 <= n_max <= N:
        raise ValueError(f"n_max must lie in 0..N={N}, got {n_max}")
    beta0 = math.log1p((M - 2) / N)
    beta_c = (M - 2) / (2.0 * N * (N + M - 2))
    n = np.arange(n_max + 1)
    log_w = -beta0 * n - beta_c * (n * (n - 1.0))
    # log-sum-exp about the unique maximum log_w[0] = 0, as log1p of the
    # other weights; the max slot is zeroed, not dropped, so the pairwise sum
    # adds in the same order as scipy.special.logsumexp and the bits agree
    w = np.exp(log_w)
    w[0] = 0.0
    probs = np.exp(log_w - np.log1p(w.sum()))
    return Pmf(probs, 0.0)

"""Scattering arbitrary photon statistics and reading correlations off pmfs.

Scattering is linear in the density matrix, so the single-cell output for
an arbitrary input distribution P(N) is the mixture of the exact N-photon
rows:

    p_out(n) = sum_N P(N) * p_scatter(n | N, M).

Each row is an exact rational rounded once to float (see
:mod:`.combinatorics`; very large ``N + M`` use a float product instead);
only the mixture weights and the final accumulation are doubles.  The
closed-form moment maps that follow from the same counting are provided
alongside, including the order-2 and order-3 correlation laws

    g2_out = 2 * g2_in * M / (M + 1),
    g3_out = 6 * g3_in * M^2 / ((M + 1) * (M + 2)),

which hold exactly for every input state and photon number.
"""

from __future__ import annotations

import numpy as np

from .combinatorics import _fock_scatter_array
from .core import CorrelationReport, Pmf, ZeroMean, pmf_mean

__all__ = [
    "scatter_pmf",
    "cascade_pmf",
    "second_moment_out",
    "correlation_report",
    "g2_out_predicted",
    "g3_out_predicted",
]


def _check_M(M) -> int:
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool):
        raise TypeError(f"cell count M must be an integer, got {M!r}")
    M = int(M)
    if M < 1:
        raise ValueError(f"cell count M must be >= 1, got {M}")
    return M


def scatter_pmf(input_pmf: Pmf, M: int) -> Pmf:
    """Single-cell photon statistics after scattering ``input_pmf`` over M cells.

    Mixes the exact N-photon rows with the input probabilities as weights,
    accumulated in ascending N so results are bit-for-bit reproducible.
    The input's recorded tail has no rows to mix and is carried over into
    the output's ``tail_mass`` unchanged.  ``M = 1`` is the identity: a
    single cell collects every photon.
    """
    M = _check_M(M)
    if M == 1:
        return input_pmf
    out = np.zeros(len(input_pmf))
    for n_in, weight in enumerate(input_pmf.probs):
        if weight != 0.0:
            out[: n_in + 1] += weight * _fock_scatter_array(n_in, M)
    return Pmf(tuple(out), input_pmf.tail_mass)


def cascade_pmf(input_pmf: Pmf, M: int, stages: int) -> Pmf:
    """Feed the single-cell output of each diffuser into the next, ``stages`` times."""
    if not isinstance(stages, (int, np.integer)) or isinstance(stages, bool):
        raise TypeError(f"stages must be an integer, got {stages!r}")
    stages = int(stages)
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    out = input_pmf
    for _ in range(stages):
        out = scatter_pmf(out, M)
    return out


def second_moment_out(input_pmf: Pmf, M: int) -> float:
    """Second moment <n^2> of the scattered single-cell distribution.

    Closed form in the first two input moments:

        <n^2> = 2 <N^2> / (M (M + 1)) + <N> (M - 1) / (M (M + 1)).

    Evaluated from the stored entries (any recorded tail is excluded).
    """
    M = _check_M(M)
    arr = input_pmf.as_array()
    n = np.arange(len(arr))
    m1 = float(n @ arr)
    m2 = float((n * n) @ arr)
    return (2.0 * m2 + (M - 1.0) * m1) / (M * (M + 1.0))


def correlation_report(p: Pmf, order: int = 2) -> CorrelationReport:
    """Mean, factorial moments up to ``order`` and g^(2)..g^(order) of a pmf.

    ``g^(k) = <n(n-1)...(n-k+1)> / <n>^k``.  Raises :class:`ZeroMean` for
    distributions with no photons at all, where the normalization is
    undefined.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise TypeError(f"order must be an integer, got {order!r}")
    order = int(order)
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    mean = pmf_mean(p)
    if mean == 0.0:
        raise ZeroMean("correlations are undefined for a zero-mean distribution")
    arr = p.as_array()
    k = np.arange(len(arr), dtype=float)
    moments = [mean]
    falling = k.copy()
    for j in range(2, order + 1):
        falling *= k - (j - 1)  # hits exactly 0 at k = j - 1, never negative
        moments.append(float(falling @ arr))
    g = tuple(moments[j - 1] / mean**j for j in range(2, order + 1))
    return CorrelationReport(
        mean=mean, factorial_moments=tuple(moments), g=g, order=order
    )


def g2_out_predicted(g2_in: float, M: int) -> float:
    """Map an input g^(2) through one diffuser: ``2 g2 M / (M + 1)``."""
    M = _check_M(M)
    return 2.0 * g2_in * M / (M + 1.0)


def g3_out_predicted(g3_in: float, M: int) -> float:
    """Map an input g^(3) through one diffuser: ``6 g3 M^2 / ((M+1)(M+2))``."""
    M = _check_M(M)
    return 6.0 * g3_in * M * M / ((M + 1.0) * (M + 2.0))

"""Scattering arbitrary photon statistics and reading correlations off pmfs.

Scattering is linear in the density matrix, so the single-cell output for
an arbitrary input distribution P(N) is the mixture of the exact N-photon
rows:

    p_out(n) = sum_N P(N) * p_scatter(n | N, M).

The mixture is evaluated from the exact integer numerators of the rows
along the one route that :mod:`rggstats.combinatorics` picks per stage.
The closed-form moment maps that follow from the same counting are
provided alongside, including the correlation law of every order k

    gk_out = k! * gk_in * M^k / (M (M + 1) ... (M + k - 1)),

so g2_out = 2 g2_in M / (M + 1) and g3_out = 6 g3_in M^2 / ((M + 1)(M + 2)).
It holds exactly for every input state and photon number; each value is
its exact rational rounded once.  Measured
moments are summed in one fixed order, without BLAS, the same on every CPU.
"""

from __future__ import annotations

import math

from .combinatorics import _mixture_array
from .core import CorrelationReport, Pmf, _as_int, _law, _moments, _stored

__all__ = [
    "scatter_pmf",
    "cascade_pmf",
    "correlation_report",
    "gn_out_predicted",
    "g2_out_predicted",
    "g3_out_predicted",
]


def scatter_pmf(input_pmf: Pmf, M: int) -> Pmf:
    """Single-cell photon statistics after scattering ``input_pmf`` over M cells.

    Mixes the exact N-photon rows with the input probabilities as weights,
    along the one route that ``combinatorics._mixture_array`` picks, bit for
    bit reproducible at any ``N + M``; one nonzero weight gives that weight
    times :func:`fock_scatter_pmf`, bit for bit.  The input's recorded tail
    has no rows to mix and is carried over into ``tail_mass`` unchanged.
    ``M = 1`` is the identity: a single cell collects every photon.
    """
    M = _as_int("cell count M", M, 1)
    if M == 1:
        return input_pmf
    return Pmf(_mixture_array(input_pmf.as_array(), M), input_pmf.tail_mass)


def cascade_pmf(input_pmf: Pmf, M: int, stages: int) -> Pmf:
    """Feed the single-cell output of each diffuser into the next, ``stages`` times."""
    stages = _as_int("stages", stages, 1)
    out = input_pmf
    for _ in range(stages):
        out, previous = scatter_pmf(out, M), out
        if out == previous:  # a fixed point: every later stage returns it too
            break
    return out


def correlation_report(p: Pmf, order: int = 2) -> CorrelationReport:
    """Mean, factorial moments up to ``order`` and g^(2)..g^(order) of a pmf.

    ``g^(k) = <n(n-1)...(n-k+1)> / <n>^k``, each moment summed in one fixed
    order and ``<n>^k`` formed by repeated products, so the bits are the
    same on every CPU.  Raises :class:`ZeroMean` for distributions with no
    photons at all, where the normalization is undefined.
    """
    order = _as_int("order", order, 2)
    moments, g = _moments(_stored(p), order)
    return CorrelationReport(float(moments[0]), moments, g, order)


def gn_out_predicted(g_in: float, order: int, M: int) -> float:
    """Map an input g^(k) through one diffuser: ``g_in k! M^k / (M (M+1) ... (M+k-1))``.

    One stage thins the photons binomially with a Beta(1, M - 1)
    transmissivity t, so the k-th factorial moment gains E[t^k] =
    k! / (M (M+1) ... (M+k-1)) and the mean E[t] = 1/M.  A Fraction ``g_in``
    gives the exact Fraction, any other the exact value rounded once, or
    :class:`OverflowError` naming the order past the doubles; a nan ``g_in``
    raises :class:`ValueError` and an infinite one :class:`OverflowError`.
    """
    order = _as_int("order", order, 2)
    M = _as_int("cell count M", M, 1)
    return _law(order, g_in, math.factorial(order) * M ** (order - 1),
                math.prod(range(M + 1, M + order)))


def g2_out_predicted(g2_in: float, M: int) -> float:
    """Map an input g^(2) through one diffuser: ``2 g2 M / (M + 1)``."""
    return gn_out_predicted(g2_in, 2, M)


def g3_out_predicted(g3_in: float, M: int) -> float:
    """Map an input g^(3) through one diffuser: ``6 g3 M^2 / ((M+1)(M+2))``."""
    return gn_out_predicted(g3_in, 3, M)

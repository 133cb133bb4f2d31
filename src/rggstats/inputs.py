"""Photon-number distributions of the standard single-mode input states.

Infinite-support states (coherent, thermal, squeezed coherent) are truncated
at the smallest ``n_max`` whose remaining tail is below ``TAIL_TARGET``,
capped at ``N_CAP`` entries; the cut mass is recorded in ``Pmf.tail_mass``
instead of being renormalized away.  The Poisson tail is summed directly
from its terms, so the production states need numpy and the standard
library only.

The squeezed-coherent distribution is evaluated two independent ways:

* :func:`squeezed_coherent_pmf` - a three-term recurrence on the Fock
  amplitudes, carried as plain complex numbers with a shared binary
  exponent, rescaled by exact powers of two, so that huge displacements
  neither overflow nor underflow mid-recursion.  This is the production
  path.
* :func:`squeezed_oracle_pmf` - brute force: apply the exponentials of
  truncated sparse squeeze and displacement generators to the vacuum
  (``scipy.sparse.linalg.expm_multiply``) and read amplitudes off the state
  vector.  It needs scipy and a basis larger than the support, but it
  contains no recurrence to get wrong, which makes it the cross-check of
  record for the fast path.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .core import (
    Coherent,
    Custom,
    DimTooSmall,
    Fock,
    InputStateSpec,
    Pmf,
    SqueezedCoherent,
    Thermal,
    UnstableEvaluation,
    _as_int,
    _as_mean,
)

__all__ = [
    "TAIL_TARGET",
    "N_CAP",
    "fock_pmf",
    "poisson_pmf",
    "thermal_pmf",
    "squeezed_coherent_pmf",
    "squeezed_oracle_pmf",
    "recommended_oracle_dim",
    "input_pmf",
]

#: Truncation target: keep entries until the remaining tail drops below this.
TAIL_TARGET = 1e-12

#: Hard cap on stored support, whatever the tail target says.
N_CAP = 4096

#: ln 2 to 40 digits.
_LN2 = Fraction("0.6931471805599453094172321214581765680755")


def fock_pmf(n: int) -> Pmf:
    """Point mass at photon number ``n``."""
    return Pmf((0.0,) * _as_int("photon number", n, 0) + (1.0,))


def poisson_pmf(mean: float) -> Pmf:
    """Poissonian photon statistics of a coherent state with the given mean.

    The tail P(N > n) is the direct sum of the terms above ``n``, added from
    the far end, where they are negligible, down to ``n + 1``; the support
    ends at the smallest ``n`` whose tail is below ``TAIL_TARGET``.  A mean
    above ``N_CAP`` has its support clipped there, and its tail is 1 - cdf.
    """
    mean = _as_mean("mean", mean)
    if mean == 0.0:
        return Pmf((1.0,))
    if mean > N_CAP:
        probs = _poisson_terms(mean, N_CAP)
        return Pmf(probs, max(0.0, 1.0 - math.fsum(probs)))
    # beyond mean + 12 sqrt(mean) + 30 the mass is below 1e-29, far under
    # any tail compared with TAIL_TARGET
    probs = _poisson_terms(mean, math.ceil(mean + 12.0 * math.sqrt(mean) + 30.0))
    tails = np.append(np.cumsum(probs[:0:-1])[::-1], 0.0)  # tails[n] = P(N > n)
    n_max = min(int(np.argmax(tails < TAIL_TARGET)), N_CAP)
    return Pmf(probs[: n_max + 1], float(tails[n_max]))


#: Poisson entries below this index are the direct product
#: exp(-mean) * mean**k / k!, a few roundings each.
_POISSON_HEAD = 32
_HEAD_FACTORIALS = np.array([float(math.factorial(k)) for k in range(_POISSON_HEAD)])

#: 1/3, 1/5, ..., 1/17: the bd0 series in v^2 <= 0.01, cut where its terms
#: fall below 1e-16 of the first.
_BD0_SERIES = 1.0 / np.arange(3, 19, 2)


def _poisson_terms(mean: float, n: int) -> np.ndarray:
    """Poisson probabilities p_0..p_n, each within a few 1e-13 relative.

    The head is the direct product while ``exp(-mean)`` is a normal float.
    Above it, Loader's saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000)

        p_k = exp(-stirlerr(k) - bd0(k, mean)) / sqrt(2 pi k),

    with ``stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi)`` from its
    asymptotic series and ``bd0(k, m) = k ln(k/m) + m - k``, adds only small
    terms, where the log form ``k ln(mean) - ln k! - mean`` loses digits to
    cancelling terms of order ``k ln(mean)``.
    """
    probs = np.empty(n + 1)
    head = min(n + 1, _POISSON_HEAD)
    if mean < 700.0:  # exp(-mean) above the subnormal range
        powers = mean ** np.arange(head, dtype=float)
        probs[:head] = math.exp(-mean) * powers / _HEAD_FACTORIALS[:head]
    else:
        probs[:head] = [
            math.exp(k * math.log(mean) - mean - math.lgamma(k + 1.0)) for k in range(head)
        ]
    k = np.arange(head, n + 1, dtype=float)
    kk = k * k
    # at k >= 32 the next series term, 691/360360 / k^11, is below 1e-19
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k
    probs[head:] = np.exp(-stirlerr - _bd0(k, mean)) / np.sqrt(2.0 * math.pi * k)
    return probs


def _bd0(x: np.ndarray, m: float) -> np.ndarray:
    """``x ln(x/m) + m - x`` without cancellation where x is near m.

    Where ``|v| < 0.1``, ``v = (x-m)/(x+m)``, it is the series
    ``(x-m) v + 2x sum_j v^(2j+1) / (2j+1)``.
    """
    d = x - m
    v = d / (x + m)
    near = np.abs(v) < 0.1
    out = x * np.log(x / m) - d
    if near.any():
        x, d, v = x[near], d[near], v[near]
        v2 = v * v
        series = _BD0_SERIES[-1]
        for c in _BD0_SERIES[-2::-1]:
            series = c + v2 * series
        out[near] = d * v + 2.0 * x * v * v2 * series
    return out


def thermal_pmf(mean: float) -> Pmf:
    """Geometric photon statistics p_n = mean^n / (1 + mean)^(n+1).

    The tail beyond ``n`` is exactly ``q**(n+1)`` with
    ``q = mean / (1 + mean)``, which fixes the truncation point in closed
    form.
    """
    mean = _as_mean("mean", mean)
    if mean == 0.0:
        return Pmf((1.0,))
    q = mean / (1.0 + mean)
    # tail(n) = q^(n+1) < TAIL_TARGET  <=>  n + 1 > log(TAIL_TARGET)/log(q)
    n_max = max(0, math.ceil(math.log(TAIL_TARGET) / math.log(q)) - 1)
    while q ** (n_max + 1) >= TAIL_TARGET:
        n_max += 1
    while n_max > 0 and q**n_max < TAIL_TARGET:
        n_max -= 1
    n_max = min(n_max, N_CAP)
    probs = (1.0 / (1.0 + mean)) * q ** np.arange(n_max + 1)
    return Pmf(probs, q ** (n_max + 1))


def squeezed_coherent_pmf(params: SqueezedCoherent) -> Pmf:
    """Photon statistics of D(alpha) S(xi) |0> via a stable recurrence.

    The state is annihilated by ``mu*a + nu*a^dag - gamma`` with
    ``mu = cosh(r)``, ``nu = exp(i*theta)*sinh(r)`` and
    ``gamma = mu*alpha + nu*conj(alpha)``.  Projecting that identity on
    ``<n|`` and dividing by ``mu`` gives the three-term recurrence

        c_{n+1} = (g*c_n - h*sqrt(n)*c_{n-1}) / sqrt(n+1),

    with ``h = nu/mu = exp(i*theta)*tanh(r)`` and ``g = gamma/mu =
    alpha + h*conj(alpha)``, seeded by ``c_0 = mu**-0.5 * exp(w)``,
    ``w = -(|alpha|^2 + h*conj(alpha)^2) / 2``.  Amplitudes are plain
    complex numbers ``v`` whose last two share one binary exponent ``e``,
    ``c_n = v_n * 2**e``, and ``p_n = |v_n|^2 * 2**(2e)``; whenever the pair
    leaves [2**-300, 2**300] both are rescaled by an exact power of two.  So
    amplitudes far below double-precision range (e.g. p_0 for
    |alpha|^2 ~ 10^3) pass through the recursion without flushing to zero,
    and zero amplitudes (the odd entries of a squeezed vacuum) take the same
    arithmetic as the others.  The seed takes ``Re w`` in exact rationals, so
    the entries sum to 1 for the rounded ``alpha`` and ``h`` and the
    ``1 - cum`` stopping rule ends where the true tail does.

    Raises
    ------
    UnstableEvaluation
        If an amplitude exceeds unit magnitude or the running probability
        total exceeds 1 beyond roundoff; a physical state admits neither.
    """
    if not isinstance(params, SqueezedCoherent):
        raise TypeError(f"expected SqueezedCoherent parameters, got {type(params).__name__}")
    h = cmath.exp(1j * params.theta) * math.tanh(params.r)
    alpha = params.alpha_mag * cmath.exp(1j * params.alpha_phase)
    g = alpha + h * alpha.conjugate()

    # c_0 = v * 2**e: Re w is exact for the float alpha and h, so that the
    # entries sum to 1 for them, and e is split off exp(w), which underflows
    # for bright inputs
    ar, ai, hr, hi = map(Fraction, (alpha.real, alpha.imag, h.real, h.imag))
    w_real = -((1 + hr) * ar * ar + (1 - hr) * ai * ai + 2 * hi * ar * ai) / 2
    w_imag = -0.5 * (h * alpha.conjugate() ** 2).imag
    e = round(w_real / _LN2)
    v_prev, v = 0j, cmath.exp(complex(w_real - e * _LN2, w_imag)) / math.sqrt(math.cosh(params.r))

    probs = [math.ldexp(abs(v) ** 2, 2 * e)]
    cum = probs[0]
    n = 0
    while 1.0 - cum >= TAIL_TARGET and n < N_CAP:
        v_prev, v = v, (g * v - h * math.sqrt(n) * v_prev) / math.sqrt(n + 1)
        n += 1
        top = max(abs(v_prev), abs(v))
        if not 2.0**-300 <= top <= 2.0**300:
            k = math.frexp(top)[1]
            v_prev, v, e = v_prev * 2.0**-k, v * 2.0**-k, e + k
        p = math.ldexp(abs(v) ** 2, 2 * e)
        if p > 1.0 + 1e-6:
            raise UnstableEvaluation(f"|c_{n}|^2 = {p!r} exceeds 1; recurrence lost validity")
        probs.append(p)
        cum += p
        if cum > 1.0 + 1e-9:
            raise UnstableEvaluation(
                f"cumulative probability {cum!r} exceeds 1 at n={n}"
            )

    return Pmf(probs, max(0.0, 1.0 - cum))


def squeezed_oracle_pmf(params: SqueezedCoherent, dim: int) -> Pmf:
    """Brute-force squeezed-coherent statistics on a ``dim``-level basis.

    Applies ``S = expm((conj(xi) a^2 - xi a^dag^2)/2)`` and then
    ``D = expm(alpha a^dag - conj(alpha) a)`` to the vacuum, as the action of
    the exponentials of the truncated sparse generators on a vector
    (``scipy.sparse.linalg.expm_multiply``).  Both generators are
    anti-Hermitian, so the truncated evolution stays unitary and truncation
    error shows up in the amplitudes near the top of the basis rather than
    as lost norm - hence the guard below.

    Raises
    ------
    DimTooSmall
        If the top basis state carries squared amplitude above 1e-12 at
        either stage, meaning the basis visibly clipped the state.
    ImportError
        If scipy is missing; it comes with the ``rggstats[test]`` extra.
    """
    try:
        # oracle only; kept off the import path
        from scipy.sparse import diags
        from scipy.sparse.linalg import expm_multiply
    except ImportError as exc:
        raise ImportError(
            "squeezed_oracle_pmf needs scipy: pip install 'rggstats[test]'"
        ) from exc

    if not isinstance(params, SqueezedCoherent):
        raise TypeError(f"expected SqueezedCoherent parameters, got {type(params).__name__}")
    dim = _as_int("dim", dim, 1)
    xi = params.r * cmath.exp(1j * params.theta)
    alpha = params.alpha_mag * cmath.exp(1j * params.alpha_phase)

    lower = diags(np.sqrt(np.arange(1, dim, dtype=complex)), 1, shape=(dim, dim), format="csr")
    raise_ = lower.T.conj().tocsr()

    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    squeezed = expm_multiply(0.5 * (np.conj(xi) * (lower @ lower) - xi * (raise_ @ raise_)), vac)
    psi = expm_multiply(alpha * raise_ - np.conj(alpha) * lower, squeezed)

    top = max(abs(squeezed[-1]) ** 2, abs(psi[-1]) ** 2) if dim > 1 else abs(psi[-1]) ** 2
    if dim > 1 and top > 1e-12:
        raise DimTooSmall(
            f"top basis state holds squared amplitude {top:.3e} > 1e-12; "
            f"increase dim (got {dim})"
        )
    probs = np.abs(psi) ** 2
    return Pmf(probs, max(0.0, 1.0 - float(probs.sum())))


def recommended_oracle_dim(params: SqueezedCoherent) -> int:
    """Basis size that comfortably holds the state for moderate squeezing.

    ``mean + 10*sqrt(mean) + 20`` covers displacement-dominated states; the
    extra term grows the basis for squeezing-dominated states, whose
    number tail decays only like ``tanh(r)**(2n)``.
    """
    mean = params.mean_photons
    dim = mean + 10.0 * math.sqrt(mean) + 20.0
    if params.r > 0:
        # squared amplitudes decay like tanh(r)^2 per two quanta, so covering
        # a 1e-12 tail takes ~ 27.7 / |ln tanh r| extra levels; from r ~ 19.06
        # on, tanh(r) rounds to 1 and no basis below the cap holds the state
        decay = -math.log(math.tanh(params.r))
        dim = max(dim, mean + 27.7 / decay + 20.0) if decay > 0.0 else N_CAP
    return min(N_CAP, math.ceil(dim))


def input_pmf(spec: InputStateSpec) -> Pmf:
    """Photon-number distribution of any supported input state."""
    match spec:
        case Fock(n=n):
            return fock_pmf(n)
        case Coherent(mean=mean):
            return poisson_pmf(mean)
        case Thermal(mean=mean):
            return thermal_pmf(mean)
        case SqueezedCoherent():
            return squeezed_coherent_pmf(spec)
        case Custom(pmf=pmf):
            return pmf
    raise TypeError(f"unsupported input state {spec!r}")

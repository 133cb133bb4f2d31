"""Photon-number distributions of the standard single-mode input states.

Infinite-support states (coherent, thermal, squeezed coherent) are truncated
at the smallest ``n_max`` whose remaining tail is below ``TAIL_TARGET``,
and at ``N_CAP`` at the latest; the cut mass is recorded in ``Pmf.tail_mass``
instead of being renormalized away.  The thermal entries and their tail
are powers of ``mean / (1 + mean)`` from libm's ``pow``, one per step of a
single loop that also applies that rule (glibc picks its ``pow`` by CPU,
and a few entries move by an ulp).  The Poisson entries are a running
product of the ratios ``mean / k`` and their tail is summed directly from
them, so the production states need numpy and the standard library only.

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

#: 2 * 1075 ln 2: a Poisson mean ``N_CAP + d`` with ``d^2 / mean`` above this
#: puts below 2**-1075, half the least subnormal, on all of 0..N_CAP.
_ZERO_CAP_EXPONENT = float(2 * 1075 * _LN2)


def fock_pmf(n: int) -> Pmf:
    """Point mass at photon number ``n``."""
    return Pmf((0.0,) * _as_int("photon number", n, 0) + (1.0,))


def poisson_pmf(mean: float) -> Pmf:
    """Poissonian photon statistics of a coherent state with the given mean.

    The entries are the product of the ratios ``p_k / p_(k-1) = mean / k``,
    run up and down from the mode ``floor(mean)``, where the product starts
    at 1, then divided by their sum over ``0 .. ceil(mean + 12 sqrt(mean) +
    30)``, beyond which the mass is below 1e-29.  Entry ``k`` takes about
    ``2 |k - mean|`` IEEE roundings, and no ``exp``, ``log`` or ``lgamma``
    whose last bits vary with the libm, so it is within a few 1e-15
    relative.  The tail P(N > n) is the direct sum of the entries above
    ``n``, added from the far end, where they are negligible, down to
    ``n + 1``; the support ends at the smallest ``n`` whose tail is below
    ``TAIL_TARGET``, capped at ``N_CAP``.  Where every entry up to ``N_CAP``
    rounds to 0, the pmf is ``N_CAP + 1`` zeros with tail 1.
    """
    mean = _as_mean("mean", mean)
    # Chernoff: each entry up to N_CAP is below exp(-d^2 / (2 mean)) < 2**-1075
    # and rounds to 0; d * (d / mean) cannot overflow where d**2 would
    d = mean - N_CAP
    if d > 0.0 and d * (d / mean) > _ZERO_CAP_EXPONENT:
        return Pmf(np.zeros(N_CAP + 1), 1.0)
    top, mode = math.ceil(mean + 12.0 * math.sqrt(mean) + 30.0), int(mean)
    up = np.cumprod(mean / np.arange(mode + 1, top + 1))
    down = np.cumprod(np.arange(mode, 0, -1) / mean)[::-1]
    terms = np.concatenate((down, [1.0], up))
    probs = terms / terms.sum()
    tails = np.append(np.cumsum(probs[:0:-1])[::-1], 0.0)  # tails[n] = P(N > n)
    n_max = min(int(np.argmax(tails < TAIL_TARGET)), N_CAP)
    return Pmf(probs[: n_max + 1], float(tails[n_max]))


def thermal_pmf(mean: float) -> Pmf:
    """Geometric photon statistics p_n = mean^n / (1 + mean)^(n+1).

    With ``q = mean / (1 + mean)`` the tail beyond ``n`` is exactly
    ``q**(n+1)``.  One loop takes each power ``q**n`` from libm's ``pow``,
    stores ``(1 / (1 + mean)) * q**n`` as entry ``n`` and stops at the first
    power below ``TAIL_TARGET``, or after ``N_CAP + 1`` entries; that power
    is the tail.  Rare entries move by an ulp with the ``pow`` variant that
    glibc picks by CPU.
    """
    mean = _as_mean("mean", mean)
    q, first, probs = mean / (1.0 + mean), 1.0 / (1.0 + mean), []
    while (tail := q ** len(probs)) >= TAIL_TARGET and len(probs) <= N_CAP:
        probs.append(first * tail)
    return Pmf(probs, tail)


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

    probs = [math.ldexp(v.real * v.real + v.imag * v.imag, 2 * e)]  # |v|^2 without libm
    cum = probs[0]
    n = 0
    while 1.0 - cum >= TAIL_TARGET and n < N_CAP:
        v_prev, v = v, (g * v - h * math.sqrt(n) * v_prev) / math.sqrt(n + 1)
        n += 1
        top = max(abs(v_prev), abs(v))
        if not 2.0**-300 <= top <= 2.0**300:
            k = math.frexp(top)[1]
            v_prev, v, e = v_prev * 2.0**-k, v * 2.0**-k, e + k
        p = math.ldexp(v.real * v.real + v.imag * v.imag, 2 * e)
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

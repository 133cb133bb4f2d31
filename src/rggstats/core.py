"""Value types shared across the package.

Everything here is an immutable value object: probability mass functions
over photon number, input-state descriptions, and small report containers.
Functions are pure, here and in every module of the package: no module
keeps state between calls, so the whole package is safe to share between
threads or processes without locking.

Conventions
-----------
* A pmf is stored as a dense tuple ``probs`` indexed by photon number
  ``n = 0, 1, ..., n_max`` together with an explicit ``tail_mass`` holding
  whatever probability lies beyond ``n_max``.  Constructors validate and
  *never* silently renormalize; fixing up an unnormalized histogram is the
  caller's job.
* Probabilities are doubles.  Exact rational arithmetic lives where it is
  needed (``combinatorics``, ``plimit``, the laws, the Monte Carlo
  estimates); by the time numbers reach a :class:`Pmf` they are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "Pmf",
    "Fock",
    "Coherent",
    "Thermal",
    "SqueezedCoherent",
    "Custom",
    "InputStateSpec",
    "CorrelationReport",
    "InvalidPmf",
    "TailTooHeavy",
    "ZeroMean",
    "OutOfRange",
    "DimTooSmall",
    "UnstableEvaluation",
    "NormalizationFailure",
    "pmf_mean",
    "total_variation",
]

#: A pmf is accepted when sum(probs) + tail_mass lands inside 1 +/- this.
PMF_SUM_TOL = 1e-9

#: Moment evaluation refuses pmfs whose recorded tail mass is this large,
#: because the dropped tail would then pollute low-order moments.
TAIL_CEILING = 1e-6


def _as_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a plain int, checked against ``minimum`` when one is given.

    Raises :class:`TypeError` for anything but an int or numpy integer (a
    bool included, so ``True`` never passes for 1) and :class:`ValueError`
    for a value below ``minimum``.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _as_mean(name: str, value) -> float:
    """``value`` as a float; :class:`ValueError` unless it is finite and >= 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _law(order: int, g_in, numerator: int, denominator: int):
    """The law ``g_in * numerator / denominator`` of g^(order), exact: a Fraction for
    a Fraction ``g_in``, else rounded once by :func:`_ratio`, which names the order.
    """
    g_numerator, g_denominator = g_in.as_integer_ratio()
    numerator, denominator = g_numerator * numerator, g_denominator * denominator
    if isinstance(g_in, Fraction):
        return Fraction(numerator, denominator)
    return _ratio("the law's g^({})", order, numerator, denominator)


def _ratio(name: str, order: int, numerator: int, denominator: int) -> float:
    """``numerator / denominator`` rounded once; OverflowError names ``name.format(order)``."""
    try:  # int / int rounds once
        return numerator / denominator
    except OverflowError:
        raise OverflowError(f"{name.format(order)} is too large for a double") from None


class InvalidPmf(ValueError):
    """Raised when numbers claiming to be a pmf fail the invariants."""


class TailTooHeavy(ValueError):
    """Raised when a moment is requested of a pmf with too much unresolved tail."""


class ZeroMean(ValueError):
    """Raised when a normalized correlation needs a positive mean and there is none."""


class OutOfRange(ValueError):
    """Raised when an index lies outside the domain where a formula is defined."""


class DimTooSmall(ValueError):
    """Raised when a truncated-basis computation visibly hits its truncation."""


class UnstableEvaluation(ArithmeticError):
    """Raised when a recurrence produces values a physical state cannot have."""


class NormalizationFailure(ArithmeticError):
    """Raised when an exact rational pmf fails to sum to one (an internal bug)."""


@dataclass(frozen=True)
class Pmf:
    """Photon-number distribution on ``0..n_max`` plus recorded tail mass.

    Parameters
    ----------
    probs : 1-d sequence or array of float
        ``probs[n]`` is the probability of counting exactly ``n`` photons.
        Must be non-empty, finite and non-negative.  Stored as a tuple of
        Python floats.
    tail_mass : float, optional
        Probability mass beyond the last stored entry (default 0).  Kept
        explicit so truncation of infinite-support states loses bookkeeping
        rather than probability.

    Raises
    ------
    InvalidPmf
        If ``probs`` is not 1-d, if any entry is negative or non-finite, or if
        ``sum(probs) + tail_mass`` is farther than ``PMF_SUM_TOL`` from 1.
    """

    probs: tuple[float, ...]
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1:
            raise InvalidPmf(f"pmf entries must form a 1-d sequence, got shape {arr.shape}")
        if arr.size == 0:
            raise InvalidPmf("pmf needs at least the n=0 entry")
        # tolist gives Python floats, which repr as plain numbers
        probs = tuple(arr.tolist())
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))
        if not np.all(np.isfinite(arr)):
            raise InvalidPmf("pmf entries must be finite")
        if np.any(arr < 0.0):
            n = int(np.argmax(arr < 0.0))
            raise InvalidPmf(f"negative probability {probs[n]!r} at n={n}")
        if not math.isfinite(self.tail_mass) or self.tail_mass < 0.0:
            raise InvalidPmf(f"tail_mass must be finite and >= 0, got {self.tail_mass!r}")
        total = float(arr.sum()) + self.tail_mass
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise InvalidPmf(
                f"probabilities sum to {total!r}, outside 1 +/- {PMF_SUM_TOL:g}; "
                "normalize explicitly if this is a histogram"
            )

    @property
    def n_max(self) -> int:
        """Largest photon number with a stored entry."""
        return len(self.probs) - 1

    def as_array(self) -> np.ndarray:
        """Return the stored entries as a fresh float array."""
        return np.asarray(self.probs, dtype=float)

    def __len__(self) -> int:
        return len(self.probs)


# --- input state descriptions -------------------------------------------------

@dataclass(frozen=True)
class Fock:
    """Photon-number eigenstate with exactly ``n`` photons."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_int("photon number", self.n, 0))


@dataclass(frozen=True)
class Coherent:
    """Coherent state, parametrized by its mean photon number |alpha|^2."""

    mean: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _as_mean("mean photon number", self.mean))


@dataclass(frozen=True)
class Thermal:
    """Single-mode thermal (geometric) state with the given mean photon number."""

    mean: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _as_mean("mean photon number", self.mean))


@dataclass(frozen=True)
class SqueezedCoherent:
    """Displaced squeezed vacuum D(alpha) S(xi) |0>.

    ``alpha = alpha_mag * exp(i * alpha_phase)`` is the displacement and
    ``xi = r * exp(i * theta)`` the squeezing parameter, with the squeeze
    operator ``S(xi) = exp((conj(xi) a^2 - xi a^dag^2) / 2)``.

    The mean photon number is ``alpha_mag**2 + sinh(r)**2``, exposed as
    :attr:`mean_photons`.
    """

    alpha_mag: float
    alpha_phase: float
    r: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("alpha_mag", "alpha_phase", "r", "theta"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.alpha_mag < 0.0:
            raise ValueError(f"alpha_mag must be >= 0, got {self.alpha_mag}")
        if self.r < 0.0:
            raise ValueError(f"squeezing magnitude r must be >= 0, got {self.r}")
        if self.r > math.acosh(np.finfo(float).max):  # the pmf divides by sqrt(cosh(r))
            raise ValueError(f"squeezing magnitude r = {self.r}: cosh(r) overflows")

    @property
    def mean_photons(self) -> float:
        return self.alpha_mag**2 + math.sinh(self.r) ** 2


@dataclass(frozen=True)
class Custom:
    """Arbitrary photon-number distribution supplied by the caller."""

    pmf: Pmf

    def __post_init__(self) -> None:
        if not isinstance(self.pmf, Pmf):
            raise TypeError(f"Custom expects a Pmf, got {type(self.pmf).__name__}")


InputStateSpec = Union[Fock, Coherent, Thermal, SqueezedCoherent, Custom]


@dataclass(frozen=True)
class CorrelationReport:
    """Mean, factorial moments and normalized correlations of one pmf.

    ``factorial_moments[i]`` holds ``<n(n-1)...(n-i)>`` (order ``i + 1``),
    so ``factorial_moments[0]`` is the mean again.  ``g[i]`` holds the
    zero-delay correlation of order ``i + 2``:
    ``g^(k) = <n(n-1)...(n-k+1)> / <n>^k``.
    """

    mean: float
    factorial_moments: tuple[float, ...]
    g: tuple[float, ...]
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "factorial_moments", tuple(float(x) for x in self.factorial_moments))
        object.__setattr__(self, "g", tuple(float(x) for x in self.g))
        object.__setattr__(self, "order", _as_int("order", self.order, 2))
        if len(self.factorial_moments) != self.order:
            raise ValueError("need one factorial moment per order 1..order")
        if len(self.g) != self.order - 1:
            raise ValueError("need one correlation per order 2..order")
        if self.factorial_moments[0] != self.mean:
            raise ValueError("first factorial moment must equal the mean")
        if any(x < 0.0 for x in self.factorial_moments) or any(x < 0.0 for x in self.g):
            raise ValueError("moments of a pmf cannot be negative")

    def g_at(self, order: int) -> float:
        """``g^(order)`` for ``2 <= order <= self.order``."""
        if not 2 <= order <= self.order:
            raise OutOfRange(f"order {order} not in 2..{self.order}")
        return self.g[order - 2]

    @property
    def g2(self) -> float:
        return self.g[0]

    @property
    def g3(self) -> float:
        if self.order < 3:
            raise OutOfRange("report was built with order < 3")
        return self.g[1]


# --- pmf operations -----------------------------------------------------------

def _moments(arr: np.ndarray, order: int) -> tuple[list, list]:
    """Factorial moments 1..order and g^(2)..g^(order) of one pmf.

    Moment j is numpy's pairwise sum of ``arr`` times ``n (n-1) ... (n-j+1)``,
    and g^(j) divides it by ``mean**j`` taken as repeated products: no BLAS or
    numpy power, whose kernels the CPU picks.  Raises :class:`ZeroMean` for a
    zero mean at order >= 2; :class:`OverflowError` names the first order
    whose factorial moment or g is not finite.
    """
    n = np.arange(len(arr), dtype=float)
    falling, terms, moments = np.ones_like(n), np.empty_like(arr), []
    with np.errstate(all="ignore"):  # what leaves the doubles is named below
        for j in range(order):
            falling *= n - j  # exactly 0 for every n <= j
            moments.append(np.multiply(falling, arr, out=terms).sum())
        if order > 1 and moments[0] == 0.0:
            raise ZeroMean("correlations are undefined for a zero-mean distribution")
        g, power = [], moments[0]
        for j, moment in enumerate(moments[1:], 2):
            power = power * moments[0]
            g.append(moment / power)
            if not np.isfinite(g[-1]):
                if not np.isfinite(moment):
                    raise OverflowError(f"factorial moment {j} overflows in doubles")
                raise OverflowError(f"g^({j}) is not finite in doubles: the mean is too near 0")
    return moments, g


def _stored(p: Pmf) -> np.ndarray:
    """``p``'s entries; :class:`TailTooHeavy` when its tail would bias a moment."""
    if p.tail_mass >= TAIL_CEILING:
        raise TailTooHeavy(
            f"tail_mass={p.tail_mass!r} >= {TAIL_CEILING:g}; "
            "extend the support before taking moments"
        )
    return p.as_array()


def pmf_mean(p: Pmf) -> float:
    """Mean photon number ``sum_n n * p[n]`` of the stored entries.

    The recorded tail is excluded from the sum, so it must be negligible:
    a tail at or above ``TAIL_CEILING`` raises :class:`TailTooHeavy` rather
    than returning a silently biased number.
    """
    return float(_moments(_stored(p), 1)[0][0])


def total_variation(p: Pmf, q: Pmf) -> float:
    """Total-variation distance: half the L1 distance between two pmfs.

    Supports of different lengths are compared with the shorter one padded
    by zeros; recorded tails contribute like an extra (aggregated) outcome.
    """
    width = max(len(p), len(q))
    a = np.zeros(width)
    b = np.zeros(width)
    a[: len(p)] = p.as_array()
    b[: len(q)] = q.as_array()
    return 0.5 * (float(np.abs(a - b).sum()) + abs(p.tail_mass - q.tail_mass))

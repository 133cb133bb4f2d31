import hashlib
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import pdtrc

from rggstats import (
    Coherent,
    Custom,
    DimTooSmall,
    Fock,
    Pmf,
    SqueezedCoherent,
    Thermal,
    correlation_report,
    fock_pmf,
    input_pmf,
    pmf_mean,
    poisson_pmf,
    recommended_oracle_dim,
    squeezed_coherent_pmf,
    squeezed_oracle_pmf,
    thermal_pmf,
)
from rggstats.inputs import N_CAP, TAIL_TARGET


class TestFock:
    def test_vacuum(self):
        assert fock_pmf(0).probs == (1.0,)

    def test_point_mass(self):
        p = fock_pmf(5)
        assert p.probs == (0.0,) * 5 + (1.0,)
        assert pmf_mean(p) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fock_pmf(-1)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
    def test_non_integer_rejected(self, n):
        # a float or a bool used to be truncated into a point mass at int(n)
        with pytest.raises(TypeError, match="photon number must be an integer"):
            fock_pmf(n)

    def test_numpy_integer_accepted(self):
        assert fock_pmf(np.int64(3)) == fock_pmf(3)


class TestPoisson:
    def test_zero_mean_is_vacuum(self):
        assert poisson_pmf(0.0).probs == (1.0,)

    def test_first_entry(self):
        assert poisson_pmf(1.0).probs[0] == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_entries_against_mpmath(self):
        p = poisson_pmf(8.0)
        with mpmath.workdps(50):
            for n in (0, 1, 8, 20, p.n_max):
                exact = mpmath.exp(-8) * mpmath.mpf(8) ** n / mpmath.factorial(n)
                assert abs(p.probs[n] - float(exact)) < 5e-14 * float(exact) + 1e-300

    def test_truncation_rule_is_minimal(self):
        # n_max is the smallest support end whose tail is below target
        p = poisson_pmf(8.0)
        with mpmath.workdps(60):
            tail = lambda n: float(mpmath.nsum(
                lambda k: mpmath.exp(-8) * mpmath.mpf(8) ** k / mpmath.factorial(k),
                [n + 1, mpmath.inf],
            ))
            assert tail(p.n_max) < TAIL_TARGET
            assert tail(p.n_max - 1) >= TAIL_TARGET
        assert p.tail_mass == pytest.approx(tail(p.n_max), rel=1e-6)

    def test_mean_close_after_truncation(self):
        # truncating at tail < 1e-12 biases the mean by ~ n_max * tail
        assert abs(pmf_mean(poisson_pmf(8.0)) - 8.0) < 1e-9

    @pytest.mark.parametrize("mean", [0.1, 1.0, 8.0, 100.0])
    def test_poissonian_g2_is_one(self, mean):
        # the truncated tail perturbs g2 by ~ tail * n_max^2 / fm2, which is
        # worst for small means where fm2 itself is tiny
        rep = correlation_report(poisson_pmf(mean), 2)
        assert abs(rep.g2 - 1.0) < 1e-8

    def test_support_cap(self):
        p = poisson_pmf(8000.0)
        assert len(p) == N_CAP + 1
        assert p.tail_mass > 0.1  # far too heavy for moments, but bookkept

    # Worst relative error against mpmath of the scipy form
    # exp(xlogy(k, mean) - gammaln(k + 1) - mean), over the entries above
    # 1e-300, measured at 50 digits: the new entries must do no worse.
    SCIPY_FORM_WORST = {
        0.1: 1.3916e-15,
        8.0: 1.2628e-14,
        150.0: 3.7700e-13,
        455.0: 8.6477e-13,
        3000.0: 7.4796e-12,
    }

    @staticmethod
    def _worst_relative_error(mean):
        """Worst relative error of the stored entries above 1e-300, at 50 digits."""
        worst = 0.0
        with mpmath.workdps(50):
            m = mpmath.mpf(mean)
            exact = mpmath.exp(-m)
            for n, x in enumerate(poisson_pmf(mean).probs):
                if n:
                    exact *= m / n
                if exact > mpmath.mpf("1e-300"):
                    worst = max(worst, float(abs(x - exact) / exact))
        return worst

    @pytest.mark.parametrize("mean", sorted(SCIPY_FORM_WORST))
    def test_entries_no_less_accurate_than_scipy_form(self, mean):
        assert self._worst_relative_error(mean) <= self.SCIPY_FORM_WORST[mean]

    # the ratio product measured 2.1e-16 and 2.8e-16 at means 0.1 and 1, and
    # 5.7e-16 to 2.5e-15 from mean 8 to 4000, where the saddle-point form it
    # replaced measured 6.2e-15 to 3.9e-13
    @pytest.mark.parametrize(
        "mean, bound",
        [(0.1, 5e-16), (1.0, 5e-16), *((m, 5e-15) for m in (8.0, 150.0, 455.0, 3000.0, 4000.0))],
    )
    def test_entries_within_a_few_ulps(self, mean, bound):
        assert self._worst_relative_error(mean) <= bound

    @pytest.mark.parametrize("mean", [1e10, 1e300, sys.float_info.max])
    def test_astronomical_mean_is_all_tail(self, mean):
        # every entry up to N_CAP rounds to 0; the window of the ratio
        # product would not fit in memory, or not in a float
        p = poisson_pmf(mean)
        assert p.probs == (0.0,) * (N_CAP + 1)
        assert p.tail_mass == 1.0

    @staticmethod
    def _pdtrc_support_end(mean):
        # the truncation rule on scipy's Poisson survival function
        n = math.ceil(mean + 7.03 * math.sqrt(mean) + 8.0)
        while pdtrc(n, mean) >= TAIL_TARGET:
            n += 1
        while n > 0 and pdtrc(n - 1, mean) < TAIL_TARGET:
            n -= 1
        return min(n, N_CAP)

    GRID = [*np.geomspace(1e-3, 5000.0, 216), 8000.0]

    def test_support_end_matches_pdtrc_search(self):
        got = [poisson_pmf(m).n_max for m in self.GRID]
        assert got == [self._pdtrc_support_end(m) for m in self.GRID]

    def test_tail_mass_matches_pdtrc(self):
        for m in self.GRID:
            p = poisson_pmf(m)
            assert p.tail_mass == pytest.approx(pdtrc(p.n_max, m), rel=1e-9, abs=0.0)


class TestThermal:
    def test_zero_mean_is_vacuum(self):
        assert thermal_pmf(0.0).probs == (1.0,)

    def test_mean_one_exact_powers(self):
        p = thermal_pmf(1.0)
        for n in range(0, 20):
            assert p.probs[n] == 0.5 ** (n + 1)

    @pytest.mark.parametrize("mean", [1e-9, 0.5, 3.0, 26.5, 250.0, 1e6])
    def test_truncation_rule_is_minimal(self, mean):
        # every entry and the tail are Python's float powers, whatever the CPU;
        # the last two means hit the cap
        p = thermal_pmf(mean)
        q = mean / (1.0 + mean)
        assert p.probs == tuple((1.0 / (1.0 + mean)) * q**n for n in range(p.n_max + 1))
        assert p.tail_mass == q ** (p.n_max + 1)
        assert q ** (p.n_max + 1) < TAIL_TARGET <= q**p.n_max or p.n_max == N_CAP

    @pytest.mark.parametrize("mean", [0.5, 1.0, 8.0, 50.0, 100.0])
    def test_thermal_g2_is_two(self, mean):
        # tail < 1e-12 trimming leaves a ~1e-9 dent in the second moment
        rep = correlation_report(thermal_pmf(mean), 2)
        assert abs(rep.g2 - 2.0) < 2e-9

    @pytest.mark.parametrize("mean", [0.5, 1.0, 8.0])
    def test_thermal_g3_is_six(self, mean):
        rep = correlation_report(thermal_pmf(mean), 3)
        assert abs(rep.g3 - 6.0) < 1e-7


class TestSqueezedCoherent:
    @pytest.mark.parametrize("mean", [4, 100, 400, 900, 1600])
    def test_no_squeezing_reduces_to_poisson(self, mean):
        state = SqueezedCoherent(math.sqrt(mean), 0.3, 0.0, 0.0)
        fast = squeezed_coherent_pmf(state)
        pois = poisson_pmf(float(mean))
        width = min(len(fast), len(pois))
        gap = np.abs(fast.as_array()[:width] - pois.as_array()[:width]).max()
        assert gap < 1e-12
        # the sum of the entries reaches 1 - TAIL_TARGET where Poisson's does
        assert abs(len(fast) - len(pois)) <= 1

    def test_vacuum(self):
        assert squeezed_coherent_pmf(SqueezedCoherent(0.0, 0.0, 0.0, 0.0)).probs == (1.0,)

    def test_squeezed_vacuum_parity(self):
        p = squeezed_coherent_pmf(SqueezedCoherent(0.0, 0.0, 0.8, 1.1))
        assert all(p.probs[n] == 0.0 for n in range(1, len(p), 2))
        assert all(p.probs[n] > 0.0 for n in range(0, min(len(p), 30), 2))

    def test_squeezed_vacuum_closed_form(self):
        r = 0.8
        p = squeezed_coherent_pmf(SqueezedCoherent(0.0, 0.0, r, 0.4))
        for m in range(0, 8):
            exact = (
                math.comb(2 * m, m)
                * math.tanh(r) ** (2 * m)
                / (4**m * math.cosh(r))
            )
            assert p.probs[2 * m] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "state",
        [
            SqueezedCoherent(1.0, 0.0, 0.5, 0.0),
            SqueezedCoherent(2.5, 1.2, 1.0, 2.0),
            SqueezedCoherent(0.5, 0.0, 1.5, 4.5),
            SqueezedCoherent(4.0, 2.0, 0.3, 1.0),
        ],
    )
    def test_mean_matches_parameters(self, state):
        assert abs(pmf_mean(squeezed_coherent_pmf(state)) - state.mean_photons) < 1e-6

    def test_huge_displacement_survives_below_double_range(self):
        # p_0 = exp(-900): far below double range, yet the recurrence
        # must pass through it and recover the bulk near n ~ 900
        state = SqueezedCoherent(30.0, 0.0, 0.0, 0.0)
        p = squeezed_coherent_pmf(state)
        assert p.probs[0] == 0.0  # underflows as a probability, harmlessly
        assert abs(pmf_mean(p) - 900.0) < 1e-6 * 900.0
        # the support ends where the tail drops below target, not at N_CAP
        assert len(p) <= 1121
        assert p.tail_mass < TAIL_TARGET

    def test_bright_state_pinned(self):
        # |v|^2 is a sum of IEEE products, not libm's hypot and pow, whose
        # variants glibc picks by CPU: at |alpha| = 13.6 they moved these bits
        p = squeezed_coherent_pmf(SqueezedCoherent(13.6, 0.0, 1.01, 3.1))
        digest = hashlib.sha256(repr((p.probs, p.tail_mass)).encode()).hexdigest()
        assert digest == "e295a4e86ff17cc98094857d6b1ee88d91ebb665e262a03d9fe0121b3080c664"


def _recurrence_at_50_digits(state, count):
    """p_0..p_{count-1} of the annihilator recurrence in 50-digit arithmetic.

    The same three-term recurrence as the production path, in its undivided
    form ``mu*sqrt(n+1)*c_{n+1} = gamma*c_n - nu*sqrt(n)*c_{n-1}``, from
    the same float parameters.
    """
    with mpmath.workdps(50):
        mu = mpmath.cosh(state.r)
        nu = mpmath.expj(state.theta) * mpmath.sinh(state.r)
        alpha = state.alpha_mag * mpmath.expj(state.alpha_phase)
        gamma = mu * alpha + nu * mpmath.conj(alpha)
        w = -abs(alpha) ** 2 / 2 - nu * mpmath.conj(alpha) ** 2 / (2 * mu)
        prev, c = 0, mpmath.exp(w) / mpmath.sqrt(mu)
        probs = [abs(c) ** 2]
        for n in range(count - 1):
            prev, c = c, (gamma * c - nu * mpmath.sqrt(n) * prev) / (mu * mpmath.sqrt(n + 1))
            probs.append(abs(c) ** 2)
    return probs


def _worst_relative_error(state):
    """Worst relative error of the entries above 1e-300 of the production pmf."""
    probs = squeezed_coherent_pmf(state).probs
    worst = 0.0
    with mpmath.workdps(50):
        for x, exact in zip(probs, _recurrence_at_50_digits(state, len(probs))):
            if exact > 1e-300:
                worst = max(worst, float(abs(x - exact) / exact))
    return worst


def _random_states(count, seed):
    rng = random.Random(seed)
    return {
        f"random{i}": SqueezedCoherent(
            15.0 * rng.random(), 2 * math.pi * rng.random(),
            1.6 * rng.random(), 2 * math.pi * rng.random(),
        )
        for i in range(count)
    }


class TestSqueezedAccuracy:
    """Entries of the recurrence against the same recurrence at 50 digits."""

    # pure displacements, where the error of the amplitude representation
    # itself dominates, with the worst relative error of the previous
    # (log magnitude, unit phase) recurrence on each
    DISPLACEMENTS = {
        "displacement400": (SqueezedCoherent(20.0, 0.0, 0.0, 0.0), 6.6552e-13),
        "displacement900": (SqueezedCoherent(30.0, 0.0, 0.0, 0.0), 1.7864e-11),
        "displacement1600": (SqueezedCoherent(40.0, 0.0, 0.0, 0.0), 1.9812e-11),
    }
    GRID = {
        # the middle of the squeezed windows of perfbench's bright_scatter
        "bright11.1": SqueezedCoherent(11.1, 0.0, 0.91, 0.8),
        "bright8.1": SqueezedCoherent(8.1, 0.0, 0.51, 1.6),
        "bright13.6": SqueezedCoherent(13.6, 0.0, 1.01, 3.1),
        "bright9.1": SqueezedCoherent(9.1, 0.0, 0.56, 2.4),
        "bright12.1": SqueezedCoherent(12.1, 0.0, 1.11, 3.1),
        **{name: state for name, (state, _) in DISPLACEMENTS.items()},
        **{f"vacuum{r}": SqueezedCoherent(0.0, 0.0, r, 0.7) for r in (0.5, 1.0, 1.5, 2.0, 2.5)},
        **_random_states(30, seed=9),
    }
    # worst of the previous recurrence over the grid (on displacement1600),
    # and over the grid without the pure displacements (on vacuum2.5);
    # this recurrence measured 1.03e-13 on both, at vacuum2.5
    PREVIOUS_WORST = 1.9813e-11
    PREVIOUS_WORST_SQUEEZED = 1.4813e-13

    def test_worst_error_over_the_grid(self):
        errors = {name: _worst_relative_error(state) for name, state in self.GRID.items()}
        assert max(errors.values()) <= self.PREVIOUS_WORST
        squeezed = [e for name, e in errors.items() if name not in self.DISPLACEMENTS]
        assert max(squeezed) <= self.PREVIOUS_WORST_SQUEEZED
        for name, (_, previous) in self.DISPLACEMENTS.items():
            assert errors[name] < previous, name


class TestSqueezedOracle:
    @pytest.mark.parametrize(
        "state",
        [
            SqueezedCoherent(0.0, 0.0, 0.0, 0.0),
            SqueezedCoherent(1.0, 0.0, 0.0, 0.0),
            SqueezedCoherent(2.0, 0.7, 0.5, 1.3),
            SqueezedCoherent(0.0, 0.0, 1.2, 2.6),
            SqueezedCoherent(3.0, 1.0, 1.0, 5.0),
        ],
    )
    def test_recurrence_matches_matrix_exponentials(self, state):
        fast = squeezed_coherent_pmf(state)
        dim = max(recommended_oracle_dim(state), len(fast) + 48)
        slow = squeezed_oracle_pmf(state, dim)
        width = min(len(fast), len(slow))
        gap = np.abs(fast.as_array()[:width] - slow.as_array()[:width]).max()
        assert gap < 1e-8

    def test_oracle_poisson_cross_check(self):
        slow = squeezed_oracle_pmf(SqueezedCoherent(1.0, 0.0, 0.0, 0.0), 64)
        pois = poisson_pmf(1.0)
        width = min(len(slow), len(pois))
        assert np.abs(slow.as_array()[:width] - pois.as_array()[:width]).max() < 1e-12

    def test_dim_too_small_is_detected(self):
        with pytest.raises(DimTooSmall):
            squeezed_oracle_pmf(SqueezedCoherent(5.0, 0.0, 0.0, 0.0), 12)

    @pytest.mark.parametrize("dim", [30.7, 30.0, True])
    def test_non_integer_dim_rejected(self, dim):
        # 30.7 used to run on 30 levels, True on a 1-level basis
        with pytest.raises(TypeError, match="dim must be an integer"):
            squeezed_oracle_pmf(SqueezedCoherent(1.0, 0.0, 0.0, 0.0), dim)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            squeezed_oracle_pmf(SqueezedCoherent(1.0, 0.0, 0.0, 0.0), dim)

    def test_recommended_dim_holds_the_state(self):
        state = SqueezedCoherent(2.0, 0.0, 1.0, 0.7)
        squeezed_oracle_pmf(state, recommended_oracle_dim(state))  # must not raise

    @pytest.mark.parametrize("r", [19.1, 20.0, 100.0])
    def test_recommended_dim_where_tanh_rounds_to_one(self, r):
        # -log(tanh r) is 0 there; it used to raise ZeroDivisionError
        assert recommended_oracle_dim(SqueezedCoherent(0.0, 0.0, r, 0.0)) == N_CAP
        assert recommended_oracle_dim(SqueezedCoherent(3.0, 0.5, r, 1.0)) == N_CAP

    @pytest.mark.parametrize(
        "alpha_mag, r, dim",
        [(0.0, 0.0, 20), (0.0, 0.1, 33), (0.0, 0.5, 57), (0.0, 1.0, 124), (0.0, 2.0, 790),
         (3.0, 0.0, 59), (3.0, 0.5, 66), (3.0, 2.0, 799), (0.0, 5.0, N_CAP),
         (3.0, 19.0, N_CAP), (0.0, 19.05, N_CAP)],
    )
    def test_recommended_dim_below_the_rounding_point(self, alpha_mag, r, dim):
        assert recommended_oracle_dim(SqueezedCoherent(alpha_mag, 0.0, r, 0.0)) == dim


class TestInputDispatch:
    def test_fock(self):
        assert input_pmf(Fock(3)) == fock_pmf(3)

    def test_coherent(self):
        assert input_pmf(Coherent(2.5)) == poisson_pmf(2.5)

    def test_thermal(self):
        assert input_pmf(Thermal(1.5)) == thermal_pmf(1.5)

    def test_squeezed(self):
        state = SqueezedCoherent(1.0, 0.0, 0.5, 0.3)
        assert input_pmf(state) == squeezed_coherent_pmf(state)

    def test_custom_passthrough(self):
        p = Pmf((0.4, 0.6))
        assert input_pmf(Custom(p)) is p

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            input_pmf("thermal")

    @pytest.mark.parametrize(
        "squeezed", [squeezed_coherent_pmf, lambda state: squeezed_oracle_pmf(state, 20)],
        ids=["recurrence", "oracle"],
    )
    def test_squeezed_rejects_other_states(self, squeezed):
        with pytest.raises(TypeError, match="expected SqueezedCoherent parameters, got Coherent"):
            squeezed(Coherent(1.0))

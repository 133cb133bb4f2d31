import hashlib
import inspect
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rggstats import (
    InvalidPmf,
    NormalizationFailure,
    coherent_limit_pmf,
    correlation_report,
    fock_pn_limit_float64,
    fock_pn_limit_fractions,
    fock_pn_limit_pmf,
    fock_scatter_pmf,
    gn_limit,
    thermal_pmf,
    total_variation,
)
from rggstats import plimit
from rggstats.plimit import _limit_numerators


def _alternating_sum_numerators(N, M):
    """Reference: the defining alternating sum, O(N^2) exact integer steps.

    p_n = (N!/n!) * sum_{k=n..N} (-1)^(k-n) k! / ((N-k)! (k-n)! M^k), with
    the sum regrouped over j = k - n into integer coefficients
    c_j = (N!/(N-n-j)!) * C(n+j, j), so that p_n = s_n / M**N.
    """
    pow_m = [1] * (N + 1)
    for i in range(1, N + 1):
        pow_m[i] = pow_m[i - 1] * M
    numerators = []
    falling = 1  # N! / (N - n)!
    for n in range(N + 1):
        if n > 0:
            falling *= N - n + 1
        c = falling
        s = c * pow_m[N - n]
        sign = 1
        for j in range(1, N - n + 1):
            c = c * (N - n - j + 1) * (n + j) // j
            sign = -sign
            s += sign * c * pow_m[N - n - j]
        numerators.append(s)
    return tuple(numerators), pow_m[N]


class TestCoherentLimit:
    def test_vacuum(self):
        assert coherent_limit_pmf(0.0, 5).probs == (1.0,)

    def test_equals_thermal_with_reduced_mean(self):
        assert coherent_limit_pmf(50.0, 5) == thermal_pmf(10.0)

    def test_mean_M_gives_unit_thermal(self):
        p = coherent_limit_pmf(8.0, 8)
        for n in range(10):
            assert p.probs[n] == 0.5 ** (n + 1)

    def test_g2_is_thermal(self):
        rep = correlation_report(coherent_limit_pmf(40.0, 10), 2)
        assert abs(rep.g2 - 2.0) < 2e-9


class TestMomentMaps:
    def test_gn_limit_values(self):
        assert gn_limit(2.0, 2) == 4.0  # thermal in, one deep stage
        assert gn_limit(1.0, 3) == 6.0
        assert gn_limit(1.0, 2, 3) == 8.0  # three stages: 2^3

    def test_gn_limit_past_the_doubles(self):
        # 180! alone leaves the doubles; the value is rounded once, or named
        assert gn_limit(1e-200, 180) == float(math.factorial(180) * Fraction(1e-200))
        with pytest.raises(OverflowError, match=r"g\^\(100\)"):
            gn_limit(2.0, 100, 3)

    def test_gn_limit_at_any_depth(self):
        # (order!)**stages >= 2**2098 takes any nonzero double past the doubles,
        # so a deeper cascade is refused, or gives 0, without forming the power
        assert gn_limit(5e-324, 2, 2097) == 2.0**1023
        for g, stages in ((5e-324, 2098), (2.0, 2098), (1e-300, 10**30)):
            with pytest.raises(OverflowError, match=r"g\^\(2\)"):
                gn_limit(g, 2, stages)
        assert gn_limit(0.0, 3, 10**30) == 0.0
        with pytest.raises(ValueError, match="NaN"):
            gn_limit(math.nan, 2, 10**30)
        with pytest.raises(OverflowError, match="Infinity"):
            gn_limit(-math.inf, 2, 10**30)

    def test_validation(self):
        with pytest.raises(ValueError):
            gn_limit(1.0, 1)
        with pytest.raises(ValueError):
            gn_limit(1.0, 2, 0)


class TestFockLimitExact:
    @pytest.mark.parametrize("M", [1, 2, 3, 10, 1000])
    def test_single_photon_closed_form(self, M):
        assert fock_pn_limit_fractions(1, M) == (
            Fraction(M - 1, M),
            Fraction(1, M),
        )

    @pytest.mark.parametrize("M", [2, 3, 10, 97])
    def test_two_photon_closed_form(self, M):
        assert fock_pn_limit_fractions(2, M) == (
            1 - Fraction(2, M) + Fraction(2, M**2),
            Fraction(2, M) - Fraction(4, M**2),
            Fraction(2, M**2),
        )

    def test_example_value(self):
        assert float(fock_pn_limit_fractions(2, 10)[2]) == 0.02

    def test_zero_beyond_input_photon_number(self):
        # a passive medium creates no photons: the support ends at n = N
        assert len(fock_pn_limit_fractions(3, 7)) == 4
        assert fock_pn_limit_pmf(3, 7).n_max == 3

    @pytest.mark.parametrize("N,M", [(5, 5), (17, 23), (60, 200), (120, 60)])
    def test_normalization_exact(self, N, M):
        assert sum(fock_pn_limit_fractions(N, M)) == 1

    @pytest.mark.parametrize("N,M", [(6, 3), (10, 7), (60, 60), (50, 13)])
    def test_factorial_moment_law_exact(self, N, M):
        row = fock_pn_limit_fractions(N, M)
        for k in range(1, min(N, 6) + 1):
            fm = sum(
                Fraction(math.factorial(n), math.factorial(n - k)) * p
                for n, p in enumerate(row)
                if n >= k
            )
            assert fm == Fraction(
                math.factorial(N), math.factorial(N - k)
            ) * Fraction(math.factorial(k), M**k)

    def test_negative_outside_validity_domain(self):
        assert fock_pn_limit_fractions(2, 1)[1] == -2  # reported, not clipped

    def test_pmf_flags_negative_entries(self):
        with pytest.raises(InvalidPmf, match=r"not a distribution at N=2, M=1: p_1 = -2\.0 < 0"):
            fock_pn_limit_pmf(2, 1)

    @pytest.mark.parametrize(
        "N, M",
        # the last four overflow the doubles
        [(2, 1), (5, 2), (500, 300), (2000, 1000), (170, 1), (171, 1), (172, 2), (300, 2)],
    )
    def test_pmf_names_the_lowest_entry(self, N, M):
        # the message names the first lowest entry of the exact numerators
        numerators, denominator = _limit_numerators(N, M)
        lowest = min(numerators)
        if -lowest < denominator << 1023:
            value = repr(lowest / denominator)
        else:  # 17 digits, rounded half to even, and a decimal exponent
            exponent = len(str(-lowest // denominator)) - 1
            digits = str(round(Fraction(-lowest, denominator * 10 ** (exponent - 16))))
            value = f"-{digits[0]}.{digits[1:]}e+{exponent}"
        expected = (
            f"deep-cascade form is not a distribution at N={N}, M={M}: "
            f"p_{numerators.index(lowest)} = {value} < 0; "
            "raw values available via fock_pn_limit_fractions"
        )
        with pytest.raises(InvalidPmf) as failure:
            fock_pn_limit_pmf(N, M)
        assert str(failure.value) == expected

    def test_invalid_row_runs_the_recurrence_once(self, monkeypatch):
        # the message comes from the pass that found the sign, not the products
        with pytest.raises(InvalidPmf) as first:
            fock_pn_limit_pmf(500, 300)
        passes = []
        scaled = plimit._scaled_numerators

        def counted(N, M):
            passes.append((N, M))
            return scaled(N, M)

        def refuse(N, M):
            raise AssertionError("every product formed to name one entry")

        monkeypatch.setattr(plimit, "_scaled_numerators", counted)
        monkeypatch.setattr(plimit, "_limit_numerators", refuse)
        with pytest.raises(InvalidPmf) as second:
            fock_pn_limit_pmf(500, 300)
        assert str(second.value) == str(first.value)
        assert passes == [(500, 300)]

    def test_pmf_matches_fractions(self):
        p = fock_pn_limit_pmf(40, 80)
        exact = fock_pn_limit_fractions(40, 80)
        assert p.probs == tuple(float(f) for f in exact)

    def test_g2_of_limit_pmf(self):
        # deep-cascade Fock statistics carry g2 = 2 (1 - 1/N)
        rep = correlation_report(fock_pn_limit_pmf(60, 200), 2)
        assert abs(rep.g2 - 2.0 * (1.0 - 1.0 / 60)) < 1e-12


class TestRecurrenceAgainstAlternatingSum:
    @pytest.mark.parametrize("M", [1, 2, 3, 5, 7, 10, 50, 60, 200])
    def test_equal_numerators_small_N(self, M):
        for N in range(61):
            assert _limit_numerators(N, M) == _alternating_sum_numerators(N, M), N

    def test_equal_numerators_large_N(self):
        assert _limit_numerators(300, 600) == _alternating_sum_numerators(300, 600)

    @pytest.mark.parametrize(
        "N, M, digest",
        [
            (540, 1612, "c1efa9f141669f280df85a1550a8f3da5f438e6606e73c285d8d82ae64670206"),
            (2000, 2000, "d957a574860c869a7e6652745e53b5a08bbf3211abe53b80b11b0167e70d814e"),
        ],
    )
    def test_pinned_numerators(self, N, M, digest):
        # recorded from the earlier upward K_n recurrence, started by a Horner sum
        numerators, denominator = _limit_numerators(N, M)
        assert denominator == M**N
        assert hashlib.sha256(",".join(map(hex, numerators)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("evaluate", [fock_pn_limit_pmf, fock_pn_limit_fractions])
    def test_corrupted_w_fails_the_horner_check(self, monkeypatch, evaluate):
        # a copy of the recurrence with w_(N-7) off by one, put in its place
        source = inspect.getsource(plimit._scaled_numerators)
        corrupted = source.replace("(N + M - 2 * n) * w\n", "(N + M - 2 * n) * w + (n == N - 6)\n")
        assert corrupted != source
        namespace = dict(vars(plimit))
        exec(corrupted, namespace)
        monkeypatch.setattr(plimit, "_scaled_numerators", namespace["_scaled_numerators"])
        with pytest.raises(NormalizationFailure, match=r"N=40, M=80 sums to \d+/\d+ != 1"):
            evaluate(40, 80)

    def test_normalization_and_mean_exact_at_large_N(self):
        N = M = 2000
        numerators, denominator = _limit_numerators(N, M)
        assert denominator == M**N
        assert sum(numerators) == denominator
        assert sum(n * s for n, s in enumerate(numerators)) == N * M ** (N - 1)


@lru_cache(maxsize=None)
def _fraction_floats(N, M):
    # int / int true division rounds correctly, as float(Fraction) does,
    # without Fraction's gcd per entry
    numerators, denominator = _limit_numerators(N, M)
    return tuple(s / denominator for s in numerators)


# p_n = 5e-324, the smallest subnormal, sits at these n; a zero cut one bit
# too eager (bits < -1074) rounded each of them to 0.0
_SMALLEST_SUBNORMAL_AT = {(526, 1131): 475, (661, 2438): 410, (430, 1378): 385, (564, 2000): 403}


class TestSharedDenominatorRounding:
    @pytest.mark.parametrize(
        "N, M", [*_SMALLEST_SUBNORMAL_AT, (2000, 2000), (540, 1612), (1, 1)]
    )
    def test_bit_identical_to_the_exact_fractions(self, N, M):
        assert fock_pn_limit_pmf(N, M).probs == _fraction_floats(N, M)

    def test_cases_cover_the_zero_cut_and_the_subnormals(self):
        for (N, M), n in _SMALLEST_SUBNORMAL_AT.items():
            assert _fraction_floats(N, M)[n] == 5e-324
        row = _fraction_floats(2000, 2000)
        assert row.count(0.0) > 1000  # the bit-length cut
        assert any(0.0 < p < 2.0**-1022 for p in row)  # the subnormal fallback
        assert _fraction_floats(1, 1)[0] == 0.0  # an exact zero, p_0 = 0

    def test_a_subnormal_result_is_rounded_once(self):
        # w / 2**1082 = (2**51 + 1/2 + 2**-8) * 2**-1074 rounds up to odd;
        # rounded to 53 bits first, w drops its last bit, and scaling that
        # down would meet an exact tie and round it to even
        w, denominator = 2**59 + 2**7 + 1, 2**1082
        assert plimit._rounded([w], 0, denominator) == [(2**51 + 1) * 5e-324]
        assert w / denominator == (2**51 + 1) * 5e-324

    @pytest.mark.parametrize("top", [8, 56])
    @pytest.mark.parametrize("N, M", [(526, 1131), (540, 1612), (2000, 2000)])
    def test_narrow_tops_take_the_exact_fallback_with_the_same_bits(
        self, monkeypatch, top, N, M
    ):
        # 8-bit tops bracket every entry far wider than an ulp, so each
        # nonzero entry takes the exact division; with 56-bit tops about a
        # third do, and the rest are decided by brackets barely inside an ulp
        monkeypatch.setattr(plimit, "_TOP_BITS", top)
        assert fock_pn_limit_pmf(N, M).probs == _fraction_floats(N, M)


_deep_limit_cases = st.integers(0, 200).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(max(N, 1), 10**4))
)
_derandomized = settings(max_examples=20, deadline=None, derandomize=True)


class TestDeepLimitProperties:
    """The deep limit where it is a distribution: N <= 200, N <= M <= 10**4."""

    @given(_deep_limit_cases)
    @_derandomized
    def test_pmf_is_the_floats_of_the_fractions(self, case):
        assert fock_pn_limit_pmf(*case).probs == tuple(
            float(f) for f in fock_pn_limit_fractions(*case)
        )

    @given(_deep_limit_cases)
    @_derandomized
    def test_numerators_sum_to_M_to_the_N(self, case):
        N, M = case
        numerators, denominator = _limit_numerators(N, M)
        assert denominator == M**N
        assert sum(numerators) == M**N

    @given(_deep_limit_cases)
    @_derandomized
    def test_entries_are_nonnegative(self, case):
        assert min(fock_pn_limit_fractions(*case)) >= 0
        assert min(fock_pn_limit_pmf(*case).probs) >= 0.0

    @given(_deep_limit_cases)
    @_derandomized
    def test_factorial_moments_follow_the_k_factorial_law(self, case):
        N, M = case
        row = fock_pn_limit_fractions(N, M)
        for k in (1, 2, 3):
            moment = sum(math.perm(n, k) * p for n, p in enumerate(row))
            assert moment == Fraction(math.perm(N, k) * math.factorial(k), M**k)


class TestLimitVsSingleStage:
    def test_tv_decreases_with_more_cells(self):
        tvs = [
            total_variation(fock_scatter_pmf(60, M), fock_pn_limit_pmf(60, M))
            for M in (60, 100, 200, 400)
        ]
        assert all(a > b for a, b in zip(tvs, tvs[1:]))
        assert tvs[0] < 0.01

    def test_single_photon_is_already_converged(self):
        assert total_variation(fock_scatter_pmf(1, 9), fock_pn_limit_pmf(1, 9)) == 0.0


@pytest.mark.parametrize("evaluate", [fock_pn_limit_float64])
class TestPhotonIndexValidation:
    def test_negative_n_rejected(self, evaluate):
        with pytest.raises(ValueError, match="n must be >= 0"):
            evaluate(5, 4, -1)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_non_integer_n_rejected(self, evaluate, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            evaluate(5, 4, n)

    def test_n_above_N_is_zero(self, evaluate):
        assert evaluate(5, 4, 6) == 0.0

    def test_numpy_integer_n_accepted(self, evaluate):
        exact = float(fock_pn_limit_fractions(5, 4)[2])
        assert evaluate(5, 4, np.int64(2)) == pytest.approx(exact)


class TestFloat64Transcription:
    def test_faithful_where_doubles_suffice(self):
        for N, M in [(8, 8), (30, 100)]:
            exact = fock_pn_limit_fractions(N, M)
            for n in range(N + 1):
                naive = fock_pn_limit_float64(N, M, n)
                assert abs(naive - float(exact[n])) < 1e-12

    def test_breaks_down_at_large_N(self):
        # factorials overflow doubles at 171!; the exact path is unimpressed
        exact = fock_pn_limit_fractions(200, 1000)
        gaps = np.array(
            [abs(fock_pn_limit_float64(200, 1000, n) - float(exact[n])) for n in range(0, 21)]
        )
        assert not np.all(gaps <= 1e-6)  # nan or huge somewhere

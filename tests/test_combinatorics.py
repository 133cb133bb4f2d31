import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rggstats import (
    NormalizationFailure,
    Pmf,
    approx_scatter_pmf,
    config_count,
    fock_scatter_fractions,
    fock_scatter_pmf,
    pmf_mean,
    scatter_pmf,
)
from rggstats import combinatorics
from rggstats.combinatorics import _fock_scatter_array


def enumerate_marginal(N, M):
    """Brute-force oracle: list every occupation pattern, tally cell 0."""
    counts = [0] * (N + 1)
    total = 0
    for bars in itertools.combinations(range(N + M - 1), M - 1):
        previous = -1
        first_gap = None
        for b in bars:
            if first_gap is None:
                first_gap = b - previous - 1
            previous = b
        if first_gap is None:  # M == 1: no bars, everything in cell 0
            first_gap = N
        counts[first_gap] += 1
        total += 1
    return [Fraction(c, total) for c in counts], total


class TestConfigCount:
    @pytest.mark.parametrize("N,M,expected", [(0, 5, 1), (5, 1, 1), (2, 3, 6), (8, 8, 6435)])
    def test_values(self, N, M, expected):
        assert config_count(N, M) == expected

    @pytest.mark.parametrize("N", range(0, 7))
    @pytest.mark.parametrize("M", range(1, 5))
    def test_against_enumeration(self, N, M):
        _, total = enumerate_marginal(N, M)
        assert config_count(N, M) == total

    def test_validation(self):
        with pytest.raises(ValueError):
            config_count(-1, 3)
        with pytest.raises(ValueError):
            config_count(3, 0)
        with pytest.raises(TypeError):
            config_count(3.0, 3)


class TestFockScatterExact:
    @pytest.mark.parametrize("N", range(0, 7))
    @pytest.mark.parametrize("M", range(1, 5))
    def test_against_enumeration(self, N, M):
        oracle, _ = enumerate_marginal(N, M)
        assert fock_scatter_fractions(N, M) == tuple(oracle)

    @pytest.mark.parametrize("N,M", [(1, 2), (3, 5), (8, 8), (20, 3), (60, 200)])
    def test_normalization_and_mean_exact(self, N, M):
        row = fock_scatter_fractions(N, M)
        assert sum(row) == 1
        assert sum(n * p for n, p in enumerate(row)) == Fraction(N, M)

    @pytest.mark.parametrize("M", [1, 2, 3, 8, 100, 4096])
    def test_single_photon(self, M):
        assert fock_scatter_fractions(1, M) == (
            Fraction(M - 1, M),
            Fraction(1, M),
        )

    def test_two_photons_two_cells_uniform(self):
        assert fock_scatter_fractions(2, 2) == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )

    def test_single_cell_keeps_everything(self):
        assert fock_scatter_fractions(4, 1) == (0, 0, 0, 0, 1)

    def test_headline_g2(self):
        row = fock_scatter_fractions(8, 8)
        mean = sum(n * p for n, p in enumerate(row))
        fm2 = sum(n * (n - 1) * p for n, p in enumerate(row))
        assert mean == 1
        assert fm2 / mean**2 == Fraction(14, 9)

    def test_corrupted_numerator_fails_the_count_check(self, monkeypatch):
        honest = combinatorics._row_numerators

        def corrupted(z, N, M):
            for n, b in enumerate(honest(z, N, M)):
                yield b + 1 if n == 3 else b

        monkeypatch.setattr(combinatorics, "_row_numerators", corrupted)
        with pytest.raises(NormalizationFailure, match="count mismatch for N=9, M=4"):
            fock_scatter_fractions(9, 4)

    def test_float_row_matches_fractions(self):
        row = fock_scatter_pmf(17, 5)
        exact = fock_scatter_fractions(17, 5)
        assert row.probs == tuple(float(f) for f in exact)
        assert row.tail_mass == 0.0

    @pytest.mark.parametrize("N,M", [(5.0, 3), (True, 3), (1.0, 3), (5, 3.0), (1, True)])
    def test_validation_after_warm_call(self, N, M):
        for warm in [(5, 3), (1, 3), (1, 1)]:
            fock_scatter_fractions(*warm)
            fock_scatter_pmf(*warm)
        with pytest.raises(TypeError):
            fock_scatter_fractions(N, M)
        with pytest.raises(TypeError):
            fock_scatter_pmf(N, M)


class TestExactRouteBitIdentical:
    @pytest.mark.parametrize("M", [1, 2, 3, 8, 64, 200, 4096])
    def test_float_rows_are_rounded_fractions(self, M):
        for N in [*range(60), 200, 1000, 3000]:
            expected = tuple(float(f) for f in fock_scatter_fractions(N, M))
            assert fock_scatter_pmf(N, M).probs == expected, (N, M)

    @pytest.mark.parametrize("N,M", [(200, 8), (1000, 64), (59, 4096), (3000, 3)])
    def test_cold_row_equals_row_after_sweep(self, N, M):
        cold = fock_scatter_pmf(N, M).probs
        for other in (N + 40, 3, N - 1):
            fock_scatter_pmf(other, M)
        # a mixture runs the same numerators past row N
        scatter_pmf(Pmf(np.full(N + 60, 1.0 / (N + 60))), M)
        assert fock_scatter_pmf(N, M).probs == cold

    def test_nothing_retained_after_calls(self):
        # numerators of a large row and a long mixture die with their call
        tracemalloc.start()
        try:
            fock_scatter_pmf(6000, 2000)
            scatter_pmf(Pmf(np.full(3000, 1.0 / 3000)), 3000)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 0.5e6

    def test_large_row_peak_memory(self):
        # the numerators are stepped down one at a time, never held as a list
        tracemalloc.start()
        try:
            fock_scatter_pmf(15000, 5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestRowRatios:
    # successive ratio p_{n+1} / p_n = (N - n) / (N - n + M - 2) of the row

    def test_matches_exact_row_ratios(self):
        for N, M in [(5, 3), (12, 7), (60, 60)]:
            row = fock_scatter_fractions(N, M)
            for n in range(N):
                assert row[n + 1] / row[n] == Fraction(N - n, N - n + M - 2)

    def test_example_value(self):
        row = fock_scatter_fractions(200, 200)
        assert float(row[1] / row[0]) == 200 / 398

    def test_flat_for_two_cells(self):
        row = fock_scatter_fractions(9, 2)
        assert row[5] / row[4] == 1

    def test_large_n_limit(self):
        # a million-entry row, none of it rounding to zero: its first ratio
        N, M = 10**6, 200
        row = _fock_scatter_array(N, M)
        assert abs(row[1] / row[0] - (1.0 - (M - 2) / N)) < 1e-7


class TestApproxScatter:
    def test_coefficients(self):
        # beta_0 = ln(1 + (M-2)/N), beta_c = (M-2) / (2 N (N+M-2))
        p = approx_scatter_pmf(200, 200)
        beta0 = math.log1p(198 / 200)
        beta_c = 198 / (2 * 200 * 398)
        ratio_01 = p.probs[1] / p.probs[0]
        ratio_12 = p.probs[2] / p.probs[1]
        assert ratio_01 == pytest.approx(math.exp(-beta0), rel=1e-12)
        assert ratio_12 == pytest.approx(math.exp(-beta0 - 2 * beta_c), rel=1e-12)

    def test_close_to_exact_at_small_n(self):
        exact = fock_scatter_pmf(200, 200).as_array()
        approx = approx_scatter_pmf(200, 200).as_array()
        rel = np.abs(approx[:21] / exact[:21] - 1.0)
        assert rel.max() < 0.05

    def test_normalized(self):
        p = approx_scatter_pmf(50, 10)
        assert abs(sum(p.probs) - 1.0) < 1e-12
        assert len(p) == 51

    @pytest.mark.parametrize(
        "N, M",
        [(1, 3), (30, 6), (200, 200), (255, 4), (1000, 64), (3000, 4096), (10000, 3),
         (100000, 10**5)],
    )
    def test_bits_match_scipy_logsumexp(self, N, M):
        # bit for bit scipy's logsumexp order of operations (exp of every
        # weight, the max slot log_w[0] = 0 zeroed, log1p of the pairwise sum)
        # with libm's exp and log1p in place of numpy's CPU-picked kernels;
        # scipy's own numbers, from numpy's exp, within a few units in the last place
        from scipy.special import logsumexp

        beta0 = math.log1p((M - 2) / N)
        beta_c = (M - 2) / (2.0 * N * (N + M - 2))
        n = np.arange(N + 1)
        log_w = -beta0 * n - beta_c * (n * (n - 1.0))
        w = np.array([math.exp(x) for x in log_w.tolist()])
        w[0] = 0.0
        shift = math.log1p(w.sum())
        probs = approx_scatter_pmf(N, M).probs
        assert probs == tuple(math.exp(x) for x in (log_w - shift).tolist())
        np.testing.assert_allclose(probs, np.exp(log_w - logsumexp(log_w)), rtol=4e-15, atol=0)

    def test_domain(self):
        with pytest.raises(ValueError, match="cell count M must be >= 3, got 2"):
            approx_scatter_pmf(10, 2)
        with pytest.raises(ValueError, match="photon number N must be >= 1, got 0"):
            approx_scatter_pmf(0, 5)


class TestBitExactAboveOldSeam:
    # rows above N + M = 20000, where a float route once took over, equal
    # the exact rationals rounded once, bit for bit

    def test_bit_equal_to_rounded_fractions(self):
        N, M = 30, 19990  # a wide row whose fractions stay cheap to build
        exact = tuple(float(f) for f in fock_scatter_fractions(N, M))
        assert fock_scatter_pmf(N, M).probs == exact

    def test_big_support_normalizes(self):
        p = fock_scatter_pmf(25000, 4)
        assert abs(sum(p.probs) - 1.0) < 1e-9
        assert pmf_mean(p) == pytest.approx(25000 / 4, rel=1e-9)

    @pytest.mark.parametrize(
        "N,M",
        [(30, 19980), (300, 24500), (455, 25900), (3000, 20000), (5000, 30000),
         (20000, 5000), (50000, 2000), (100000, 3), (300000, 3)],
    )
    def test_bit_equal_to_int_division(self, N, M):
        # the error is zero: every entry, zeros included, is the int / int
        # true division c / z, which is the exact rational rounded once
        row = _fock_scatter_array(N, M)
        z = math.comb(N + M - 1, M - 1)
        c = math.comb(N + M - 2, M - 2)  # numerator of entry n, exact
        exact = np.zeros(N + 1)
        for n in range(N + 1):
            exact[n] = c / z
            if n < N:
                c = c * (N - n) // (N - n + M - 2)
        assert np.count_nonzero(exact) > 30
        assert np.array_equal(row, exact)


class TestSplit:
    # the one int -> float split of the mixture kernels: the top <= 106 bits
    # of each int, rounded once

    @staticmethod
    def check(values):
        mantissas, exponents, tops, shifts = combinatorics._split(values)
        parts = zip(mantissas.tolist(), exponents.tolist(), tops, shifts.tolist())
        for x, (m, e, t, s) in zip(values, parts):
            assert 0.5 <= m < 1.0
            assert (t, s) == (x >> s, max(x.bit_length() - 106, 0))
            # half an ulp of m * 2**e, plus the cut bits below 2**-105 of x
            error = abs(Fraction(m) * Fraction(2) ** e - x)
            assert error <= Fraction(2) ** (e - 54) + Fraction(x, 2**105)
        return mantissas, exponents

    def test_within_half_an_ulp_and_the_cut_bits(self):
        rng = random.Random(17)
        sizes = [*range(1, 140), *range(140, 20001, 97), 20000]
        values = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in sizes]
        edges = [(1 << k) + d for k in (53, 105, 106, 107, 1023, 1024) for d in (-1, 0, 1)]
        self.check(sorted(values + edges))

    def test_a_tie_in_the_top_bits_rounds_to_even(self):
        # the top 106 bits end in exactly half an ulp and a cut bit is set:
        # rounding t once goes to even, one ulp below x correctly rounded
        even = (1 << 52) + 2
        x = ((even << 53 | 1 << 52) << 20) | 1
        mantissas, exponents = self.check([x])
        assert float(x) == (even + 1) << 73
        assert np.ldexp(mantissas[0], exponents[0]) == even << 73

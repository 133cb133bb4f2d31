import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rggstats import (
    Pmf,
    SqueezedCoherent,
    ZeroMean,
    cascade_pmf,
    correlation_report,
    fock_pmf,
    fock_scatter_fractions,
    fock_scatter_pmf,
    g2_out_predicted,
    g3_out_predicted,
    gn_out_predicted,
    pmf_mean,
    poisson_pmf,
    scatter_pmf,
    squeezed_coherent_pmf,
    thermal_pmf,
)
from rggstats import combinatorics


def random_pmfs(count, max_support, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        width = int(rng.integers(2, max_support + 2))
        yield Pmf(tuple(rng.dirichlet(np.ones(width))))


class TestScatterPmf:
    def test_point_mass_input_reproduces_exact_row(self):
        assert scatter_pmf(fock_pmf(9), 5) == fock_scatter_pmf(9, 5)

    def test_vacuum_is_fixed_point(self):
        for M in (1, 2, 7, 100):
            assert scatter_pmf(fock_pmf(0), M).probs == (1.0,)

    def test_single_cell_is_identity(self):
        p = poisson_pmf(3.0)
        assert scatter_pmf(p, 1) is p

    def test_tail_mass_is_carried_over(self):
        p = Pmf((0.6, 0.3), 0.1)
        out = scatter_pmf(p, 4)
        assert out.tail_mass == 0.1
        assert sum(out.probs) == pytest.approx(0.9, abs=1e-15)

    def test_mixture_linearity(self):
        # scattering a 50/50 mix of 2 and 4 photons = mixing the two rows
        mixed = Pmf((0.0, 0.0, 0.5, 0.0, 0.5))
        out = scatter_pmf(mixed, 3).as_array()
        row2 = fock_scatter_pmf(2, 3).as_array()
        row4 = fock_scatter_pmf(4, 3).as_array()
        expected = 0.5 * np.concatenate([row2, [0.0, 0.0]]) + 0.5 * row4
        assert np.abs(out - expected).max() < 1e-16

    def test_mean_is_input_mean_over_M(self):
        for p in random_pmfs(20, 60, seed=11):
            for M in (2, 9, 51):
                out = scatter_pmf(p, M)
                assert abs(pmf_mean(out) - pmf_mean(p) / M) < 1e-12


def row_mixture(p, M):
    """Reference: one exact float row per nonzero weight, added in ascending N."""
    out = np.zeros(len(p))
    for N, weight in enumerate(p.probs):
        if weight != 0.0:
            out[: N + 1] += weight * fock_scatter_pmf(N, M).as_array()
    return out


def worst_relative_error(p, out, M):
    """Worst ``|out[n] / exact[n] - 1|`` over the exact entries above 1e-300.

    ``exact[n] = sum_N P(N) b_{N-n} / z_N`` with the float weights taken as
    exact rationals.  It is evaluated in integers: each ``P(N) / z_N`` as a
    fixed-point number with S fraction bits, S large enough that the
    truncation stays below 2**-120 of every entry that is compared.
    """
    top = len(p)
    b = [math.comb(k + M - 2, M - 2) for k in range(top)]
    z = [math.comb(N + M - 1, M - 1) for N in range(top)]
    S = z[-1].bit_length() + top.bit_length() + 1120
    scaled = []
    for N, weight in enumerate(p.probs):
        num, den = weight.as_integer_ratio()
        scaled.append((num << S) // (den * z[N]))
    worst = 0.0
    for n in range(top):
        exact = sum(scaled[N] * b[N - n] for N in range(n, top))  # exact[n] * 2**S
        if exact * 10**300 <= 1 << S:
            continue
        num, den = float(out[n]).as_integer_ratio()
        worst = max(worst, abs((num << S) - exact * den) / (exact * den))
    return worst


GRID_MS = (2, 3, 8, 64, 200, 4096)
FAMILIES = {
    "coherent": [poisson_pmf(mean) for mean in (2.0, 8.0, 30.0)],
    "thermal": [thermal_pmf(mean) for mean in (0.5, 3.0, 10.0)],
    "squeezed": [
        squeezed_coherent_pmf(SqueezedCoherent(alpha, 0.3, r, theta))
        for alpha, r, theta in ((1.0, 0.3, 0.5), (2.0, 0.6, 2.0), (0.0, 0.8, 1.0))
    ],
    "custom": list(random_pmfs(3, 40, seed=2024)),
}


def numerators(weights, M):
    """The numerators ``b_0, ..., b_{L-1}`` that the router hands a kernel."""
    return combinatorics._numerators(len(weights), M)


class TestMixtureKernel:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_less_accurate_than_row_mixture(self, family):
        # per family, the worst error of the kernel against the exact mixture
        # is no larger than the worst of the row-by-row mixture
        kernel = rows = 0.0
        for p in FAMILIES[family]:
            for M in GRID_MS:
                kernel = max(kernel, worst_relative_error(p, scatter_pmf(p, M).as_array(), M))
                rows = max(rows, worst_relative_error(p, row_mixture(p, M), M))
        assert kernel <= rows
        assert kernel < 4e-16  # a few units in the last place: the sum is compensated

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_kernel_is_accurate(self, family):
        # called directly, whatever the rule would pick: the suffix route
        # rounds about once, the Toeplitz route within a few units
        for p in FAMILIES[family]:
            weights = p.as_array()
            for M in (2, 3, 8, 64, 200):
                b = numerators(weights, M)
                suffix = combinatorics._suffix_mixture(weights, b)
                toeplitz = combinatorics._toeplitz_mixture(weights, b)
                assert worst_relative_error(p, suffix, M) <= 2**-53
                assert worst_relative_error(p, toeplitz, M) < 4e-16

    def test_two_cells_round_each_entry_once(self, monkeypatch):
        # M = 2 is one suffix pass: entry n is sum_{N >= n} P(N) / (N + 1)
        monkeypatch.setattr(combinatorics, "_toeplitz_mixture", None)
        (p,) = random_pmfs(1, 60, seed=8)
        exact = [
            sum(Fraction(w) / (N + 1) for N, w in enumerate(p.probs[n:], n))
            for n in range(len(p))
        ]
        assert scatter_pmf(p, 2).probs == tuple(map(float, exact))

    @pytest.mark.parametrize("M", [3, 8, 20])
    def test_suffix_route_keeps_tiny_weights(self, monkeypatch, M):
        # weights near 1e-300, all below _TINY_WEIGHT, one of them subnormal
        probs = np.zeros(81)
        probs[:40] = np.random.default_rng(6).dirichlet(np.ones(40))
        probs[50], probs[60], probs[80] = 1e-250, 3e-300, 1e-310
        p = Pmf(probs)
        assert probs[80] < probs[60] < probs[50] < combinatorics._TINY_WEIGHT
        suffix = combinatorics._suffix_mixture(probs, numerators(probs, M))
        assert worst_relative_error(p, suffix, M) <= 2**-53
        monkeypatch.setattr(combinatorics, "_toeplitz_mixture", None)
        assert worst_relative_error(p, scatter_pmf(p, M).as_array(), M) < 4e-16

    def test_too_wide_a_range_falls_back_to_toeplitz(self):
        # z_N reaches 2**1466, so w spans more than the doubles do
        L, M = 3000, 300
        probs = np.zeros(L)
        probs[0], probs[L - 1] = 0.5, 2.0**-699
        assert combinatorics._suffix_is_cheaper(L, M)
        b = numerators(probs, M)
        assert combinatorics._suffix_mixture(probs, b) is None
        expected = combinatorics._toeplitz_mixture(probs, b)
        assert scatter_pmf(Pmf(probs, 0.5), M).as_array().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M", [64, 500])
    def test_router_builds_the_numerators_once(self, monkeypatch, M):
        # thermal(250) takes the suffix route at M = 64; at M = 500 its range
        # does not fit, and the Toeplitz kernel takes the same numerators
        calls = []
        build = combinatorics._numerators

        def counted(count, M):
            calls.append((count, M))
            return build(count, M)

        monkeypatch.setattr(combinatorics, "_numerators", counted)
        p = thermal_pmf(250.0)
        scatter_pmf(p, M)
        weights = p.as_array()
        assert calls == [(len(weights), M)]
        fits = combinatorics._suffix_mixture(weights, build(len(weights), M)) is not None
        assert combinatorics._suffix_is_cheaper(len(weights), M) and fits == (M == 64)

    def test_many_cells_never_run_the_passes(self, monkeypatch):
        def refuse(weights, b):
            raise AssertionError("suffix route at M = 10**9")

        monkeypatch.setattr(combinatorics, "_suffix_mixture", refuse)
        p = Pmf(np.random.default_rng(4).dirichlet(np.ones(500)))
        weights = p.as_array()
        expected = combinatorics._toeplitz_mixture(weights, numerators(weights, 10**9))
        assert scatter_pmf(p, 10**9).as_array().tobytes() == expected.tobytes()

    def test_correlation_laws_on_a_bright_input(self):
        # geometric of mean 1000 to a tail of 1e-12, past what thermal_pmf keeps
        mean, L = 1000.0, 27700
        q = mean / (mean + 1.0)
        p = Pmf((1.0 - q) * q ** np.arange(L), q**L)
        M = 64
        rep_in = correlation_report(p, 3)
        rep_out = correlation_report(scatter_pmf(p, M), 3)
        assert rep_out.g2 == pytest.approx(gn_out_predicted(rep_in.g2, 2, M), rel=1e-12)
        assert rep_out.g3 == pytest.approx(gn_out_predicted(rep_in.g3, 3, M), rel=1e-12)

    @pytest.mark.parametrize("budget", [1, 7, 333])
    @pytest.mark.parametrize(
        "p, M",
        [
            (thermal_pmf(40.0), 64),
            (poisson_pmf(300.0), 4096),
            (Pmf(np.random.default_rng(3).dirichlet(np.ones(300))), 3),
            (Pmf((0.0, 0.0, 0.5, 0.0, 0.5)), 25000),
        ],
    )
    def test_bits_do_not_depend_on_blocking(self, monkeypatch, budget, p, M):
        # the Toeplitz kernel directly: the rule sends some of these to the
        # suffix route, which has no blocks
        weights = p.as_array()
        b = numerators(weights, M)
        whole = combinatorics._toeplitz_mixture(weights, b)
        monkeypatch.setattr(combinatorics, "_BLOCK_ELEMENTS", budget)
        assert combinatorics._toeplitz_mixture(weights, b).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("M", [2, 3, 64, 25000])
    def test_single_weight_gives_the_exact_row(self, M):
        p = Pmf((0.0, 0.0, 0.0, 0.25, 0.0), 0.75)
        expected = np.zeros(5)
        expected[:4] = 0.25 * np.array(fock_scatter_pmf(3, M).probs)
        assert scatter_pmf(p, M) == Pmf(expected, 0.75)

    @pytest.mark.parametrize("M", [25000, 10**6])
    def test_tiny_weights_keep_their_precision(self, M):
        # the weight column reaches 2**-256 of a weight, where these would
        # be subnormal; the entries n >= 1 come from them alone
        probs = np.zeros(41)
        probs[0], probs[20], probs[40] = 1.0, 1e-250, 1e-280
        p = Pmf(probs)
        assert worst_relative_error(p, scatter_pmf(p, M).as_array(), M) < 4e-16

    def test_no_weight_scatters_to_nothing(self):
        assert scatter_pmf(Pmf((0.0, 0.0, 0.0), 1.0), 7) == Pmf((0.0, 0.0, 0.0), 1.0)

    @pytest.mark.parametrize(
        "p, M, stages, digest",
        [
            # the suffix route
            (thermal_pmf(40.0), 64, 1,
             "da1680a87adb1cb780894c78c6a08b9707b0c357d94a7a53664025a41f6a6a56"),
            # the Toeplitz route
            (thermal_pmf(40.0), 4096, 1,
             "8b7602db55b94c5203cde4fda5f438fc0022a7ec32ec5e188137cfd55bb9b669"),
            # the second stage has weights below _TINY_WEIGHT, on the Toeplitz route
            (poisson_pmf(300.0), 25000, 2,
             "0c76516571e29f007ac35406d51cecf7e75b82a672d77655f0f8c81c7396f547"),
            # the third stage has weights below _TINY_WEIGHT, on the suffix route
            (poisson_pmf(300.0), 98, 3,
             "f19285ddd899259c2987d7c1034a27430dada0e265beba70dde0aa84621ad28e"),
        ],
        ids=["suffix", "toeplitz", "tiny-split", "tiny-suffix"],
    )
    def test_mixtures_pinned(self, p, M, stages, digest):
        # digests recorded before both kernels took z_N from one numerator
        # recurrence, except tiny-suffix, recorded when each stage first took
        # one kernel; thermal_pmf's entries are Python float powers, so the
        # thermal digests hold whichever numpy kernels the CPU selects
        data = repr(cascade_pmf(p, M, stages).probs).encode()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "p",
        [
            thermal_pmf(3.0),
            poisson_pmf(50.0),
            squeezed_coherent_pmf(SqueezedCoherent(2.0, 0.1, 0.5, 0.3)),
        ],
    )
    def test_correlation_laws_at_many_cells(self, p):
        M = 25000
        rep_in = correlation_report(p, 3)
        rep_out = correlation_report(scatter_pmf(p, M), 3)
        assert rep_out.g2 == pytest.approx(gn_out_predicted(rep_in.g2, 2, M), rel=1e-12)
        assert rep_out.g3 == pytest.approx(gn_out_predicted(rep_in.g3, 3, M), rel=1e-12)


_derandomized = settings(max_examples=80, deadline=None, derandomize=True)
# inputs with tails of at most 1e-12, and supports of at most ~150 entries
_light_inputs = st.one_of(
    st.integers(0, 60).map(fock_pmf),
    st.floats(0.01, 40.0).map(poisson_pmf),
    st.floats(0.01, 5.0).map(thermal_pmf),
    st.builds(
        SqueezedCoherent,
        st.floats(0.0, 3.0), st.floats(0.0, 6.3), st.floats(0.0, 0.8), st.floats(0.0, 6.3),
    ).map(squeezed_coherent_pmf),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
    .filter(lambda x: sum(x) > 0.0)
    .map(lambda x: Pmf(np.array(x) / sum(x))),
)
_cells = st.integers(1, 10**4)
_dirichlet_inputs = st.builds(
    lambda width, seed: Pmf(np.random.default_rng(seed).dirichlet(np.ones(width))),
    st.integers(2, 60), st.integers(0, 2**32),
)


class TestRouterProperties:
    @given(_light_inputs, _cells, st.integers(1, 3))
    @_derandomized
    def test_mass_and_mean_are_kept(self, p, M, stages):
        out = cascade_pmf(p, M, stages)
        assert math.fsum((*out.probs, out.tail_mass)) == pytest.approx(
            math.fsum((*p.probs, p.tail_mass)), rel=0, abs=1e-12
        )
        assert pmf_mean(out) == pytest.approx(pmf_mean(p) / M**stages, rel=1e-13, abs=0)

    @given(_light_inputs)
    @_derandomized
    def test_one_cell_is_the_identity(self, p):
        assert scatter_pmf(p, 1) is p

    @given(st.integers(0, 60), st.integers(0, 5), st.floats(1e-300, 1.0), _cells)
    @_derandomized
    def test_one_weight_gives_its_exact_row(self, N, padding, weight, M):
        probs = np.zeros(N + 1 + padding)
        probs[N] = weight
        expected = np.zeros(len(probs))
        expected[: N + 1] = weight * fock_scatter_pmf(N, M).as_array()
        assert scatter_pmf(Pmf(probs, 1.0 - weight), M).probs == tuple(expected.tolist())

    # M log-uniform on [2, 10**4]: a suffix pass costs ~7 us at M = 10**4
    @given(
        st.one_of(_light_inputs, _dirichlet_inputs),
        st.floats(math.log(2), math.log(1e4)).map(math.exp).map(round),
    )
    @_derandomized
    def test_router_takes_one_of_two_agreeing_kernels(self, p, M):
        weights = p.as_array()
        assume(np.count_nonzero(weights) >= 2)  # one weight: its exact row, checked above
        top = int(np.flatnonzero(weights)[-1]) + 1
        b = numerators(weights[:top], M)
        kernels = [combinatorics._toeplitz_mixture(weights[:top], b)]
        suffix = combinatorics._suffix_mixture(weights[:top], b)
        if suffix is not None:  # where its range fits
            toeplitz, compared = kernels[0], kernels[0] > 1e-300
            assert np.all(np.abs(suffix - toeplitz)[compared] <= 4e-16 * toeplitz[compared])
            kernels.append(suffix)
        out = scatter_pmf(p, M).as_array()
        assert not out[top:].any()
        assert any(out[:top].tobytes() == kernel.tobytes() for kernel in kernels)


def second_moment(p):
    n = np.arange(len(p))
    return float((n * n) @ p.as_array())


class TestSecondMoment:
    # closed form: <n^2> = (2 <N^2> + (M - 1) <N>) / (M (M + 1))

    def test_single_photon_two_cells(self):
        assert second_moment(scatter_pmf(fock_pmf(1), 2)) == 0.5

    def test_vacuum(self):
        assert second_moment(scatter_pmf(fock_pmf(0), 5)) == 0.0

    def test_exact_rational_cross_check(self):
        # (2 * 25 + 2 * 5) / 12 = 5 for N = 5, M = 3
        row = fock_scatter_fractions(5, 3)
        direct = sum(n * n * p for n, p in enumerate(row))
        assert direct == Fraction(5)

    def test_two_routes_agree(self):
        src = poisson_pmf(8.0)
        closed = (2.0 * second_moment(src) + 7.0 * pmf_mean(src)) / (8 * 9)
        assert abs(second_moment(scatter_pmf(src, 8)) - closed) < 1e-10


class TestCorrelationReport:
    def test_fock_g2(self):
        for N in (1, 2, 5, 8, 40):
            rep = correlation_report(fock_pmf(N), 2)
            assert abs(rep.g2 - (1.0 - 1.0 / N)) < 1e-15

    def test_thermal_orders(self):
        rep = correlation_report(thermal_pmf(2.0), 4)
        assert rep.g2 == pytest.approx(2.0, abs=2e-9)
        assert rep.g3 == pytest.approx(6.0, abs=1e-7)
        assert rep.g_at(4) == pytest.approx(24.0, abs=1e-5)

    def test_poisson_factorial_moments(self):
        rep = correlation_report(poisson_pmf(5.0), 4)
        for k in range(1, 5):
            assert rep.factorial_moments[k - 1] == pytest.approx(5.0**k, rel=1e-9)

    def test_scattered_single_photon_g2_is_exactly_zero(self):
        rep = correlation_report(scatter_pmf(fock_pmf(1), 17), 2)
        assert rep.g2 == 0.0

    def test_zero_mean_raises(self):
        with pytest.raises(ZeroMean):
            correlation_report(fock_pmf(0), 2)

    def test_mean_too_small_to_square_raises(self):
        # mean 2**-600: its square underflows to 0.0, where g^(2) would be inf
        with pytest.raises(OverflowError, match=r"g\^\(2\)"):
            correlation_report(Pmf((1.0 - 2.0**-601, 0.0, 2.0**-601)), 2)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            correlation_report(fock_pmf(2), 1)

    def test_mean_equals_first_factorial_moment(self):
        rep = correlation_report(poisson_pmf(3.0), 3)
        assert rep.factorial_moments[0] == rep.mean

    @pytest.mark.parametrize(
        "p, digest",
        [
            (poisson_pmf(100.0),
             "ad923541471929ab6c6fcc4c026f26476ee5641b02fa2df0ab88834f74e39086"),
            (fock_scatter_pmf(200, 8),
             "8f2c5e963fccbbb8e6ad0d070d11e68fc1f82464bae97da4c428f773c983306b"),
            (scatter_pmf(squeezed_coherent_pmf(SqueezedCoherent(8.0, 0.1, 0.5, 0.3)), 8),
             "d0e8962031b087f0df69549e26af22299d8636ecff5c04e7baf7ea2a49d91ba4"),
        ],
        ids=["poisson", "fock", "squeezed-mixture"],
    )
    def test_moments_pinned(self, p, digest):
        # every moment is an elementwise product and a pairwise sum, every g
        # a division by repeated products of the mean: no BLAS or numpy power,
        # whose kernels the CPU selects, so the digests hold on every CPU
        rep = correlation_report(p, 6)
        assert pmf_mean(p) == rep.mean
        data = repr((rep.factorial_moments, rep.g)).encode()
        assert hashlib.sha256(data).hexdigest() == digest


class TestCorrelationLaws:
    def test_g2_law_values(self):
        assert g2_out_predicted(14 / 16, 8) == pytest.approx(14 / 9, abs=1e-15)
        assert g2_out_predicted(1.0, 8) == pytest.approx(16 / 9, abs=1e-15)

    def test_laws_are_identity_at_single_cell(self):
        for g in (0.0, 0.5, 0.75, 1.0, 2.0):
            assert g2_out_predicted(g, 1) == g
            assert g3_out_predicted(g, 1) == g
            for k in range(2, 8):
                assert gn_out_predicted(g, k, 1) == g

    def test_g3_law_value(self):
        # Fock(8): g3_in = 42/64; output 6 * (42/64) * 64/90 = 2.8
        assert g3_out_predicted(42 / 64, 8) == pytest.approx(2.8, abs=1e-15)

    def test_laws_hold_through_the_pmf_route(self):
        for p in random_pmfs(40, 80, seed=7):
            rep_in = correlation_report(p, 3)
            for M in (2, 8, 50, 1000):
                rep_out = correlation_report(scatter_pmf(p, M), 3)
                assert abs(rep_out.g2 - g2_out_predicted(rep_in.g2, M)) < 1e-10
                assert abs(rep_out.g3 - g3_out_predicted(rep_in.g3, M)) < 1e-10

    @pytest.mark.parametrize("mean", [0.1, 1.0, 10.0, 100.0])
    def test_g2_out_ignores_intensity_for_poisson(self, mean):
        # tolerance is set by the input truncation, not the transform: the
        # clipped tail shifts g2 of a sparse pmf by a few parts in 1e9
        out = scatter_pmf(poisson_pmf(mean), 7)
        assert abs(correlation_report(out, 2).g2 - 2.0 * 7 / 8) < 1e-8

    def test_g2_out_grows_with_M_toward_asymptote(self):
        values = []
        for M in (2, 4, 16, 64, 512):
            out = scatter_pmf(fock_pmf(10), M)
            values.append(correlation_report(out, 2).g2)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 2.0 * (1.0 - 0.1)
        assert values[-1] == pytest.approx(2.0 * 0.9 * 512 / 513, abs=1e-12)

    def test_successive_ratio_approximation_for_bright_poisson(self):
        # ratio ~ 1/(1 + M/nbar) at small n; error shrinks like 1/nbar
        worst = {}
        for nbar in (50, 200, 1000):
            out = scatter_pmf(poisson_pmf(float(nbar)), 8).as_array()
            target = 1.0 / (1.0 + 8.0 / nbar)
            worst[nbar] = max(
                abs(out[n + 1] / out[n] / target - 1.0) for n in range(nbar // 10 + 1)
            )
        assert worst[50] < 0.04
        assert worst[200] < 0.01
        assert worst[1000] < 0.003
        assert worst[1000] < worst[200] < worst[50]


def falling(n, k):
    return math.prod(range(n - k + 1, n + 1))


class TestGnLaw:
    @pytest.mark.parametrize("N", [1, 3, 7, 12, 25])
    @pytest.mark.parametrize("M", [2, 3, 5, 8, 40])
    def test_law_equals_exact_factorial_moments(self, N, M):
        # one diffuser, Fock(N) input, every order 2..6, all in exact rationals
        row = fock_scatter_fractions(N, M)
        mean_out = Fraction(N, M)
        for k in range(2, 7):
            g_in = Fraction(falling(N, k), N**k)
            g_out = sum(p * falling(n, k) for n, p in enumerate(row)) / mean_out**k
            assert gn_out_predicted(g_in, k, M) == g_out

    def test_order_2_and_3_keep_the_closed_form_bits(self):
        # the one law reproduces the old order-2/3 expressions bit for bit
        rng = np.random.default_rng(11)
        gs = np.concatenate([rng.random(200) * 10, rng.exponential(1.0, 200), [0.0, 1.0, 2.0]])
        Ms = [1, 2, 3, 7, 64, 4096, 10**6, 2**40 + 3, 2**53 - 3]
        for g in map(float, gs):
            for M in Ms:
                assert gn_out_predicted(g, 2, M) == 2.0 * g * M / (M + 1.0)
                assert gn_out_predicted(g, 3, M) == 6.0 * g * M * M / ((M + 1.0) * (M + 2.0))
                assert g2_out_predicted(g, M) == gn_out_predicted(g, 2, M)
                assert g3_out_predicted(g, M) == gn_out_predicted(g, 3, M)

    def test_higher_orders_hold_through_the_pmf_route(self):
        for p in random_pmfs(20, 40, seed=5):
            rep_in = correlation_report(p, 6)
            for M in (2, 5, 30):
                rep_out = correlation_report(scatter_pmf(p, M), 6)
                for k in range(2, 7):
                    law = gn_out_predicted(rep_in.g_at(k), k, M)
                    assert rep_out.g_at(k) == pytest.approx(law, rel=1e-10)

    @pytest.mark.parametrize("order, M, error", [
        (1, 4, ValueError), (2.0, 4, TypeError), (3, 0, ValueError), (3, 4.0, TypeError),
    ])
    def test_validation(self, order, M, error):
        with pytest.raises(error):
            gn_out_predicted(1.0, order, M)


class TestCascade:
    def test_one_stage_equals_scatter(self):
        p = poisson_pmf(2.0)
        assert cascade_pmf(p, 6, 1) == scatter_pmf(p, 6)

    def test_two_stages_compose(self):
        p = fock_pmf(6)
        assert cascade_pmf(p, 5, 2) == scatter_pmf(scatter_pmf(p, 5), 5)

    def test_g2_gains_factor_per_stage(self):
        p = poisson_pmf(1.0)
        g2_in = correlation_report(p, 2).g2
        for stages in (1, 2, 3):
            out = cascade_pmf(p, 100, stages)
            expected = g2_in * (2.0 * 100 / 101) ** stages
            assert abs(correlation_report(out, 2).g2 - expected) < 1e-9

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            cascade_pmf(fock_pmf(1), 3, 0)

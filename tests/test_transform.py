import hashlib
import math
import sys
from fractions import Fraction
from contextlib import ExitStack
from functools import partial
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    gn_limit,
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
# the router's bit-identity grid; at M = 245 to 1300 the cost rule picks the
# suffix route for some thermal(250) stages whose range does not fit
GRID_CELLS = (2, 17, 98, 245, 500, 1000, 1300, 4096, 25275)
GRID_INPUTS = (
    poisson_pmf(8.0),
    poisson_pmf(300.0),
    thermal_pmf(3.0),
    thermal_pmf(250.0),
    squeezed_coherent_pmf(SqueezedCoherent(2.0, 0.1, 0.5, 0.3)),
    squeezed_coherent_pmf(SqueezedCoherent(0.0, 0.0, 0.8, 1.0)),
    Pmf(np.random.default_rng(3).dirichlet(np.ones(300))),
)


def routed(weights, M, kernel):
    """The router's output with its cost rule set to pick ``kernel``, and its kernel calls.

    The calls map each kernel's name to the arguments the router handed it;
    the range test may still send the stage to the other kernel.
    """
    calls = {}
    forced = {"_suffix_mixture": "_TOEPLITZ_TERM_S", "_toeplitz_mixture": "_SUFFIX_PASS_S"}
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(combinatorics, forced[kernel], math.inf))
        for name in forced:
            def spy(*args, _name=name, _kernel=getattr(combinatorics, name)):
                calls[_name] = args
                return _kernel(*args)

            stack.enter_context(mock.patch.object(combinatorics, name, spy))
        out = combinatorics._mixture_array(weights, M)
    return out, calls


def suffix_kernel(weights, M):
    """The mixture from the suffix kernel, on what the router hands it."""
    out, calls = routed(weights, M, "_suffix_mixture")
    assert list(calls) == ["_suffix_mixture"]
    return out


def toeplitz_kernel(weights, M):
    """The mixture from the Toeplitz kernel, on what the router hands it."""
    out, calls = routed(weights, M, "_toeplitz_mixture")
    assert list(calls) == ["_toeplitz_mixture"]
    return out


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
        # rounds about once, the Toeplitz route within a few units (2.66e-16
        # on these while it rounded w_N twice)
        for p in FAMILIES[family]:
            weights = p.as_array()
            for M in (2, 3, 8, 64, 200, 4096, 25275):
                if M <= 200:
                    assert worst_relative_error(p, suffix_kernel(weights, M), M) <= 2**-53
                assert worst_relative_error(p, toeplitz_kernel(weights, M), M) < 2.6e-16

    def test_toeplitz_term_rounds_w_once(self):
        # squeezed vacuum's third stage at M = 25 275, a Toeplitz stage: row
        # 30's term dominates entry 30, which was 1.31 ulp off the exact
        # mixture of the stored input while w_N was rounded twice
        M = 25275
        p = cascade_pmf(squeezed_coherent_pmf(SqueezedCoherent(0.0, 0.0, 0.8, 1.0)), M, 2)
        out, calls = routed(p.as_array(), M, "_toeplitz_mixture")
        assert list(calls) == ["_toeplitz_mixture"]
        assert out.tobytes() == scatter_pmf(p, M).as_array().tobytes()
        exact = sum(
            Fraction(weight) * math.comb(N - 30 + M - 2, M - 2) / math.comb(N + M - 1, M - 1)
            for N, weight in enumerate(p.probs[30:], 30)
        )
        assert abs(Fraction(out[30]) - exact) <= math.ulp(float(exact))

    @pytest.mark.parametrize(
        "p, M",
        [(thermal_pmf(3.0), 4096), (poisson_pmf(300.0), 98), (thermal_pmf(40.0), 25000)],
        ids=["thermal-3", "poisson-300", "thermal-40"],
    )
    def test_toeplitz_weights_are_rounded_once(self, p, M):
        # z_N below and above 2**106: the router hands the Toeplitz kernel
        # floats only, w_N = weights[N] / z_N as its one rounding w * 2**f
        weights = p.as_array()
        _, calls = routed(weights, M, "_toeplitz_mixture")
        args = calls["_toeplitz_mixture"]
        assert all(isinstance(arg, np.ndarray) for arg in args)
        w, f = args[:2]
        shift = 1020 - math.frexp(float(weights.sum()))[1]  # the stage's scale, in f
        z = 0
        for N, weight in enumerate(weights):
            z += math.comb(N + M - 2, M - 2)
            assert w[N] == float(Fraction(weight) / z / Fraction(2) ** int(f[N] - shift))

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
        # weights near 1e-300, all below 2**-700, one of them subnormal
        probs = np.zeros(81)
        probs[:40] = np.random.default_rng(6).dirichlet(np.ones(40))
        probs[50], probs[60], probs[80] = 1e-250, 3e-300, 1e-310
        p = Pmf(probs)
        assert probs[80] < probs[60] < probs[50] < 2.0**-700
        assert worst_relative_error(p, suffix_kernel(probs, M), M) <= 2**-53
        monkeypatch.setattr(combinatorics, "_toeplitz_mixture", None)
        assert worst_relative_error(p, scatter_pmf(p, M).as_array(), M) < 4e-16

    @pytest.mark.parametrize(
        "p, M",
        [(thermal_pmf(3.0), 8), (Pmf(np.random.default_rng(3).dirichlet(np.ones(300))), 17),
         (poisson_pmf(300.0), 98), (thermal_pmf(40.0), 64)],
        ids=["thermal-3", "dirichlet-300", "poisson-300", "thermal-40"],
    )
    def test_suffix_weights_are_double_doubles(self, p, M):
        # z_N below and above 2**106: hi + lo is the scaled w_N to about
        # 2**-104, which needs z's top bits exactly (rounded top + low part)
        weights = p.as_array()
        _, calls = routed(weights, M, "_suffix_mixture")
        hi, lo, passes = calls["_suffix_mixture"]
        assert passes == M - 1
        shift = 1020 - math.frexp(float(weights.sum()))[1]
        z = 0
        for N, weight in enumerate(weights):
            z += math.comb(N + M - 2, M - 2)
            exact = Fraction(weight) * 2**shift / z
            assert abs(Fraction(hi[N]) + Fraction(lo[N]) - exact) <= exact / 2**102

    @pytest.mark.parametrize(
        "p, M",
        [
            # z_N reaches 2**1466, so w spans more than the doubles do
            (Pmf(np.array([0.5, *[0.0] * 2998, 2.0**-699]), 0.5), 300),
            (Pmf(np.random.default_rng(4).dirichlet(np.ones(500))), 10**9),
        ],
        ids=["too-wide-a-range", "many-cells"],
    )
    def test_router_refuses_the_suffix_route(self, monkeypatch, p, M):
        # where the cost rule picks it but the range does not fit, and at
        # many cells: the suffix kernel is never called
        def refuse(*args):
            raise AssertionError("suffix route taken")

        expected = toeplitz_kernel(p.as_array(), M)
        monkeypatch.setattr(combinatorics, "_suffix_mixture", refuse)
        assert scatter_pmf(p, M).as_array().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M", GRID_CELLS)
    def test_one_kernel_call_per_stage(self, monkeypatch, M):
        # the router builds the numerators once per stage and calls one kernel,
        # also where it refuses the suffix route for its range
        calls = []
        for name in ("_numerators", "_suffix_mixture", "_toeplitz_mixture"):
            def counted(*args, _name=name, _function=getattr(combinatorics, name)):
                calls.append(_name)
                return _function(*args)

            monkeypatch.setattr(combinatorics, name, counted)
        one_kernel = [["_numerators", "_suffix_mixture"], ["_numerators", "_toeplitz_mixture"]]
        for p in GRID_INPUTS:
            for _ in range(3):  # stages
                del calls[:]
                rows = np.count_nonzero(p.as_array())
                p = scatter_pmf(p, M)
                assert calls in (one_kernel if rows > 1 else [[]])

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
        whole = toeplitz_kernel(weights, M)
        monkeypatch.setattr(combinatorics, "_BLOCK_ELEMENTS", budget)
        assert toeplitz_kernel(weights, M).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("M", [2, 3, 64, 25000])
    def test_single_weight_gives_the_exact_row(self, M):
        p = Pmf((0.0, 0.0, 0.0, 0.25, 0.0), 0.75)
        expected = np.zeros(5)
        expected[:4] = 0.25 * np.array(fock_scatter_pmf(3, M).probs)
        assert scatter_pmf(p, M) == Pmf(expected, 0.75)

    @pytest.mark.parametrize("M", [25000, 10**6])
    def test_tiny_weights_keep_their_precision(self, M):
        # unscaled, these weights' Toeplitz columns would be subnormal at
        # 2**-256 of a weight; the entries n >= 1 come from them alone
        probs = np.zeros(41)
        probs[0], probs[20], probs[40] = 1.0, 1e-250, 1e-280
        p = Pmf(probs)
        assert worst_relative_error(p, scatter_pmf(p, M).as_array(), M) < 4e-16

    @pytest.mark.parametrize("M", [400, 1300])
    def test_subnormal_band_is_within_an_ulp(self, M):
        # powers of two down to 2**-1074, a Toeplitz stage: every entry below
        # 2**-969, up to one past the last nonzero one, is within one ulp of
        # the exact mixture; up to 18.2 and 20.7 ulp off while tiny rows took
        # their own scale and the sums ran unscaled through the subnormals
        weights = np.append(np.ldexp(1.0, -np.arange(1, 1075)), 2.0**-1074)
        out = toeplitz_kernel(weights, M)
        assert out.tobytes() == scatter_pmf(Pmf(weights), M).as_array().tobytes()
        top = len(weights)
        b = [math.comb(k + M - 2, M - 2) for k in range(top)]
        z = list(accumulate(b))
        # each weights[N] / z_N in fixed point, so that the truncation, at most
        # b_{N-n} 2**-S a term, stays below 2**-1200 an entry
        S = z[-1].bit_length() + top.bit_length() + 1200
        scaled = []
        for N, weight in enumerate(weights.tolist()):
            num, den = weight.as_integer_ratio()
            scaled.append((num << S) // (den * z[N]))
        stop = int(np.flatnonzero(out)[-1]) + 2
        band = np.flatnonzero(out[:stop] < 2.0**-969).tolist()
        assert stop <= top and len(band) > 2
        for n in band:
            exact = sum(scaled[N] * b[N - n] for N in range(n, top))  # exact * 2**S
            ulp = max(exact.bit_length() - S - 53, -1074)
            num, den = float(out[n]).as_integer_ratio()
            assert abs((num << S) - exact * den) <= den << (S + ulp), n

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
             "6c0ad1795082a897ace58cb7a77f22699ff9735388551e4974b89aa7fb5b382f"),
            # the second stage has weights below 2**-700, on the Toeplitz route
            (poisson_pmf(300.0), 25000, 2,
             "ab90cf7531f0897dfdb708afeb52d9b10a81febe9a405f4c5e7090c8845ed8e7"),
            # the third stage has weights below 2**-700, on the suffix route
            (poisson_pmf(300.0), 98, 3,
             "f19285ddd899259c2987d7c1034a27430dada0e265beba70dde0aa84621ad28e"),
        ],
        ids=["suffix", "toeplitz", "tiny-split", "tiny-suffix"],
    )
    def test_mixtures_pinned(self, p, M, stages, digest):
        # suffix recorded before both kernels took z_N from one numerator
        # recurrence, tiny-suffix when each stage first took one kernel, and
        # the two Toeplitz stages when that route took the suffix route's
        # power-of-two scale, which moved subnormal entries only; thermal_pmf's
        # entries are Python float powers, so the thermal digests hold
        # whichever numpy kernels the CPU selects
        data = repr(cascade_pmf(p, M, stages).probs).encode()
        assert hashlib.sha256(data).hexdigest() == digest

    # every input's bits come from IEEE basic operations alone, with no libm
    # or numpy kernel picked by CPU: Poisson ratio products, a Fock mixture,
    # integers over their sum, and powers of two down to 2**-1074
    @pytest.mark.parametrize(
        "p, digest",
        [
            (poisson_pmf(2.0), "95e58b54704d5606878dd272d3ecca57541de639ecf851448185ab79ea59f592"),
            (poisson_pmf(30.0), "09f09ce584fb4509017e421ee1437b18613f7ab1eb5bb8cf4288c20206a32efe"),
            (poisson_pmf(300.0),
             "0cb5d46532d56a5d6ce16ae1715479874c5232e99e350b7982d3e162c5796ca5"),
            (Pmf(np.bincount([2, 2, 17, 120], minlength=121) / 4),
             "05993d3c02b54bf85899c236a451e4a1978b0542490ee25a25dab8350c2960b2"),
            (Pmf(np.arange(1, 301) / (300 * 301 // 2)),
             "22e69650e2582ee206523fb70ea78d90d21c698f08e5a2145c3f8f2f917b1d68"),
            (Pmf(np.append(np.ldexp(1.0, -np.arange(1, 1075)), 2.0**-1074)),
             "69b664666434096ea80758bd9b07bbd18fc8b6b1979175bcda415a24a906e8a0"),
        ],
        ids=["poisson-2", "poisson-30", "poisson-300", "fock-mixture", "ramp", "powers-of-two"],
    )
    def test_cascade_grid_pinned(self, p, digest):
        # each stage of a three-stage cascade at each cell count: 91 stages
        # take the suffix route and 125 the Toeplitz route, two of them (the
        # powers of two at M = 300 and 400) refused the suffix route for
        # range, and 68 mix weights below 2**-700; digests recorded when the
        # Toeplitz route took the suffix route's power-of-two scale, which
        # moved subnormal entries only
        data = hashlib.sha256()
        for M in (2, 3, 8, 17, 45, 98, 245, 300, 400, 1300, 4096, 25275):
            stage = p
            for _ in range(3):
                stage = cascade_pmf(stage, M, 1)
                data.update(repr(stage.probs).encode())
        assert data.hexdigest() == digest

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

    # the law of every order 2..6, composed exactly over the stages, against
    # the input's own g^(k), where the output mean**6 is a normal double
    @given(_light_inputs, _cells, st.integers(1, 3))
    @_derandomized
    def test_correlation_laws_hold_at_orders_2_to_6(self, p, M, stages):
        assume((pmf_mean(p) / M**stages) ** 6 > 1e-300)
        rep_in = correlation_report(p, 6)
        rep_out = correlation_report(cascade_pmf(p, M, stages), 6)
        for k in range(2, 7):
            law = Fraction(rep_in.g_at(k)) * gn_out_predicted(Fraction(1), k, M) ** stages
            assert rep_out.g_at(k) == pytest.approx(float(law), rel=1e-13, abs=0)

    # draws found beyond the 80 above: where g^(k) is carried by entries near
    # or below 2**-1022, the subnormal output entries keep too few bits, or
    # round to 0.0, for the measured g^(k) to meet the law within 1e-13
    @pytest.mark.parametrize("probs, M, stages, k", [
        ((0.6413731743736372, 0.3586268256263628, 5.222322134e-313), 33, 1, 2),
        ((3.7056154348353295e-137, 0.9596575194757193, 0.04034248052428067,
          1.3919535805002007e-300), 3250, 2, 3),
        ((6.251158349049305e-211, 0.5411801200283725, 0.012427544340790166,
          1.5270297804583596e-72, 0.4463923356308374, 1.2230423535881757e-308), 126, 3, 5),
    ], ids=["subnormal-in", "subnormal-out", "underflow-to-zero"])
    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="g^(k) carried by entries below 2**-1022"
    )
    def test_correlation_laws_near_the_bottom_of_the_doubles(self, probs, M, stages, k):
        p = Pmf(probs)
        g_in = Fraction(correlation_report(p, k).g_at(k))
        law = g_in * gn_out_predicted(Fraction(1), k, M) ** stages
        measured = correlation_report(cascade_pmf(p, M, stages), k).g_at(k)
        assert measured == pytest.approx(float(law), rel=1e-13, abs=0)

    # the row kernel stops at the first entry that rounds to 0.0, because the
    # exact numerators never rise with n; at M = 1 the row is the point mass
    @given(st.integers(0, 3000), st.integers(2, 10**4))
    @_derandomized
    def test_fock_rows_never_rise(self, N, M):
        z = math.comb(N + M - 1, M - 1)
        numerators = list(combinatorics._row_numerators(z, N, M))
        assert all(a >= b for a, b in zip(numerators, numerators[1:]))
        assert fock_scatter_pmf(N, M).probs == tuple(b / z for b in numerators)

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
        head = weights[:top]
        kernels = [toeplitz_kernel(head, M)]
        suffix, calls = routed(head, M, "_suffix_mixture")
        if "_suffix_mixture" in calls:  # where its range fits
            toeplitz, compared = kernels[0], kernels[0] > 1e-300
            assert np.all(np.abs(suffix - toeplitz)[compared] <= 4e-16 * toeplitz[compared])
            kernels.append(suffix)
        out = scatter_pmf(p, M).as_array()
        assert not out[top:].any()
        assert any(out[:top].tobytes() == kernel.tobytes() for kernel in kernels)

    # supports where the cost rule always picks the suffix route, so that the
    # range alone decides; the last weight puts the least scaled w_N within a
    # few binary exponents of 2**-969
    @given(st.integers(2000, 3000), st.integers(200, 300), st.floats(-3.0, 3.0))
    @_derandomized
    def test_suffix_route_keeps_w_in_range(self, L, M, offset):
        weights = np.zeros(L)
        z_top = math.comb(L + M - 2, M - 1)
        weights[0], weights[-1] = 0.5, 2.0 ** (offset - 969 - 1020 + math.log2(z_top))
        # w as the router forms it, in the one scale that both routes take
        w, f, _, _ = routed(weights, M, "_toeplitz_mixture")[1]["_toeplitz_mixture"]
        least = np.ldexp(w, f)[weights > 0].min()
        _, calls = routed(weights, M, "_suffix_mixture")  # what the cost rule picks here
        assert list(calls) == ["_suffix_mixture" if least >= 2.0**-969 else "_toeplitz_mixture"]


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


#: Reals from here on round past the largest double (2**1024 rounds to even).
_PAST_THE_DOUBLES = Fraction(2**1024 - 2**970)


#: Finite g >= 0, with extra draws among the subnormals and near the top.
_law_inputs = st.one_of(
    st.floats(0.0, 1e300), st.floats(0.0, 2.0**-1022), st.floats(1e295, sys.float_info.max)
)
_large_cells = st.integers(1, 2**53 - 3)


def rounded_once(exact):
    """``exact`` rounded to the nearest double, or None past the doubles."""
    return None if abs(exact) >= _PAST_THE_DOUBLES else float(exact)


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

    # g from 0 up to the largest double, M up to 2**53 - 3: each law value is its
    # exact rational rounded once, or past the doubles and named by its order;
    # the examples put 3 g / 2 one ulp below, and at, the midpoint between the
    # largest double and 2**1024
    @given(_law_inputs, st.integers(2, 12), st.one_of(st.integers(1, 100), _large_cells))
    @example(1.1984620899082103e308, 2, 3)
    @example(1.1984620899082105e308, 2, 3)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_law_is_its_exact_rational_rounded_once(self, g, order, M):
        exact = Fraction(g) * math.factorial(order)
        for j in range(order):
            exact *= Fraction(M, M + j)
        assert gn_out_predicted(Fraction(g), order, M) == exact
        shorthand = {2: g2_out_predicted, 3: g3_out_predicted}.get(order)
        if (expected := rounded_once(exact)) is None:
            with pytest.raises(OverflowError, match=rf"g\^\({order}\)"):
                gn_out_predicted(g, order, M)
        else:
            value = gn_out_predicted(g, order, M)
            assert type(value) is float and value == expected
            assert shorthand is None or shorthand(g, M) == expected

    # the deep-cascade law (order!)**stages g rounds once in the same way
    @given(_law_inputs, st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_deep_cascade_law_is_its_exact_rational_rounded_once(self, g, order, stages):
        exact = Fraction(g) * math.prod(range(1, order + 1)) ** stages
        assert gn_limit(Fraction(g), order, stages) == exact
        if (expected := rounded_once(exact)) is None:
            with pytest.raises(OverflowError, match=rf"g\^\({order}\)"):
                gn_limit(g, order, stages)
        else:
            value = gn_limit(g, order, stages)
            assert type(value) is float and value == expected

    @pytest.mark.parametrize("law", [partial(gn_out_predicted, M=8), gn_limit])
    def test_a_non_finite_g_has_no_law_value(self, law):
        with pytest.raises(ValueError, match="NaN"):
            law(math.nan, order=2)
        for g in (math.inf, -math.inf):
            with pytest.raises(OverflowError, match="Infinity"):
                law(g, order=3)

    def test_high_orders_give_every_finite_value(self):
        # k! g M**(k-1) overflows a double on the way, or the denominator
        # does; the law's value itself is finite and rounded once
        g90 = correlation_report(thermal_pmf(3.0), 90).g_at(90)
        for g, order in ((g90, 90), (2.0, 170)):
            exact = gn_out_predicted(Fraction(g), order, 8)
            assert isinstance(exact, Fraction)
            assert gn_out_predicted(g, order, 8) == float(exact)
        assert gn_out_predicted(g90, 90, 8) == pytest.approx(6.434e162, rel=1e-3)
        assert gn_out_predicted(2.0, 170, 8) == pytest.approx(7.0e141, rel=1e-2)

    def test_a_law_value_past_the_doubles_names_its_order(self):
        with pytest.raises(OverflowError, match=r"g\^\(100\)"):
            gn_out_predicted(1e300, 100, 8)

    def test_a_moment_past_the_doubles_names_its_order(self):
        # the mean is 10, and n (n - 1) ... (n - 131) overflows at the largest
        # n; numpy warnings fail the test
        with pytest.raises(OverflowError, match="factorial moment 132 overflows"):
            correlation_report(thermal_pmf(10.0), 132)

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

    def test_huge_stage_count_returns_the_fixed_point(self):
        p = thermal_pmf(3.0)
        assert cascade_pmf(p, 2, 10**30) == cascade_pmf(p, 2, 2000)
        assert cascade_pmf(p, 1, 10**30) is p

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            cascade_pmf(fock_pmf(1), 3, 0)

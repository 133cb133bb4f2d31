import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rggstats
from rggstats.core import _as_int
from rggstats import (
    Coherent,
    CorrelationReport,
    Custom,
    Fock,
    InvalidPmf,
    MCRunResult,
    OutOfRange,
    Pmf,
    SqueezedCoherent,
    TailTooHeavy,
    Thermal,
    pmf_mean,
    total_variation,
)


class TestPmfValidation:
    def test_accepts_normalized(self):
        p = Pmf((0.25, 0.75))
        assert p.probs == (0.25, 0.75)
        assert p.tail_mass == 0.0
        assert p.n_max == 1
        assert len(p) == 2

    def test_accepts_explicit_tail(self):
        p = Pmf((0.9,), 0.1)
        assert p.tail_mass == 0.1

    def test_rejects_empty(self):
        with pytest.raises(InvalidPmf):
            Pmf(())

    def test_rejects_negative_entry(self):
        with pytest.raises(InvalidPmf, match="negative"):
            Pmf((1.1, -0.1))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidPmf):
            Pmf((float("nan"), 1.0))
        with pytest.raises(InvalidPmf):
            Pmf((float("inf"),))

    def test_rejects_bad_sum_instead_of_renormalizing(self):
        with pytest.raises(InvalidPmf, match="normalize explicitly"):
            Pmf((0.2, 0.2))

    def test_rejects_negative_tail(self):
        with pytest.raises(InvalidPmf):
            Pmf((1.0,), -1e-3)

    def test_sum_tolerance_boundary(self):
        Pmf((0.5, 0.5 + 5e-10))  # inside the 1e-9 window
        with pytest.raises(InvalidPmf):
            Pmf((0.5, 0.5 + 5e-9))

    def test_array_list_and_int_inputs_store_the_same_floats(self):
        for entries in ([0.25, 0.75], [0, 1]):
            stored = [Pmf(probs).probs for probs in (np.array(entries), entries, tuple(entries))]
            assert stored[0] == stored[1] == stored[2] == tuple(float(p) for p in entries)
            assert all(type(p) is float for probs in stored for p in probs)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(InvalidPmf, match="1-d"):
            Pmf(np.array([[0.5], [0.5]]))

    def test_as_array_is_a_copy(self):
        p = Pmf((1.0,))
        arr = p.as_array()
        arr[0] = 0.0
        assert p.probs == (1.0,)


class TestPmfMean:
    def test_point_mass(self):
        assert pmf_mean(Pmf((0.0, 0.0, 0.0, 0.0, 0.0, 1.0))) == 5.0

    def test_two_point(self):
        assert pmf_mean(Pmf((0.5, 0.5))) == 0.5

    def test_tail_guard(self):
        assert pmf_mean(Pmf((1.0 - 1e-7,), 1e-7)) == 0.0
        with pytest.raises(TailTooHeavy):
            pmf_mean(Pmf((1.0 - 1e-5,), 1e-5))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=30),
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=30),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_mixture_mean_is_linear(self, wa, wb, w):
        if sum(wa) <= 0 or sum(wb) <= 0:
            return
        a, b = Pmf(np.divide(wa, sum(wa))), Pmf(np.divide(wb, sum(wb)))
        width = max(len(a), len(b))
        mix = np.zeros(width)
        mix[: len(a)] += w * a.as_array()
        mix[: len(b)] += (1.0 - w) * b.as_array()
        mixed_mean = pmf_mean(Pmf(mix))
        expected = w * pmf_mean(a) + (1.0 - w) * pmf_mean(b)
        assert abs(mixed_mean - expected) <= 1e-12 * max(1.0, abs(expected))


class TestTotalVariation:
    def test_identical(self):
        p = Pmf((0.3, 0.7))
        assert total_variation(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation(Pmf((1.0,)), Pmf((0.0, 1.0))) == 1.0

    def test_hand_value(self):
        assert total_variation(Pmf((1.0,)), Pmf((0.5, 0.5))) == 0.5

    def test_tail_counts_as_an_outcome(self):
        assert total_variation(Pmf((0.9,), 0.1), Pmf((1.0,))) == pytest.approx(0.1)


class TestAsInt:
    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.uint8(7), 2**70])
    def test_integers_pass_as_plain_int(self, value):
        out = _as_int("x", value, 0)
        assert out == int(value) and type(out) is int

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, np.bool_(True), "3", None, 1 + 0j])
    def test_non_integers_raise_type_error(self, value):
        with pytest.raises(TypeError, match="x must be an integer"):
            _as_int("x", value, 0)

    @pytest.mark.parametrize("value, minimum", [(-1, 0), (0, 1), (np.int32(1), 2)])
    def test_below_minimum_raises_value_error(self, value, minimum):
        with pytest.raises(ValueError, match=f"x must be >= {minimum}"):
            _as_int("x", value, minimum)

    def test_no_minimum_accepts_negatives(self):
        assert _as_int("x", -5) == -5


class TestInputStateSpecs:
    def test_fock_validation(self):
        assert Fock(0).n == 0
        with pytest.raises(ValueError):
            Fock(-1)
        with pytest.raises(TypeError):
            Fock(2.5)
        with pytest.raises(TypeError):
            Fock(True)

    @pytest.mark.parametrize("cls", [Coherent, Thermal])
    def test_mean_validation(self, cls):
        assert cls(0.0).mean == 0.0
        with pytest.raises(ValueError):
            cls(-0.5)
        with pytest.raises(ValueError):
            cls(float("nan"))

    def test_squeezed_validation(self):
        s = SqueezedCoherent(2.0, 0.5, 1.0, 3.0)
        assert s.mean_photons == pytest.approx(4.0 + math.sinh(1.0) ** 2)
        with pytest.raises(ValueError):
            SqueezedCoherent(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            SqueezedCoherent(0.0, 0.0, -0.1, 0.0)
        with pytest.raises(ValueError, match="theta must be finite, got nan"):
            SqueezedCoherent(1.0, 0.0, 0.5, float("nan"))
        with pytest.raises(ValueError, match="alpha_mag must be finite, got inf"):
            SqueezedCoherent(float("inf"), 0.0, 0.5, 0.0)

    def test_custom_requires_pmf(self):
        Custom(Pmf((1.0,)))
        with pytest.raises(TypeError):
            Custom([1.0])


class TestCorrelationReport:
    def _ok(self):
        return CorrelationReport(
            mean=2.0, factorial_moments=(2.0, 3.0, 1.0), g=(0.75, 0.125), order=3
        )

    def test_accessors(self):
        rep = self._ok()
        assert rep.g_at(2) == rep.g2 == 0.75
        assert rep.g_at(3) == rep.g3 == 0.125
        with pytest.raises(OutOfRange):
            rep.g_at(4)

    def test_length_checks(self):
        with pytest.raises(ValueError):
            CorrelationReport(mean=1.0, factorial_moments=(1.0,), g=(1.0,), order=2)
        with pytest.raises(ValueError, match="one correlation per order"):
            CorrelationReport(mean=1.0, factorial_moments=(1.0, 1.0), g=(1.0, 1.0), order=2)
        with pytest.raises(ValueError):
            CorrelationReport(mean=1.0, factorial_moments=(2.0, 1.0), g=(1.0,), order=2)
        with pytest.raises(ValueError):
            CorrelationReport(mean=1.0, factorial_moments=(1.0, -1.0), g=(1.0,), order=2)

    def test_order_must_be_an_integer(self):
        with pytest.raises(TypeError, match="order must be an integer"):
            CorrelationReport(mean=1.0, factorial_moments=(1.0, 1.0), g=(1.0,), order=True)
        with pytest.raises(ValueError, match="order must be >= 2, got 1"):
            CorrelationReport(mean=1.0, factorial_moments=(1.0,), g=(), order=1)

    def test_g3_requires_order_3(self):
        rep = CorrelationReport(mean=1.0, factorial_moments=(1.0, 1.0), g=(1.0,), order=2)
        with pytest.raises(OutOfRange):
            rep.g3


class TestMCRunResult:
    def test_counts_must_sum_to_frames(self):
        MCRunResult(histogram=(3, 7), frames=10, seed=0, M=2)
        with pytest.raises(ValueError):
            MCRunResult(histogram=(3, 7), frames=11, seed=0, M=2)
        with pytest.raises(ValueError, match="counts must be >= 0"):
            MCRunResult(histogram=(-1, 11), frames=10, seed=0, M=2)

    def test_frames_and_cells_must_be_integers(self):
        with pytest.raises(TypeError, match="frames must be an integer"):
            MCRunResult(histogram=(3, 7), frames=10.0, seed=0, M=2)
        with pytest.raises(TypeError, match="M must be an integer"):
            MCRunResult(histogram=(3, 7), frames=10, seed=0, M=2.0)
        with pytest.raises(ValueError, match="frames must be >= 1, got 0"):
            MCRunResult(histogram=(), frames=0, seed=0, M=2)
        with pytest.raises(ValueError, match="M must be >= 1, got 0"):
            MCRunResult(histogram=(3, 7), frames=10, seed=0, M=0)

    def test_blocks_must_sum_to_total(self):
        MCRunResult(
            histogram=(2, 2),
            frames=4,
            seed=0,
            M=2,
            block_histograms=((1, 1), (1, 1)),
        )
        with pytest.raises(ValueError):
            MCRunResult(
                histogram=(2, 2),
                frames=4,
                seed=0,
                M=2,
                block_histograms=((1, 1), (1, 0)),
            )
        with pytest.raises(ValueError, match="same width as the total"):
            MCRunResult(
                histogram=(2, 2),
                frames=4,
                seed=0,
                M=2,
                block_histograms=((1, 1), (1, 1, 0)),
            )


class TestPackageApi:
    # the package API, sorted; the package builds it from the modules' __all__
    NAMES = [
        "Coherent", "CorrelationReport", "Custom", "DimTooSmall", "EmpiricalReport",
        "Fock", "InputStateSpec", "InvalidPmf", "MCConfig", "MCRunResult",
        "NormalizationFailure", "OutOfRange", "Pmf", "SqueezedCoherent", "TailTooHeavy",
        "Thermal", "UnstableEvaluation", "ZeroMean", "__version__", "approx_scatter_pmf",
        "cascade_pmf", "coherent_limit_pmf", "config_count", "correlation_report",
        "empirical_report", "fock_pmf", "fock_pn_limit_float64", "fock_pn_limit_fractions",
        "fock_pn_limit_pmf", "fock_scatter_fractions", "fock_scatter_pmf",
        "g2_out_predicted", "g3_out_predicted", "gn_limit", "gn_out_predicted", "input_pmf",
        "pmf_mean", "poisson_pmf", "recommended_oracle_dim", "run_mc", "scatter_pmf",
        "squeezed_coherent_pmf", "squeezed_oracle_pmf", "thermal_pmf", "total_variation",
    ]

    def test_names_are_pinned(self):
        assert sorted(rggstats.__all__) == self.NAMES

    def test_each_name_is_the_object_of_the_one_module_that_exports_it(self):
        modules = [rggstats.core, rggstats.inputs, rggstats.combinatorics,
                   rggstats.transform, rggstats.plimit, rggstats.montecarlo]
        for name in self.NAMES:
            owners = [m for m in modules if name in m.__all__]
            if name == "__version__":
                assert owners == [] and isinstance(rggstats.__version__, str)
            else:
                [owner] = owners
                assert getattr(rggstats, name) is getattr(owner, name)

    def test_module_constants_stay_importable(self):
        # not in the package API, which the pinned names above already show
        from rggstats.core import PMF_SUM_TOL, TAIL_CEILING
        from rggstats.inputs import N_CAP, TAIL_TARGET
        from rggstats.montecarlo import JACKKNIFE_BLOCKS

        for value in (PMF_SUM_TOL, TAIL_CEILING, N_CAP, TAIL_TARGET, JACKKNIFE_BLOCKS):
            assert value > 0

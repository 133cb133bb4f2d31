import hashlib
import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from rggstats import (
    Coherent,
    CorrelationReport,
    Custom,
    Fock,
    MCConfig,
    MCRunResult,
    Pmf,
    TailTooHeavy,
    Thermal,
    ZeroMean,
    config_count,
    correlation_report,
    empirical_report,
    input_pmf,
    run_mc,
    scatter_pmf,
)
from rggstats import montecarlo
from rggstats.montecarlo import _replay_frame


# (input, M, seed) for test_marginal_matches_exact_row
MARGINAL_CASES = (
    (Fock(3), 3, 99),
    (Fock(3), 9, 100),  # fewer stars than bars
    (Fock(12), 4, 101),  # more stars than bars
    (Fock(50), 2, 102),  # flat row: every count 0..50 equally likely
    (Thermal(3.0), 6, 103),  # a mixture over photon numbers
    (Coherent(8.0), 4096, 104),  # nearly every frame stops at its first slot
)


def reveal_frame(key, N, M):
    """Reference: one frame's pattern, revealed slot by slot in plain Python.

    Slot r takes draw r + 1 of the frame key and is a bar when
    ``x * (s + b) < b``; once the stars or the bars run out, the stars
    left go to the current cell.
    """
    occ = [0] * M
    s, b, cell = N, M - 1, 0
    r = 0
    while s and b:
        x = float(montecarlo._uniform(key, r + 1)[0])
        if x * (s + b) < b:
            b -= 1
            cell += 1
        else:
            s -= 1
            occ[cell] += 1
        r += 1
    occ[cell] += s
    return occ


class TestSampleConfiguration:
    """The sequential-reveal core of run_mc: one occupation pattern per frame."""

    def test_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            N = int(rng.integers(0, 40))
            M = int(rng.integers(1, 12))
            occ = _replay_frame(MCConfig(Fock(N), M, 1, seed=int(rng.integers(2**63))), 0)
            assert occ.sum() == N
            assert len(occ) == M
            assert (occ >= 0).all()

    def test_no_photons(self):
        assert _replay_frame(MCConfig(Fock(0), 5, 1, seed=0), 0).tolist() == [0, 0, 0, 0, 0]

    def test_single_cell(self):
        assert _replay_frame(MCConfig(Fock(7), 1, 1, seed=0), 0).tolist() == [7]

    @pytest.mark.parametrize(
        "N, M", [(2.5, 3), (True, 3), (3, 2.7), (3, False), (2.0, 3), ("3", 3), (3, None)]
    )
    def test_non_integer_counts_rejected(self, N, M):
        with pytest.raises(TypeError):
            MCConfig(Fock(N), M, 10, seed=0)

    def test_numpy_integer_counts_accepted(self):
        cfg = MCConfig(Fock(np.int64(5)), np.int32(3), 10, seed=0)
        occ = _replay_frame(cfg, 0)
        assert occ.sum() == 5 and len(occ) == 3
        assert run_mc(cfg).frames == 10

    def test_uniform_over_configurations(self):
        # N=2, M=2: three patterns, each 1/3
        draws = 60_000
        result = run_mc(MCConfig(Fock(2), 2, draws, seed=12, record_configurations=True))
        counts = dict(result.configuration_counts)
        assert set(counts) == {(0, 2), (1, 1), (2, 0)}
        _, p = stats.chisquare(list(counts.values()))
        assert p > 1e-3

    @pytest.mark.parametrize(
        "spec, M",
        [
            pytest.param(Fock(0), 1, id="fock0-M1"),
            pytest.param(Fock(5), 1, id="fock5-M1"),
            pytest.param(Coherent(2.0), 1, id="coherent2-M1"),
            pytest.param(Fock(0), 2, id="fock0-M2"),
            pytest.param(Fock(0), 4, id="fock0-M4"),
            pytest.param(Thermal(3.0), 2, id="thermal3-M2"),
            pytest.param(Fock(1), 2, id="fock1-M2"),
            pytest.param(Fock(7), 2, id="fock7-M2"),
            pytest.param(Fock(3), 4, id="fock3-M4"),
            pytest.param(Fock(4), 3, id="fock4-M3"),
            pytest.param(Fock(2), 6, id="fock2-M6"),
            pytest.param(Thermal(3.0), 6, id="thermal3-M6"),
            pytest.param(Thermal(20.0), 30, id="thermal20-M30"),
            pytest.param(Coherent(50.0), 200, id="coherent50-M200"),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2**63 + 5])
    def test_pixel0_is_column_0_of_the_patterns(self, spec, M, seed):
        # a pixel-0 run stops each frame at its first bar, a recorded run
        # reveals the whole frame; both read the same draws
        cdf = np.cumsum(input_pmf(spec).as_array())
        for frames in np.array_split(np.arange(30_000), 3):
            pixel0 = montecarlo._sample_frames(cdf, seed, frames, M, record=False)
            patterns = montecarlo._sample_frames(cdf, seed, frames, M, record=True)
            assert pixel0.shape == (len(frames),)
            assert np.array_equal(pixel0, patterns[:, 0])

    @pytest.mark.parametrize(
        "N, M",
        [
            pytest.param(7, 3, id="N-above-M"),
            pytest.param(2, 6, id="N-below-M"),
            pytest.param(4, 4, id="N-equals-M"),
            pytest.param(0, 5, id="no-stars"),
            pytest.param(5, 1, id="one-cell"),
            pytest.param(6, 2, id="two-cells"),
        ],
    )
    @pytest.mark.parametrize("seed", [3, 2**63 + 11])
    def test_patterns_match_slot_by_slot_reveal(self, N, M, seed):
        frames = np.arange(300)
        cdf = np.cumsum(input_pmf(Fock(N)).as_array())
        patterns = montecarlo._sample_frames(cdf, seed, frames, M, record=True)
        keys = montecarlo._frame_keys(seed, frames)
        expected = [reveal_frame(keys[f : f + 1], N, M) for f in frames]
        assert patterns.tolist() == expected

    def test_marginal_matches_exact_row(self):
        # pixel 0's histogram against the exact scattered pmf; bins expecting
        # fewer than 5 counts are pooled into one, so the chi-square law holds
        draws = 40_000
        for spec, M, seed in MARGINAL_CASES:
            hist = np.asarray(run_mc(MCConfig(spec, M, draws, seed=seed)).histogram)
            exact = scatter_pmf(input_pmf(spec), M).as_array() * draws
            width = max(len(hist), len(exact))
            hist = np.pad(hist, (0, width - len(hist)))
            exact = np.pad(exact, (0, width - len(exact)))
            rare = exact < 5
            observed, expected = hist[~rare], exact[~rare]
            if rare.any():
                observed = [*observed, hist[rare].sum()]
                expected = [*expected, draws - expected.sum()]
            _, p = stats.chisquare(observed, expected)
            assert p > 1e-3, (spec, M, seed, p)


class TestRunMC:
    def test_deterministic_given_seed(self):
        cfg = MCConfig(Coherent(2.0), 4, 500, seed=123)
        assert run_mc(cfg) == run_mc(cfg)

    def test_different_seeds_differ(self):
        a = run_mc(MCConfig(Coherent(2.0), 4, 500, seed=1))
        b = run_mc(MCConfig(Coherent(2.0), 4, 500, seed=2))
        assert a.histogram != b.histogram

    def test_frames_are_independent_substreams(self):
        # with <= 100 frames each block is a single frame, so a longer run
        # must reproduce a shorter run's frames exactly
        short = run_mc(MCConfig(Coherent(2.0), 4, 20, seed=77))
        long = run_mc(MCConfig(Coherent(2.0), 4, 40, seed=77))
        assert np.array_equal(short.block_histograms, long.block_histograms[:20])

    def test_recording_does_not_disturb_the_stream(self):
        plain = run_mc(MCConfig(Fock(3), 3, 300, seed=5))
        recorded = run_mc(MCConfig(Fock(3), 3, 300, seed=5, record_configurations=True))
        assert plain.histogram == recorded.histogram
        assert sum(c for _, c in recorded.configuration_counts) == 300

    def test_every_configuration_reachable(self):
        result = run_mc(MCConfig(Fock(2), 3, 4000, seed=9, record_configurations=True))
        assert len(result.configuration_counts) == config_count(2, 3)

    def test_vacuum_input(self):
        result = run_mc(MCConfig(Fock(0), 6, 50, seed=0))
        assert result.histogram == (50,)

    def test_single_photon_rate(self):
        frames = 40_000
        result = run_mc(MCConfig(Fock(1), 8, frames, seed=21))
        p_hat = result.histogram[1] / frames
        sigma = math.sqrt((1 / 8) * (7 / 8) / frames)
        assert abs(p_hat - 1 / 8) < 5 * sigma

    def test_replayable_frame_streams(self):
        # the result of frame f depends only on (seed, f)
        cfg = MCConfig(Fock(4), 2, 10, seed=31)
        result = run_mc(cfg)
        occ = _replay_frame(cfg, 3)
        assert occ.sum() == 4
        frame3 = result.block_histograms[3]
        assert frame3[int(occ[0])] == 1

    def test_recorded_configurations_are_frame_replays(self):
        cfg = MCConfig(Thermal(3.0), 5, 400, seed=17, record_configurations=True)
        replays = Counter(tuple(_replay_frame(cfg, f).tolist()) for f in range(cfg.frames))
        assert run_mc(cfg).configuration_counts == tuple(sorted(replays.items()))

    @pytest.mark.parametrize("N, M, frames", [(2, 2, 20_000), (5, 4, 20_000), (20, 32, 2_000)])
    def test_configuration_counts_match_row_unique(self, N, M, frames):
        # reference: np.unique over whole pattern rows of every frame at once,
        # and the pixel-0 sampler over the same frames
        cfg = MCConfig(Fock(N), M, frames, seed=808, record_configurations=True)
        cdf = np.cumsum(input_pmf(cfg.input).as_array())
        occupation = montecarlo._sample_frames(cdf, cfg.seed, np.arange(frames), M, record=True)
        rows, counts = np.unique(occupation, axis=0, return_counts=True)
        expected = tuple(zip(map(tuple, rows.tolist()), counts.tolist()))
        result = run_mc(cfg)
        assert result.configuration_counts == expected
        pixel0 = montecarlo._sample_frames(cdf, cfg.seed, np.arange(frames), M, record=False)
        assert result.histogram == tuple(np.bincount(pixel0, minlength=N + 1).tolist())

    @pytest.mark.parametrize("budget", [1, 40, 333])
    def test_result_does_not_depend_on_chunking(self, monkeypatch, budget):
        # thermal counts put frames of many photon numbers, with fewer and
        # with more stars than bars, into one chunk
        cfg = MCConfig(Thermal(3.0), 6, 700, seed=4242, record_configurations=True)
        whole = run_mc(cfg)
        monkeypatch.setattr(montecarlo, "_CHUNK_FRAMES", budget)
        assert run_mc(cfg) == whole

    @pytest.mark.parametrize("budget", [1, 40, 333])
    def test_pixel0_result_does_not_depend_on_chunking(self, monkeypatch, budget):
        cfg = MCConfig(Thermal(3.0), 6, 700, seed=4242)
        whole = run_mc(cfg)
        monkeypatch.setattr(montecarlo, "_CHUNK_FRAMES", budget)
        assert run_mc(cfg) == whole

    def test_recording_on_and_off_agree(self):
        # Fock(7) over 2 cells puts all 7 stars before the bar in 1/8 of frames
        for spec, M in [
            (Thermal(3.0), 6),
            (Fock(0), 1),
            (Fock(0), 5),
            (Coherent(2.0), 1),
            (Thermal(3.0), 2),
            (Fock(7), 2),
        ]:
            plain = run_mc(MCConfig(spec, M, 5000, seed=31))
            recorded = run_mc(MCConfig(spec, M, 5000, seed=31, record_configurations=True))
            assert plain.histogram == recorded.histogram, (spec, M)
            assert np.array_equal(plain.block_histograms, recorded.block_histograms), (spec, M)
        assert plain.histogram[7] > 0  # Fock(7): frames whose every star came before the bar

    def test_pixel0_builds_no_patterns(self):
        # recording off stops each frame at its first bar and keeps one
        # count per frame, far below the 65 MB of a frames x M pattern matrix
        cfg = MCConfig(Coherent(8.0), 4096, 2000, seed=4242)
        run_mc(cfg)  # warm up imports and caches outside the measurement
        tracemalloc.start()
        try:
            assert run_mc(cfg).frames == 2000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.frames * cfg.M * 8 // 100

    def test_huge_M_reads_pixel_0_cheaply(self):
        # slot counts far beyond any pattern matrix; pixel 0 of 8 photons
        # among 10**12 cells is empty but for odds of about 1e-11 per frame
        result = run_mc(MCConfig(Coherent(8.0), 10**12, 5000, seed=6))
        assert result.histogram[0] == 5000

    def test_heavy_tail_raises(self):
        # draws in the recorded tail would clamp to the last entry and bias
        # the histogram, so the run refuses such an input, as pmf_mean does
        with pytest.raises(TailTooHeavy):
            run_mc(MCConfig(Custom(Pmf([0.5, 0.2], 0.3)), 4, 10_000, 1))
        below = Custom(Pmf([0.5, 0.5 - 2e-7], 2e-7))
        assert run_mc(MCConfig(below, 4, 1000, 1)).frames == 1000

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (
                MCConfig(Coherent(8.0), 8, 100_000, seed=1),
                "3aaab253b772b9fccf8615bb93192346c89d75e9edcbe868f578b0228e2c4992",
            ),
            (
                MCConfig(Fock(20), 32, 20_000, seed=7),
                "48e0f7ddcb8f6ad01eeda9327cce1e9d649725189c770fdbeb0482ae63b3e3cb",
            ),
        ],
    )
    def test_histograms_pinned(self, cfg, digest):
        # digests recorded on the sequential-reveal sampler
        result = run_mc(cfg)
        blocks = tuple(map(tuple, result.block_histograms.tolist()))
        data = repr((result.histogram, blocks)).encode()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (
                MCConfig(Fock(5), 3, 3000, seed=51, record_configurations=True),
                "ed8a67a8c0649c6addac2cd32bd6c41118fdedc1f64b647d0a4333eed20621ee",
            ),
            (
                MCConfig(Fock(2), 6, 3000, seed=52, record_configurations=True),
                "69ba4ca381d516016e53a3b9f5383e331fde696753793178530e5da947c945e2",
            ),
            (
                MCConfig(Thermal(3.0), 6, 700, seed=4242, record_configurations=True),
                "a0c61b617b97007e2a9f7dc44317a8531bca10b2ee942db93c618c93bf6919e6",
            ),
            (
                MCConfig(Coherent(2.0), 1, 500, seed=14, record_configurations=True),
                "56fffa508e2e70a7e79c38b3b0d42b99846cffa07ba0b0a0a365b31d50ba94ea",
            ),
            (
                MCConfig(Fock(0), 4, 50, seed=2**63 + 11, record_configurations=True),
                "72edfb30d2ae29ae0c10596a680acce4e2377bf9b12882f8d3b8a3add8024e2d",
            ),
        ],
        ids=["fock5-M3", "fock2-M6", "thermal3-M6", "coherent2-M1", "fock0-M4"],
    )
    def test_configurations_pinned(self, cfg, digest):
        # every cell of every recorded frame, not pixel 0 alone; digests
        # recorded on the slot-by-slot sampler
        result = run_mc(cfg)
        blocks = tuple(map(tuple, result.block_histograms.tolist()))
        data = repr((result.histogram, blocks, result.configuration_counts))
        assert hashlib.sha256(data.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "N, M, seed",
        [
            (4, 3, 61),  # more stars than bars
            (3, 4, 62),  # as many stars as bars
            (2, 6, 63),  # fewer stars than bars
        ],
    )
    def test_uniform_over_configurations(self, N, M, seed):
        frames = 200 * config_count(N, M)
        result = run_mc(MCConfig(Fock(N), M, frames, seed=seed, record_configurations=True))
        assert len(result.configuration_counts) == config_count(N, M)
        assert all(sum(pattern) == N for pattern, _ in result.configuration_counts)
        _, p = stats.chisquare([count for _, count in result.configuration_counts])
        assert p > 1e-3

    def test_single_cell_holds_every_photon(self):
        result = run_mc(MCConfig(Coherent(2.0), 1, 500, seed=14, record_configurations=True))
        assert result.configuration_counts == tuple(
            ((n,), count) for n, count in enumerate(result.histogram) if count
        )

    @pytest.mark.parametrize("M", [1, 6])
    def test_vacuum_fills_no_cell(self, M):
        result = run_mc(MCConfig(Fock(0), M, 50, seed=0, record_configurations=True))
        assert result.configuration_counts == (((0,) * M, 50),)


def loop_jackknife_errors(result, order):
    """Reference: one correlation_report per delete-one-block replicate."""
    total = np.asarray(result.histogram, dtype=float)
    estimates = []
    for block in result.block_histograms:
        kept = total - np.asarray(block, dtype=float)
        rep = correlation_report(Pmf(kept / kept.sum()), order)
        estimates.append((rep.mean, *rep.g))
    estimates = np.array(estimates)
    n = len(estimates)
    return np.sqrt((n - 1) / n * ((estimates - estimates.mean(axis=0)) ** 2).sum(axis=0))


def oracle_estimates(histogram, order):
    """Reference: factorial moments and g^(2)..g^(order) of a histogram, Fractions rounded once."""
    frames = sum(histogram)
    sums = [sum(c * math.perm(n, k) for n, c in enumerate(histogram)) for k in range(1, order + 1)]
    moments = [float(Fraction(s, frames)) for s in sums]
    g = [float(Fraction(s * frames ** (k - 1), sums[0] ** k)) if sums[0] else math.nan
         for k, s in enumerate(sums[1:], 2)]
    return moments, g


def oracle_report(blocks, order):
    """Reference: the run's report and the jackknife over replicates taken from the oracle."""
    blocks = [list(map(int, block)) for block in blocks]
    total = [sum(column) for column in zip(*blocks)]
    moments, g = oracle_estimates(total, order)
    report = CorrelationReport(moments[0], moments, g, order)
    estimates = []
    for block in blocks:
        moments, g = oracle_estimates([t - b for t, b in zip(total, block)], order)
        estimates.append([moments[0], *g])
    estimates = np.array(estimates)
    n = len(estimates)
    se = np.sqrt((n - 1) / n * ((estimates - estimates.mean(axis=0)) ** 2).sum(axis=0)).tolist()
    return report, se[0], tuple(se[1:])


@st.composite
def block_counts(draw):
    """Block histograms of one width, each with a frame at n = 0; some blocks have no photons."""
    n_blocks, width = draw(st.integers(2, 8)), draw(st.integers(1, 40))
    top = draw(st.sampled_from([3, 1000, 2**40]))  # 2**40 takes the Python-int product
    counts = draw(arrays(np.int64, (n_blocks, width), elements=st.integers(0, top)))
    counts[:, 0] += 1
    counts[draw(arrays(bool, n_blocks)), 1:] = 0
    return counts


# 9 empty frames and one of 200 photons: 200 (199) ... (52) is past the doubles,
# but the run's 149th factorial moment and g^(149) are not
PAST_THE_DOUBLES = np.zeros((10, 201), dtype=np.int64)
PAST_THE_DOUBLES[0, 200] = PAST_THE_DOUBLES[1:, 0] = 1


class TestMCRunResult:
    def test_counts_must_be_non_negative(self):
        assert MCRunResult([[3, 7]], seed=0, M=2).frames == 10
        with pytest.raises(ValueError, match="counts >= 0"):
            MCRunResult([[-1, 11]], seed=0, M=2)

    def test_cells_must_be_an_integer(self):
        with pytest.raises(TypeError, match="M must be an integer"):
            MCRunResult([[3, 7]], seed=0, M=2.0)
        with pytest.raises(ValueError, match="M must be >= 1, got 0"):
            MCRunResult([[3, 7]], seed=0, M=0)

    @pytest.mark.parametrize("blocks", [[[1, 1], [1, 1, 0]], [3, 7], [], [[]], [[[3, 7]]]])
    def test_blocks_must_form_a_non_empty_matrix(self, blocks):
        with pytest.raises(ValueError, match="matrix|inhomogeneous"):
            MCRunResult(blocks, seed=0, M=2)

    def test_every_block_holds_a_frame(self):
        # a replicate without the one block that holds every frame has no frames
        with pytest.raises(ValueError, match="block 1 of block_histograms holds no frames"):
            MCRunResult([[3, 2], [0, 0]], 0, 1)
        with pytest.raises(ValueError, match="block 0 of"):
            MCRunResult(np.zeros((100, 4), dtype=np.int64), 0, 1)

    def test_frames_stay_below_2_63(self):
        # MCConfig's limit on frames: no int64 sum of the counts may wrap
        assert MCRunResult([[2**62, 2**62 - 1]], 0, 1).frames == 2**63 - 1
        assert MCRunResult([[2**60] + [0] * 8], 0, 1).frames == 2**60  # max * size past 2**63
        for blocks in ([[2**62, 0], [2**62, 0]], [[2**56]] * 128, [[2**63 - 1, 2**63 - 1]]):
            with pytest.raises(ValueError, match="fewer than 2\\*\\*63 frames"):
                MCRunResult(blocks, 0, 1)

    @given(block_counts(), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_the_matrix_is_the_one_copy_of_the_counts(self, blocks, data):
        given_blocks = blocks.copy()
        result = MCRunResult(blocks, 0, 1)
        assert result.histogram == tuple(int(c) for c in blocks.sum(axis=0))
        assert all(type(c) is int for c in result.histogram)
        assert result.frames == int(blocks.sum())
        assert result.block_histograms.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            result.block_histograms[0, 0] = 0
        blocks += 1  # the caller's array, written after the result was made
        assert np.array_equal(result.block_histograms, given_blocks)
        assert result == MCRunResult(given_blocks.tolist(), 0, 1)
        i = data.draw(st.integers(0, len(blocks) - 1))
        j = data.draw(st.integers(0, blocks.shape[1] - 1))
        given_blocks[i, j] += 1
        assert result != MCRunResult(given_blocks, 0, 1)


class TestEmpiricalReport:
    @pytest.mark.parametrize(
        "spec, M", [(Coherent(8.0), 8), (Thermal(3.0), 5), (Fock(6), 3), (Coherent(0.5), 2)]
    )
    def test_errors_match_per_replicate_loop(self, spec, M):
        for seed in (1, 2, 3):
            result = run_mc(MCConfig(spec, M, 8000, seed=seed))
            for order in (2, 3, 4):
                rep = empirical_report(result, order)
                expected = loop_jackknife_errors(result, order)
                np.testing.assert_allclose((rep.mean_se, *rep.g_se), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_run_matches_the_exact_oracle(self, seed):
        result = run_mc(MCConfig(Thermal(3.0), 6, 20_000, seed=seed))
        for order in (2, 3, 4):
            rep = empirical_report(result, order)
            assert (rep.report, rep.mean_se, rep.g_se) == oracle_report(result.block_histograms, order)

    @given(block_counts(), st.integers(2, 6))
    @example(np.array([[1, 0, 0], [2, 0, 0]]), 2)  # no photons: no report
    @example(np.array([[1, 0, 2**40], [3, 0, 0]]), 6)  # Python ints; a replicate without photons
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_estimates_are_exact_ratios_rounded_once(self, blocks, order):
        # the run's report directly; each replicate's mean and g through the
        # jackknife errors, which the oracle forms from its own estimates
        result = MCRunResult(blocks, 0, 1)
        if not blocks[:, 1:].any():
            with pytest.raises(ZeroMean):
                empirical_report(result, order)
            return
        rep = empirical_report(result, order)
        expected = oracle_report(blocks, order)
        assert rep.report == expected[0]
        np.testing.assert_array_equal((rep.mean_se, *rep.g_se), expected[1:2] + expected[2])

    def test_falling_factorials_past_the_doubles(self):
        assert math.perm(200, 149) > sys.float_info.max
        result = MCRunResult(PAST_THE_DOUBLES, 0, 1)
        rep = empirical_report(result, 149)
        expected = oracle_report(PAST_THE_DOUBLES, 149)
        assert rep.report == expected[0] and math.isfinite(rep.report.g_at(149))
        assert rep.mean_se == expected[1] and all(math.isnan(x) for x in rep.g_se)

    @pytest.mark.parametrize(
        "spec, M, expected",
        [
            (Coherent(8.0), 8, (0.0032741110795166195, 0.030151517927068997, 0.5924080464258814)),
            (Thermal(3.0), 6, (0.0017934045744365662, 0.141330670276171, 6.056966885873514)),
        ],
    )
    def test_order3_errors_pinned(self, spec, M, expected):
        # 17 blocks of 2**22 frames, the counts scaled by 1000: a run far longer
        # than the suite samples, with every estimate an exact ratio rounded once
        blocks = 1000 * np.array([run_mc(MCConfig(spec, M, 2000, seed)).histogram for seed in range(17)])
        blocks[:, 0] += 2**22 - blocks.sum(axis=1)
        result = MCRunResult(blocks, 0, M)
        rep = empirical_report(result, 3)
        assert (rep.mean_se, *rep.g_se) == expected

    def test_order3_errors_of_a_run_pinned(self):
        # an ordinary run, whose replicate moments are not dyadic: each is an
        # exact ratio rounded once, and only the jackknife's sums of them remain
        rep = empirical_report(run_mc(MCConfig(Coherent(8.0), 8, 20_000, seed=1)), 3)
        expected = (0.00967781358353091, 0.023914805514549987, 0.15513277028867659)
        assert (rep.mean_se, *rep.g_se) == expected

    def test_single_block_run_reports_from_histogram(self):
        result = run_mc(MCConfig(Fock(4), 1, 1, seed=0))
        assert len(result.block_histograms) == 1
        rep = empirical_report(result, 3)
        assert rep.report == correlation_report(Pmf(np.asarray(result.histogram, dtype=float)), 3)
        assert rep.blocks == 1
        assert all(math.isnan(x) for x in (rep.mean_se, *rep.g_se))

    @pytest.mark.parametrize("order", [2, 4])
    def test_zero_mean_replicate_has_no_g_error(self, order):
        # 100 frames, one block each; deleting the one frame with a photon
        # leaves a replicate with zero mean, and so with no g
        result = run_mc(MCConfig(Custom(Pmf((0.99, 0.01))), 1, 100, seed=5))
        assert result.histogram == (99, 1)
        rep = empirical_report(result, order)
        assert rep.report == correlation_report(Pmf((0.99, 0.01)), order)
        # replicate means 1/99 (99 times) and 0: sqrt(0.99 * (1/9900)) = 0.01
        assert rep.mean_se == pytest.approx(0.01, rel=1e-12)
        assert len(rep.g_se) == order - 1 and all(math.isnan(x) for x in rep.g_se)

    def test_degenerate_run_has_zero_error_bars(self):
        result = run_mc(MCConfig(Custom(Pmf((0.0, 1.0))), 1, 400, seed=4))
        rep = empirical_report(result, 2)
        assert rep.report.mean == 1.0
        assert rep.report.g2 == 0.0
        assert rep.mean_se == 0.0
        assert rep.g_se == (0.0,)
        assert rep.blocks == 100

    def test_zero_mean_raises(self):
        result = run_mc(MCConfig(Fock(0), 3, 200, seed=0))
        with pytest.raises(ZeroMean):
            empirical_report(result, 2)

    def test_matches_exact_within_errors(self):
        result = run_mc(MCConfig(Coherent(3.0), 4, 40_000, seed=8))
        rep = empirical_report(result, 3)
        exact = correlation_report(scatter_pmf(input_pmf(Coherent(3.0)), 4), 3)
        assert abs(rep.report.mean - exact.mean) < 4 * rep.mean_se
        assert abs(rep.report.g2 - exact.g2) < 4 * rep.g_se[0]
        assert abs(rep.report.g3 - exact.g3) < 4 * rep.g_se[1]
        # error bars should be small in absolute terms at this frame count
        assert rep.mean_se < 0.02
        assert rep.frames == 40_000


class TestMCConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(ValueError):
            MCConfig(Fock(1), 0, 10, 0)
        with pytest.raises(ValueError):
            MCConfig(Fock(1), 2, 0, 0)
        with pytest.raises(ValueError):
            MCConfig(Fock(1), 2, 10, -1)
        with pytest.raises(ValueError):
            MCConfig(Fock(1), 2, 10, 2**64)
        with pytest.raises(TypeError):
            MCConfig(Fock(1), 2.0, 10, 0)
        with pytest.raises(ValueError, match="frames must be < 2"):
            MCConfig(Fock(1), 2, 2**63, 0)
        assert MCConfig(Fock(1), 2, 2**63 - 1, 0).frames == 2**63 - 1

    # the sampler's law is bounded only while N + M < 2**53, N the support's
    # last photon number; at 10**20 cells the run once failed in numpy
    @pytest.mark.parametrize(
        "spec, M", [(Fock(0), 2**53), (Fock(3), 2**53 - 3), (Coherent(3.0), 10**20)]
    )
    def test_cells_past_the_sampler_range(self, spec, M):
        with pytest.raises(ValueError, match="M must be < 2\\*\\*53 - N"):
            run_mc(MCConfig(spec, M, 10, seed=0))

    def test_cells_at_the_edge_of_the_sampler_range(self):
        result = run_mc(MCConfig(Fock(3), 2**53 - 4, 10, seed=0))
        assert result.histogram == (10, 0, 0, 0)

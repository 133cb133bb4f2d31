"""Monte Carlo cross-check: sample scattering configurations in whole-array chunks.

Every frame draws a photon number ``N`` from the input distribution and
then one of the ``binom(N + M - 1, M - 1)`` occupation patterns uniformly
at random, recording the count on pixel 0.  A pattern is an arrangement of
``N`` stars and ``M - 1`` bars, each arrangement equally likely, read as
the stars between consecutive bars.  The sampler reveals the arrangement
one slot at a time: with ``s`` stars and ``b`` bars still to place, the
next slot is a bar with probability ``b / (s + b)``.  A star joins the
current cell and a bar opens the next one; once either kind runs out, the
rest of the frame is fixed.  Pixel 0 holds the stars before the first bar.
Until that bar every slot was a star and all ``M - 1`` bars are left, so a
pixel-0 run keeps one count per frame and stops the frame at its first
bar.  A recorded run reads cell ``c`` the same way, as pixel 0 of the rest
of the frame, past the bar that closed cell ``c - 1``.  No row formula
enters, so the sampler checks the exact rows independently.

Randomness is a counter hash, after Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11).  Draw ``j`` of frame ``f`` under
``seed`` is u(seed, f, j), the SplitMix64 finalizer in ``uint64``
arithmetic: the frame key is the finalizer of the seed's key plus
``f + 1`` Weyl increments, and draw ``j`` the finalizer of the frame key
plus ``j + 1`` increments.  Its top 53 bits make a uniform ``x`` on
``[0, 1)``.  Draw 0 picks the photon number and draw ``r + 1`` decides
slot ``r``: a bar when ``x * (s + b) < b`` in doubles.  The rounded
product moves each test's probability off ``b / (s + b)`` by less than
``2**-52`` (while ``N + M < 2**53``), so a frame's pattern is off its
uniform law by less than ``(N + M) * 2**-52`` in total variation.  A
photon-number draw past the stored support clamps to its last entry, and
``run_mc`` refuses an input whose ``tail_mass`` reaches ``TAIL_CEILING``.
So the law that a run's histogram samples is off the exact one by at most
``tail_mass + (N + M) * 2**-52`` in total variation, ``N`` the last photon
number of the support.
Both modes read the same draws, so a pixel-0 run and a recorded run of one
configuration give the same histogram.  No state passes from one frame to
the next, so

* whole chunks of frames are sampled as numpy arrays, ``_CHUNK_FRAMES``
  at a time; the chunk bounds the working memory, and the results are
  bit-identical however frames are chunked;
* any frame can be replayed on its own (``_replay_frame``).

Error bars come from a delete-one-block jackknife over 100 equal blocks of
frames: correlations are ratios of moments, so naive per-frame variance
propagation would be both messy and wrong.  Each estimate, of the run or a
replicate, is an exact ratio of the histogram's integer sums, rounded once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import CorrelationReport, InputStateSpec, ZeroMean, _as_int, _ratio, _stored
from .inputs import input_pmf

__all__ = [
    "MCConfig",
    "MCRunResult",
    "EmpiricalReport",
    "run_mc",
    "empirical_report",
]

#: Number of equal frame blocks the jackknife deletes one at a time.
JACKKNIFE_BLOCKS = 100


@dataclass(frozen=True)
class MCConfig:
    """Parameters of one Monte Carlo run.

    The input's recorded tail must lie below ``TAIL_CEILING``, as for
    ``pmf_mean``: a run raises :class:`TailTooHeavy` otherwise.
    ``record_configurations`` additionally reads every cell of every
    frame, each as pixel 0 of the rest of the frame, and tallies the
    complete occupation patterns; useful for uniformity tests, ruinous
    for memory and time at large ``(N, M)``, hence off by default.  A
    pixel-0 run stops each frame at its first bar, so its cost grows
    with ``N / M`` rather than with ``N + M``.
    """

    input: InputStateSpec
    M: int
    frames: int
    seed: int
    record_configurations: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _as_int("M", self.M, 1))
        object.__setattr__(self, "frames", _as_int("frames", self.frames, 1))
        if self.frames >= 2**63:  # frame counters are int64
            raise ValueError(f"frames must be < 2**63, got {self.frames}")
        object.__setattr__(self, "seed", _as_int("seed", self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


@dataclass(frozen=True, eq=False)
class MCRunResult:
    """Outcome of a Monte Carlo run: the watched pixel's photon counts, block by block.

    ``block_histograms[i, n]`` counts the frames of block ``i``, a contiguous
    run of frames, in which the watched pixel saw ``n`` photons.  This
    read-only int64 matrix is the only copy of the counts; ``histogram`` (its
    column sums) and ``frames`` (its total) derive from it.  Each block holds a
    frame, and all fewer than ``2**63``, so no int64 sum of the counts wraps.
    ``configuration_counts`` (small runs only) tallies whole occupation patterns.
    """

    block_histograms: np.ndarray
    seed: int
    M: int
    configuration_counts: tuple[tuple[tuple[int, ...], int], ...] | None = None
    histogram: tuple[int, ...] = field(init=False)
    frames: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _as_int("M", self.M, 1))
        blocks = np.array(self.block_histograms, dtype=np.int64)  # a copy, which no caller holds
        if blocks.ndim != 2 or not blocks.size or (blocks < 0).any():
            raise ValueError(f"need a non-empty matrix of block counts >= 0, got {blocks!r}")
        # max * size bounds every sum; only past 2**63 is the exact total needed
        if int(blocks.max()) * blocks.size >= 2**63 and blocks.sum(dtype=object) >= 2**63:
            raise ValueError("block_histograms must hold fewer than 2**63 frames in all")
        frames = blocks.sum(axis=1)
        if not frames.all():
            raise ValueError(f"block {int(np.argmin(frames))} of block_histograms holds no frames")
        blocks.flags.writeable = False
        object.__setattr__(self, "block_histograms", blocks)
        object.__setattr__(self, "histogram", tuple(blocks.sum(axis=0).tolist()))
        object.__setattr__(self, "frames", int(frames.sum()))

    def __eq__(self, other) -> bool:  # the generated one would compare arrays elementwise
        return (isinstance(other, MCRunResult) and (self.seed, self.M, self.configuration_counts)
                == (other.seed, other.M, other.configuration_counts)
                and np.array_equal(self.block_histograms, other.block_histograms))


# SplitMix64 constants (Steele, Lea & Flood 2014): the Weyl increment and
# the two multipliers of the finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Frames per chunk.  It bounds the sampler's working memory (a few arrays
#: of this many words), not its results, which do not depend on how frames
#: are chunked.  A recorded chunk holds a frames x M matrix, so it is also
#: cut to ``4 * _CHUNK_FRAMES // M`` frames.
_CHUNK_FRAMES = 1 << 16


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a ``uint64`` array (wraps mod 2^64)."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _frame_keys(seed: int, frames: np.ndarray) -> np.ndarray:
    """Per-frame stream keys: SplitMix64 of the frame counter under the seed."""
    seed_key = _mix(np.array([seed], dtype=np.uint64))
    return _mix(seed_key + _GOLDEN * (frames.astype(np.uint64) + np.uint64(1)))


def _uniform(keys: np.ndarray, j: int) -> np.ndarray:
    """Draw j of each frame key, as a 53-bit uniform on [0, 1).

    Draw j of a frame is the finalizer of the frame key plus (j + 1) Weyl
    increments: a SplitMix64 stream seeded by the frame key.
    """
    step = np.full(1, j + 1, dtype=np.uint64) * _GOLDEN  # an array wraps silently
    return (_mix(keys + step) >> np.uint64(11)) * 2.0**-53


def _pixel0_counts(keys: np.ndarray, stars: np.ndarray, M: int) -> np.ndarray:
    """Pixel 0's count of each frame, in place of its photon number.

    Until a frame's first bar every slot was a star and all ``M - 1`` bars
    are left, so a frame still live at draw j has ``s = N - (j - 1)``
    stars to place.  It stores ``j - 1`` at its first bar, or keeps ``N``
    if its stars run out first.
    """
    if M == 1:
        return stars
    b = M - 1
    bar = _uniform(keys, 1) * (stars + b) < b  # slot 0: a zero-photon frame reads a bar
    live = np.flatnonzero(~bar & (stars > 1))
    stars[bar] = 0
    j = 1
    while live.size:
        j += 1
        s = stars[live] - (j - 1)
        bar = _uniform(keys[live], j) * (s + b) < b
        stars[live[bar]] = j - 1
        live = live[~bar & (s > 1)]
    return stars


def _patterns(keys: np.ndarray, stars: np.ndarray, M: int) -> np.ndarray:
    """Occupation patterns, one row of M counts per frame: cell c is pixel 0 of the rest."""
    occ = np.zeros((len(stars), M), dtype=np.int64)
    rows = np.flatnonzero(stars)  # frames with stars left to place
    keys, stars = keys[rows], stars[rows]
    for c in range(M - 1):
        if not rows.size:
            break
        count = _pixel0_counts(keys, stars.copy(), M - c)
        occ[rows, c] = count
        stars -= count
        keys += (count.astype(np.uint64) + np.uint64(1)) * _GOLDEN  # past the stars and the bar
        left = stars > 0
        rows, keys, stars = rows[left], keys[left], stars[left]
    occ[rows, -1] = stars  # the slots left are stars, all in the last cell
    return occ


def _sample_frames(
    cdf: np.ndarray, seed: int, frames: np.ndarray, M: int, record: bool = True
) -> np.ndarray:
    """Occupation patterns of the given frames, one row of M counts per frame.

    With ``record`` false it returns pixel 0's count alone, one per frame.
    """
    keys = _frame_keys(seed, frames)
    # tail draws (probability < TAIL_CEILING) clamp to the last entry
    stars = np.minimum(np.searchsorted(cdf, _uniform(keys, 0), side="right"), len(cdf) - 1)
    return _patterns(keys, stars, M) if record else _pixel0_counts(keys, stars, M)


def _replay_frame(cfg: MCConfig, frame: int) -> np.ndarray:
    """Occupation pattern of one frame of the run ``cfg``, computed on its own."""
    cdf = np.cumsum(input_pmf(cfg.input).as_array())
    return _sample_frames(cdf, cfg.seed, np.array([frame], dtype=np.int64), cfg.M)[0]


def run_mc(cfg: MCConfig) -> MCRunResult:
    """Run the sampler and histogram the photon count on pixel 0."""
    # raises TailTooHeavy: tail draws would bias the histogram
    cdf = np.cumsum(_stored(input_pmf(cfg.input)))
    width = len(cdf)
    if width - 1 + cfg.M >= 2**53:  # the law's bound holds only while N + M < 2**53
        raise ValueError(
            f"M must be < 2**53 - N at the support's last N = {width - 1}, got {cfg.M}"
        )
    n_blocks = min(JACKKNIFE_BLOCKS, cfg.frames)
    blocks = np.zeros(n_blocks * width, dtype=np.int64)
    record = cfg.record_configurations
    patterns: Counter = Counter()

    chunk = max(1, min(_CHUNK_FRAMES, 4 * _CHUNK_FRAMES // cfg.M)) if record else _CHUNK_FRAMES
    for start in range(0, cfg.frames, chunk):
        frames = np.arange(start, min(start + chunk, cfg.frames), dtype=np.int64)
        pixel0 = occupation = _sample_frames(cdf, cfg.seed, frames, cfg.M, record)
        if record:
            # each pattern row as one opaque 8M-byte item: np.unique sorts a 1-d
            # array, ~6x faster than axis=0; the first index gives each row
            as_bytes = occupation.view(np.dtype((np.void, 8 * cfg.M)))
            _, first, counts = np.unique(as_bytes.ravel(), return_index=True, return_counts=True)
            for row, count in zip(occupation[first].tolist(), counts.tolist()):
                patterns[tuple(row)] += count
            pixel0 = occupation[:, 0]
        block = frames * n_blocks // cfg.frames
        blocks += np.bincount(block * width + pixel0, minlength=n_blocks * width)

    patterns = tuple(sorted(patterns.items())) if record else None
    return MCRunResult(blocks.reshape(n_blocks, width), cfg.seed, cfg.M, patterns)


@dataclass(frozen=True)
class EmpiricalReport:
    """Correlations estimated from a histogram, with jackknife error bars.

    ``g_se[i]`` is the standard error of ``report.g[i]``; ``mean_se`` the
    standard error of the mean.  Errors are delete-one-block jackknife
    estimates over ``blocks`` blocks; a g error is NaN if one leaves no photons.
    """

    report: CorrelationReport
    mean_se: float
    g_se: tuple[float, ...]
    frames: int
    blocks: int


def empirical_report(result: MCRunResult, order: int = 2) -> EmpiricalReport:
    """Estimate mean and g^(2)..g^(order) from a run, with jackknife errors."""
    order = _as_int("order", order, 2)
    width = max(n for n, count in enumerate(result.histogram) if count) + 1
    if width == 1:
        raise ZeroMean("correlations are undefined for a run with no photons")
    falling = np.cumprod(np.arange(width, dtype=object)[:, None] - np.arange(order), 1)  # n^(k)
    totals = (np.array(result.histogram[:width], dtype=object) @ falling).tolist()  # T_k
    rows, n_blocks = [(totals, result.frames)], len(result.block_histograms)
    if n_blocks >= 2:  # leaving out block i keeps S_k = T_k - B_ik over F - F_i > 0 frames
        dtype = np.int64 if max(totals) < 2**63 else object  # no B_ik exceeds its T_k
        blocks = result.block_histograms[:, :width].astype(dtype, copy=False)
        kept = np.array(totals, dtype=dtype) - blocks @ falling.astype(dtype)
        rows += zip(kept.tolist(), (result.frames - blocks.sum(axis=1)).tolist())
    moments = [_ratio("factorial moment {}", k, t, result.frames) for k, t in enumerate(totals, 1)]
    # per row, the mean S_1 / F and g^(k) = S_k F^(k-1) / S_1^k, each one int/int division
    estimates = np.array([[S1 / F] + [_ratio("g^({})", k, s * F ** (k - 1), S1**k) if S1 else np.nan
                                      for k, s in enumerate(S, 2)] for (S1, *S), F in rows])
    report = CorrelationReport(moments[0], moments, estimates[0, 1:].tolist(), order)
    if n_blocks < 2:
        return EmpiricalReport(report, np.nan, (np.nan,) * (order - 1), result.frames, n_blocks)
    deviations = estimates[1:] - estimates[1:].mean(axis=0)  # mean, g2, ...
    se = np.sqrt((n_blocks - 1) / n_blocks * (deviations**2).sum(axis=0)).tolist()
    return EmpiricalReport(report, se[0], tuple(se[1:]), result.frames, n_blocks)

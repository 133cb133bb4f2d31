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
propagation would be both messy and wrong.  The run and its replicates are
the rows of one count matrix, each divided by its own sum, and one moment
pass sums every row in numpy's pairwise order, the same on every CPU.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import CorrelationReport, InputStateSpec, MCRunResult, _as_int, _moments, _stored
from .inputs import input_pmf

__all__ = [
    "MCConfig",
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

    blocks = blocks.reshape(n_blocks, width)
    return MCRunResult(
        histogram=blocks.sum(axis=0).tolist(),
        frames=cfg.frames,
        seed=cfg.seed,
        M=cfg.M,
        block_histograms=blocks,
        configuration_counts=tuple(sorted(patterns.items())) if record else None,
    )


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
    counts = np.array([result.histogram], dtype=np.int64)
    n_blocks = 0 if result.block_histograms is None else len(result.block_histograms)
    if n_blocks >= 2:  # then the delete-one-block replicates, one row each
        counts = np.vstack((counts, counts - np.array(result.block_histograms, dtype=np.int64)))
    moments, g = _moments(counts / counts.sum(axis=1, keepdims=True), order)
    report = CorrelationReport(moments[0][0], [m[0] for m in moments], [x[0] for x in g], order)
    if n_blocks < 2:
        nan = float("nan")
        return EmpiricalReport(report, nan, (nan,) * (order - 1), result.frames, n_blocks)

    estimates = np.column_stack([x[1:] for x in (moments[0], *g)])  # mean, g2, ... per replicate
    deviations = estimates - estimates.mean(axis=0)
    se = np.sqrt((n_blocks - 1) / n_blocks * (deviations**2).sum(axis=0)).tolist()
    return EmpiricalReport(report, se[0], tuple(se[1:]), result.frames, n_blocks)

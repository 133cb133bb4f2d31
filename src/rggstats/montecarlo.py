"""Monte Carlo cross-check: sample scattering configurations in whole-array chunks.

Every frame draws a photon number ``N`` from the input distribution and
then one of the ``binom(N + M - 1, M - 1)`` occupation patterns uniformly
at random, recording the count on pixel 0.  Uniform patterns are produced
by the stars-and-bars bijection: mark ``min(M - 1, N)`` of the
``N + M - 1`` slots as bars (or as stars, when there are fewer stars than
bars) and read off the gaps; pixel 0's count is the first bar's index.
The marked slots are those whose key is at or below the row's partition
threshold, so pixel 0 is read from that threshold alone; full patterns
are built only when they are recorded.

Randomness is a counter hash, after Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11).  Draw ``j`` of frame ``f`` under
``seed`` is u(seed, f, j), the SplitMix64 finalizer in ``uint64``
arithmetic: the frame key is the finalizer of the seed's key plus
``f + 1`` Weyl increments, and draw ``j`` the finalizer of the frame key
plus ``j + 1`` increments.  Draw 0 picks the photon number; draws
``1 .. N + M - 1`` are 63-bit slot keys, and the smallest keys are marked.
No state passes from one frame to the next, so

* whole chunks of frames are sampled as numpy arrays, about ``2**18``
  slot keys at a time (``_CHUNK_KEYS``); the budget bounds the working
  memory, and the results are bit-identical however frames are chunked;
* any frame can be replayed on its own (``_replay_frame``).

Error bars come from a delete-one-block jackknife over 100 equal blocks of
frames: correlations are ratios of moments, so naive per-frame variance
propagation would be both messy and wrong.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import CorrelationReport, InputStateSpec, MCRunResult, Pmf, ZeroMean, _as_int
from .inputs import input_pmf
from .transform import correlation_report

__all__ = [
    "JACKKNIFE_BLOCKS",
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

    ``record_configurations`` additionally tallies the complete occupation
    pattern of every frame; useful for uniformity tests, ruinous for memory
    at large ``(N, M)``, hence off by default.
    """

    input: InputStateSpec
    M: int
    frames: int
    seed: int
    record_configurations: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _as_int("M", self.M, 1))
        object.__setattr__(self, "frames", _as_int("frames", self.frames, 1))
        object.__setattr__(self, "seed", _as_int("seed", self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


# SplitMix64 constants (Steele, Lea & Flood 2014): the Weyl increment and
# the two multipliers of the finalizer.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Pads slot-key rows; above every 63-bit key, so never selected.
_SENTINEL = np.uint64(2**64 - 1)

#: Slot keys per chunk of frames, for a frame of mean width.  It bounds the
#: sampler's working memory (a few arrays of this many 8-byte words), not
#: its results, which do not depend on how frames are chunked.
_CHUNK_KEYS = 1 << 18


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


def _draws(keys: np.ndarray, first: int, count: int) -> np.ndarray:
    """u(seed, frame, j) for j = first .. first + count - 1, one row per frame key.

    Draw j of a frame is the finalizer of the frame key plus (j + 1) Weyl
    increments: a SplitMix64 stream seeded by the frame key.
    """
    j = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    return _mix(keys[:, None] + _GOLDEN * j)


def _key_groups(
    keys: np.ndarray, n: np.ndarray, M: int
) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """Slot keys of the frames with photons, one group of equal row width at a time.

    Frame f holds ``n[f]`` photons in ``n[f] + M - 1`` slots; slot s gets
    the 63-bit key u(seed, f, s + 1) >> 1.  The ``size = min(M - 1, n)``
    smallest keys mark the bars when ``n >= M - 1`` and the stars otherwise;
    either way the marked set is a uniform subset of its size, so the gaps
    between bars are a uniform pattern.  Needs ``M >= 2``.

    A frame of the stars branch (fewer than ``2M - 2`` slots) is grouped with
    frames of the same photon number, so every row of a group marks the same
    number of keys.  A frame of the bars branch is grouped by its slot count
    rounded up to a quarter of its octave, and the row is padded with
    ``_SENTINEL``: less than a quarter of each row is padding.  Yields
    ``(rows, size, key)``: the group's frame indices, its marked count, and
    its key rows.
    """
    slots = n + (M - 1)
    _, octave = np.frexp(slots)  # slots < 2**octave
    step = np.left_shift(np.int64(1), np.maximum(octave - 3, 0))
    widths = np.where(n < M - 1, slots, -(-slots // step) * step)
    for w in np.flatnonzero(np.bincount(widths[n > 0])).tolist():
        rows = np.flatnonzero(widths == w)
        size = min(w - (M - 1), M - 1)
        key = _draws(keys[rows], 1, w)
        key >>= np.uint64(1)
        if size == M - 1:  # bars
            key[np.arange(w) >= slots[rows, None]] = _SENTINEL
        yield rows, size, key


def _occupations(keys: np.ndarray, n: np.ndarray, M: int) -> np.ndarray:
    """Uniform occupation patterns, one row of M counts per frame."""
    occ = np.zeros((len(n), M), dtype=np.int64)
    if M == 1:
        occ[:, 0] = n
        return occ
    for rows, size, key in _key_groups(keys, n, M):
        marked = np.sort(np.argpartition(key, size - 1, axis=1)[:, :size], axis=1)
        if size == M - 1:  # gaps between bars, with virtual ones at -1 and n + M - 1
            ends = n[rows, None] + (M - 1)
            occ[rows] = np.diff(marked, axis=1, prepend=-1, append=ends) - 1
        else:  # star i has marked[i] - i bars before it
            cell = marked - np.arange(size) + M * np.arange(len(rows))[:, None]
            occ[rows] = np.bincount(cell.ravel(), minlength=len(rows) * M).reshape(-1, M)
    return occ


def _pixel0(keys: np.ndarray, n: np.ndarray, M: int) -> np.ndarray:
    """Column 0 of ``_occupations``, read from each row's partition threshold.

    The marked slots are the keys at or below tau, the ``size``-th smallest
    key of the row, and pixel 0 holds the stars before the first bar.  Only
    a row whose keys tie at tau (odds about w / 2**63 for a row of w keys)
    can read otherwise than ``_occupations``.
    """
    if M == 1:
        return n
    count = np.zeros(len(n), dtype=np.int64)
    for rows, size, key in _key_groups(keys, n, M):
        tau = np.partition(key, size - 1, axis=1)[:, size - 1, None]
        bar = key <= tau if size == M - 1 else key > tau
        count[rows] = np.argmax(bar, axis=1)
    return count


def _sample_frames(
    cdf: np.ndarray,
    seed: int,
    frames: np.ndarray,
    M: int,
    read: Callable[[np.ndarray, np.ndarray, int], np.ndarray] = _occupations,
) -> np.ndarray:
    """The given frames, read by ``read`` (full patterns by default).

    Draw 0 of each frame picks its photon number.
    """
    keys = _frame_keys(seed, frames)
    u = (_draws(keys, 0, 1)[:, 0] >> np.uint64(11)) * 2.0**-53
    # tail draws (probability <= recorded tail_mass) clamp to the last entry
    n = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return read(keys, n, M)


def _replay_frame(cfg: MCConfig, frame: int) -> np.ndarray:
    """Occupation pattern of one frame of the run ``cfg``, computed on its own."""
    cdf = np.cumsum(input_pmf(cfg.input).as_array())
    return _sample_frames(cdf, cfg.seed, np.array([frame], dtype=np.int64), cfg.M)[0]


def run_mc(cfg: MCConfig) -> MCRunResult:
    """Run the sampler and histogram the photon count on pixel 0."""
    probs = input_pmf(cfg.input).as_array()
    cdf = np.cumsum(probs)
    width = len(cdf)
    n_blocks = min(JACKKNIFE_BLOCKS, cfg.frames)
    hist = np.zeros(width, dtype=np.int64)
    blocks = np.zeros(n_blocks * width, dtype=np.int64)
    patterns: Counter | None = Counter() if cfg.record_configurations else None

    # frames per chunk, sized for the mean frame (N + M draws)
    chunk = max(1, int(_CHUNK_KEYS // (np.arange(width) @ probs + cfg.M)))
    for start in range(0, cfg.frames, chunk):
        frames = np.arange(start, min(start + chunk, cfg.frames), dtype=np.int64)
        if patterns is None:
            n_pixel = _sample_frames(cdf, cfg.seed, frames, cfg.M, _pixel0)
        else:
            occupation = _sample_frames(cdf, cfg.seed, frames, cfg.M)
            n_pixel = occupation[:, 0]
            # each pattern row as one opaque 8M-byte item, so np.unique
            # sorts a 1-d array; the first index of each gives its row
            as_bytes = occupation.view(np.dtype((np.void, 8 * cfg.M)))
            _, first, counts = np.unique(as_bytes.ravel(), return_index=True, return_counts=True)
            for row, count in zip(occupation[first].tolist(), counts.tolist()):
                patterns[tuple(row)] += count
        hist += np.bincount(n_pixel, minlength=width)
        block = frames * n_blocks // cfg.frames
        blocks += np.bincount(block * width + n_pixel, minlength=n_blocks * width)

    return MCRunResult(
        histogram=hist.tolist(),
        frames=cfg.frames,
        seed=cfg.seed,
        M=cfg.M,
        block_histograms=blocks.reshape(n_blocks, width),
        configuration_counts=tuple(sorted(patterns.items())) if patterns is not None else None,
    )


@dataclass(frozen=True)
class EmpiricalReport:
    """Correlations estimated from a histogram, with jackknife error bars.

    ``g_se[i]`` is the standard error of ``report.g[i]``; ``mean_se`` the
    standard error of the mean.  Errors are delete-one-block jackknife
    estimates over ``blocks`` blocks.
    """

    report: CorrelationReport
    mean_se: float
    g_se: tuple[float, ...]
    frames: int
    blocks: int


def empirical_report(result: MCRunResult, order: int = 2) -> EmpiricalReport:
    """Estimate mean and g^(2)..g^(order) from a run, with jackknife errors."""
    total = np.asarray(result.histogram, dtype=np.int64)
    full = correlation_report(Pmf(total / result.frames, 0.0), order)
    n_blocks = 0 if result.block_histograms is None else len(result.block_histograms)
    if n_blocks < 2:
        nan = float("nan")
        return EmpiricalReport(full, nan, (nan,) * (order - 1), result.frames, n_blocks)

    # delete-one-block replicates, one row each; their factorial moments are
    # one product with falling[n, j] = n (n - 1) ... (n - j)
    kept = total - np.array(result.block_histograms, dtype=np.int64)
    falling = np.cumprod(np.arange(len(total), dtype=float)[:, None] - np.arange(order), axis=1)
    estimates = (kept / kept.sum(axis=1, keepdims=True)) @ falling
    mean = estimates[:, :1]
    if np.any(mean == 0.0):
        raise ZeroMean("correlations are undefined for a zero-mean distribution")
    estimates[:, 1:] /= mean ** np.arange(2, order + 1)  # column 0: mean, then g2, g3, ...
    deviations = estimates - estimates.mean(axis=0)
    se = np.sqrt((n_blocks - 1) / n_blocks * (deviations**2).sum(axis=0))
    return EmpiricalReport(
        report=full,
        mean_se=float(se[0]),
        g_se=tuple(float(x) for x in se[1:]),
        frames=result.frames,
        blocks=n_blocks,
    )

"""Job lists of the four workloads, drawn from the benchmark seed.

A job is a plain dict, so the lists can be built and inspected without
importing the package under test.  Every parameter is drawn from a narrow
window around a fixed template: the seed changes the exact inputs, the
template fixes how much work a pass holds, so runs with different seeds
measure the same amount of work.  The same seed gives the same list.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli_mix", "bright_scatter", "mc_crosscheck", "deep_limit")

FIGURES = ("fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig5a", "fig5b")


class _Draw:
    def __init__(self, seed: int, salt: str) -> None:
        self._rng = random.Random(f"{salt}:{seed}")

    def real(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def int(self, lo: int, hi: int) -> int:
        """Uniform integer in ``lo..hi`` inclusive."""
        return lo + int((hi - lo + 1) * self._rng.random())

    def seed64(self) -> int:
        return int(self._rng.random() * 2**53)


def _state(d: _Draw, kind: str, *window: float) -> dict:
    if kind == "squeezed":
        a_lo, a_hi, r_lo, r_hi, th_lo, th_hi = window
        return {
            "kind": "squeezed",
            "alpha_mag": d.real(a_lo, a_hi),
            "alpha_phase": 0.0,
            "r": d.real(r_lo, r_hi),
            "theta": d.real(th_lo, th_hi),
        }
    if kind == "fock":
        return {"kind": "fock", "n": d.int(int(window[0]), int(window[1]))}
    return {"kind": kind, "mean": d.real(*window)}


# Sweeps of bright_scatter: an M window (disjoint across sweeps, so rows are
# cold across sweeps) and jobs sharing that M in order of growing support,
# so each job reuses the rows of the one before and computes the rest.  The
# last sweep has N + M above the exact-binomial seam, so the log-space route
# runs; its five cheap jobs also put the median job latency in the middle of
# a group of similar jobs rather than at the edge of one.  Entries: kind,
# window, stages.
_BRIGHT_SWEEPS = (
    ((16, 18), (
        ("squeezed", (11.0, 11.2, 0.9, 0.92, 0.75, 0.85), 1),
        ("coherent", (295.0, 305.0), 2),
        ("thermal", (26.0, 27.0), 1),
    )),
    ((42, 46), (
        ("squeezed", (8.0, 8.2, 0.5, 0.52, 1.55, 1.65), 3),
        ("thermal", (14.0, 14.5), 1),
        ("coherent", (445.0, 455.0), 2),
    )),
    ((94, 102), (
        ("coherent", (150.0, 155.0), 2),
        ("squeezed", (13.5, 13.7, 1.0, 1.02, 3.05, 3.15), 1),
        ("thermal", (21.0, 21.5), 1),
    )),
    ((230, 250), (
        ("squeezed", (9.0, 9.2, 0.55, 0.57, 2.35, 2.45), 1),
        ("coherent", (200.0, 205.0), 3),
        ("thermal", (15.0, 15.3), 2),
    )),
    ((24000, 26000), (
        ("squeezed", (9.0, 9.2, 0.55, 0.57, 2.35, 2.45), 1),
        ("coherent", (300.0, 305.0), 2),
        ("squeezed", (12.0, 12.2, 1.1, 1.12, 3.05, 3.15), 1),
        ("coherent", (420.0, 430.0), 1),
        ("thermal", (25.0, 26.0), 2),
    )),
)


def bright_scatter(seed: int) -> list[dict]:
    d = _Draw(seed, "bright_scatter")
    jobs = []
    for (m_lo, m_hi), entries in _BRIGHT_SWEEPS:
        M = d.int(m_lo, m_hi)
        for kind, window, stages in entries:
            jobs.append({"state": _state(d, kind, *window), "M": M, "stages": stages})
    return _numbered("bs", jobs)


# mc_crosscheck: small supports, so the per-frame sampler dominates.  Each
# state runs twice with independent sampler seeds; the last job tallies
# complete occupation patterns.  Thermal counts are heavy-tailed: at 15 k
# frames the z-score of the sampled g2 is skewed (40 sampler seeds gave
# -3.0 to +1.9, one stream gave -6.1 and came back to -1.5 at 60 k frames),
# so the thermal state runs 40 k frames for its |z| <= 5 check to hold.
# Entries: kind, window, M, frames.
_MC_STATES = (
    ("coherent", (7.9, 8.1), 8, 8000),
    ("thermal", (3.9, 4.1), 16, 40000),
    ("fock", (19, 21), 32, 8000),
    ("squeezed", (1.8, 2.2, 0.5, 0.7, 0.0, 0.2), 8, 8000),
)


def mc_crosscheck(seed: int) -> list[dict]:
    d = _Draw(seed, "mc_crosscheck")
    jobs = []
    for _ in range(2):
        for kind, window, M, frames in _MC_STATES:
            jobs.append({
                "state": _state(d, kind, *window),
                "M": M,
                "frames": d.int(frames, frames + frames // 50),
                "mc_seed": d.seed64(),
                "record": False,
            })
    jobs.append({
        "state": _state(d, "fock", 4, 6),
        "M": 4,
        "frames": d.int(2000, 2200),
        "mc_seed": d.seed64(),
        "record": True,
    })
    return _numbered("mc", jobs)


# deep_limit: one job per (photon number, M/N) template, spanning M = 2N..4N;
# the N windows are disjoint, so every (N, M) differs and nothing is served
# from a cache.
_LIMIT_TEMPLATES = ((300, 4.0), (340, 2.0), (380, 3.67), (420, 2.33),
                    (460, 3.33), (500, 2.67), (540, 3.0))


def deep_limit(seed: int) -> list[dict]:
    d = _Draw(seed, "deep_limit")
    jobs = []
    for center, ratio in _LIMIT_TEMPLATES:
        N = d.int(round(center * 0.9925), round(center * 1.0075))
        jobs.append({
            "N": N,
            "M": round(N * ratio * d.real(0.99, 1.01)),
            "coherent_mean": d.real(N / 2, N),
        })
    return _numbered("dl", jobs)


def _input_flags(state: dict) -> list[str]:
    flags = ["--kind", state["kind"]]
    for key, value in state.items():
        if key != "kind":
            flags += [f"--{key.replace('_', '-')}", repr(value)]
    return flags


def cli_mix(seed: int) -> list[dict]:
    """Two jobs per subcommand, small parameters; start-up dominates."""
    d = _Draw(seed, "cli_mix")
    jobs = []
    for kind, window in (("fock", (8, 20)), ("thermal", (8.0, 10.0))):
        M = d.int(2, 16) if kind == "thermal" else d.int(2, 64)
        args = ["scatter", *_input_flags(_state(d, kind, *window)),
                "--M", str(M), "--stages", str(d.int(1, 3))]
        jobs.append({"sub": "scatter", "args": args, "files": ["scatter.csv"]})
    for kind, window in (
        ("coherent", (15.0, 20.0)),
        ("squeezed", (2.0, 4.0, 0.3, 0.8, 0.0, 2 * math.pi)),
    ):
        args = ["gn", *_input_flags(_state(d, kind, *window)),
                "--M", str(d.int(2, 64)), "--stages", str(d.int(1, 3))]
        jobs.append({"sub": "gn", "args": args, "files": ["gn.json"]})
    for _ in range(2):
        n = d.int(40, 80)
        args = ["plimit", "--n", str(n), "--M", str(d.int(3 * n, 4 * n))]
        jobs.append({"sub": "plimit", "args": args, "files": ["plimit.csv", "plimit.json"]})
    # light-tailed inputs: at this frame count a thermal g2 z-score is skewed
    for kind, window, M in (("coherent", (7.9, 8.1), 8), ("fock", (19, 21), 32)):
        args = ["mc", *_input_flags(_state(d, kind, *window)), "--M", str(M),
                "--frames", str(d.int(18000, 20000)), "--seed", str(d.seed64())]
        jobs.append({"sub": "mc", "args": args, "files": ["mc.csv", "mc.json"]})
    first = seed % len(FIGURES)
    for name in (FIGURES[first], FIGURES[(first + 3) % len(FIGURES)]):
        args = ["figure", name]
        if name == "fig2":
            args += ["--M", str(d.int(8, 16))]
        files = [f"{name}.csv"] + ([f"{name}.json"] if name.startswith("fig5") else [])
        jobs.append({"sub": "figure", "args": args, "files": files})
    return _numbered("cli", jobs)


def _numbered(prefix: str, jobs: list[dict]) -> list[dict]:
    for i, job in enumerate(jobs):
        job["id"] = f"{prefix}{i:02d}"
    return jobs


def make_jobs(workload: str, seed: int) -> list[dict]:
    return {
        "cli_mix": cli_mix,
        "bright_scatter": bright_scatter,
        "mc_crosscheck": mc_crosscheck,
        "deep_limit": deep_limit,
    }[workload](seed)

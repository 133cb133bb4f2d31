"""Measurement helpers shared by `run.py` and its worker processes.

Standard library only, so the parent process stays light and the helpers
can be tested without the package under test.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

#: Package modules whose calls a traced pass wraps in spans.
LAYERS = ("inputs", "transform", "combinatorics", "plimit", "montecarlo", "cli")

#: Work of one reference sample: a fixed pure-Python loop that a worker
#: times before its first job and after every job.
REF_LOOPS = 100_000

#: Reference-sample time that counts as nominal speed.  Reported times are
#: scaled by ``REF_NOMINAL_S / median(reference samples)`` of their worker,
#: so a run on a machine that is slowed down as a whole (shared cores, clock
#: changes) reports what the same work takes at nominal speed.
REF_NOMINAL_S = 0.008

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Rows with N + M above this take the log-space route at the commit that
#: defined the benchmark.  Fixed here, so the share means the same thing
#: after the program re-tunes its own seam.
LOG_ROUTE_ABOVE = 20000


def min_samples_for(quantile: float) -> int:
    """Fewest samples that leave ``MIN_TAIL_SAMPLES`` beyond ``quantile``.

    The quantile is taken as the nearest-rank sample ``ceil(quantile * n)``;
    the samples beyond it are the ones ranked above.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
    n = MIN_TAIL_SAMPLES
    while n - math.ceil(quantile * n) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def reference_s() -> float:
    """Time one reference sample."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def slowdown(ref_samples: list[float]) -> float:
    """How much slower than nominal the machine ran, from reference samples."""
    return statistics.median(ref_samples) / REF_NOMINAL_S


def job_p50(latencies: list[float]) -> float:
    """Median job latency; refuses sample counts that break the tail rule.

    ``median_low`` keeps the value on one measured job: passes repeat the
    same job list, so the median lands on the same job whatever the number
    of passes, as long as a pass holds an odd number of jobs.
    """
    need = min_samples_for(0.5)
    if len(latencies) < need:
        raise ValueError(f"p50 needs >= {need} samples, got {len(latencies)}")
    return statistics.median_low(latencies)


# --- spans ----------------------------------------------------------------------


class Recorder:
    """In-memory span recorder: name, start, end, parent span and job id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NullRecorder:
    """Stands in for :class:`Recorder` when tracing is off."""

    job = None

    @contextmanager
    def span(self, name: str):
        yield None


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    reach = start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(s["start"], s["end"], children.get(s["id"], []))
        for s in spans
    }


def layer_of(span_name: str) -> str:
    """``transform.scatter_pmf`` -> ``transform``."""
    return span_name.split(".", 1)[0]


# --- single-cell row requests ---------------------------------------------------


def row_counts(stages: list[tuple[list[float], int]]) -> dict[str, float]:
    """Row requests made by mixing each ``(weights, M)`` stage, in order.

    Mixing requests the N-photon row for every nonzero weight ``weights[N]``
    (``M = 1`` is the identity and requests none).  A request is a reuse
    when the same ``(N, M)`` was requested earlier in the list; the rows
    live in a per-process cache, so the list must cover one process.
    """
    seen: set[tuple[int, int]] = set()
    requested = reused = log_route = entries = 0
    for weights, M in stages:
        if M == 1:
            continue
        for N, w in enumerate(weights):
            if w == 0.0:
                continue
            requested += 1
            if (N, M) in seen:
                reused += 1
            else:
                seen.add((N, M))
                entries += N + 1
            if N + M > LOG_ROUTE_ABOVE:
                log_route += 1
    return {
        "rows_requested": requested,
        "row_entries": entries,
        "row_reuse_share": reused / requested if requested else 0.0,
        "log_route_share": log_route / requested if requested else 0.0,
    }

"""One pass of a workload in a fresh process: set up, run every job, check it.

Started by ``run.py``; prints one JSON object on standard output.  A fresh
process per pass keeps the package's row caches cold at the start of each
pass and isolates ``ru_maxrss``.

    python3 perfbench/worker.py --workload deep_limit --seed 1 --trace 0 \
        --spawned <time.monotonic() of the parent at spawn> --tmp <temporary dir>
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import rggstats  # set-up cost: the package import is part of setup_s

from jobs import make_jobs
from measure import (LAYERS, NullRecorder, Recorder, layer_of, reference_s, row_counts,
                     self_times)

CLI_TIMEOUT_S = 60
Z_LIMIT = 5.0

def _rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Traced:
    """Wraps each call into the package in a span; counts errors and memory."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.errors: dict[str, int] = defaultdict(int)
        self.rss_hwm: dict[str, float] = {}

    def call(self, name: str, fn, *args, **kwargs):
        layer = layer_of(name)
        with self.rec.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                who = resource.RUSAGE_CHILDREN if layer == "cli" else resource.RUSAGE_SELF
                self.rss_hwm[layer] = max(self.rss_hwm.get(layer, 0.0), _rss_mb(who))


class Untraced:
    rec = NullRecorder()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# --- jobs ---------------------------------------------------------------------------


def _spec(state: dict):
    kind = state["kind"]
    if kind == "fock":
        return rggstats.Fock(state["n"])
    if kind == "coherent":
        return rggstats.Coherent(state["mean"])
    if kind == "thermal":
        return rggstats.Thermal(state["mean"])
    return rggstats.SqueezedCoherent(
        state["alpha_mag"], state["alpha_phase"], state["r"], state["theta"]
    )


def run_bright(job: dict, t) -> dict:
    source = t.call("inputs.input_pmf", rggstats.input_pmf, job["spec"])
    if job["stages"] == 1:
        out = t.call("transform.scatter_pmf", rggstats.scatter_pmf, source, job["M"])
    else:
        out = t.call("transform.cascade_pmf", rggstats.cascade_pmf, source, job["M"], job["stages"])
    rep_in = t.call("transform.correlation_report", rggstats.correlation_report, source, 3)
    rep_out = t.call("transform.correlation_report", rggstats.correlation_report, out, 3)
    return {"source": source, "rep_in": rep_in, "rep_out": rep_out}


def check_bright(job: dict, out: dict) -> list[str]:
    problems = []
    state, rep_in, rep_out = job["state"], out["rep_in"], out["rep_out"]
    if state["kind"] == "squeezed":
        expected_mean = state["alpha_mag"] ** 2 + math.sinh(state["r"]) ** 2
        expected_g2 = None
    else:
        expected_mean = state["mean"]
        expected_g2 = {"coherent": 1.0, "thermal": 2.0}[state["kind"]]
    if _rel(rep_in.mean, expected_mean) > 1e-6:
        problems.append(f"input mean {rep_in.mean!r} != {expected_mean!r}")
    if expected_g2 is not None and _rel(rep_in.g2, expected_g2) > 1e-6:
        problems.append(f"input g2 {rep_in.g2!r} != {expected_g2!r}")
    g2, g3 = rep_in.g2, rep_in.g3
    for _ in range(job["stages"]):
        g2 = rggstats.g2_out_predicted(g2, job["M"])
        g3 = rggstats.g3_out_predicted(g3, job["M"])
    if _rel(rep_out.g2, g2) > 1e-9:
        problems.append(f"output g2 {rep_out.g2!r} != law {g2!r}")
    if _rel(rep_out.g3, g3) > 1e-9:
        problems.append(f"output g3 {rep_out.g3!r} != law {g3!r}")
    return problems


def count_bright(job: dict, out: dict) -> list[tuple[list[float], int]]:
    """The ``(weights, M)`` of every stage, for the row-request counts.

    Stage inputs after the first are recomputed here; their rows were just
    built by the job, so this is cheap and changes no later job's cache.
    """
    stages = []
    weights = out["source"]
    for _ in range(job["stages"]):
        stages.append((weights.probs, job["M"]))
        if len(stages) < job["stages"]:
            weights = rggstats.scatter_pmf(weights, job["M"])
    return stages


def run_mc(job: dict, t) -> dict:
    cfg = rggstats.MCConfig(
        job["spec"], job["M"], job["frames"], job["mc_seed"],
        record_configurations=job["record"],
    )
    result = t.call("montecarlo.run_mc", rggstats.run_mc, cfg)
    empirical = t.call("montecarlo.empirical_report", rggstats.empirical_report, result, 3)
    source = t.call("inputs.input_pmf", rggstats.input_pmf, job["spec"])
    exact_pmf = t.call("transform.scatter_pmf", rggstats.scatter_pmf, source, job["M"])
    exact = t.call("transform.correlation_report", rggstats.correlation_report, exact_pmf, 3)
    return {"result": result, "empirical": empirical, "exact": exact, "source": source}


def check_mc(job: dict, out: dict) -> list[str]:
    problems = []
    emp, exact = out["empirical"], out["exact"]
    z_mean = (emp.report.mean - exact.mean) / emp.mean_se
    z_g2 = (emp.report.g2 - exact.g2) / emp.g_se[0]
    for label, z in (("mean", z_mean), ("g2", z_g2)):
        if not abs(z) <= Z_LIMIT:
            problems.append(f"MC {label} z = {z!r}")
    if job["record"]:
        patterns = out["result"].configuration_counts
        n = job["state"]["n"]
        if sum(c for _, c in patterns) != job["frames"]:
            problems.append("configuration counts do not sum to frames")
        if any(len(p) != job["M"] or sum(p) != n for p, _ in patterns):
            problems.append("a recorded configuration is not a placement of N photons")
    return problems


def run_limit(job: dict, t) -> dict:
    N, M = job["N"], job["M"]
    row = t.call("combinatorics.fock_scatter_pmf", rggstats.fock_scatter_pmf, N, M)
    limit = t.call("plimit.fock_pn_limit_pmf", rggstats.fock_pn_limit_pmf, N, M)
    tv = rggstats.total_variation(row, limit)
    coherent = t.call("plimit.coherent_limit_pmf", rggstats.coherent_limit_pmf, job["coherent_mean"], M)
    return {"row": row, "limit": limit, "tv": tv, "coherent": coherent}


def check_limit(job: dict, out: dict) -> list[str]:
    problems = []
    N, M = job["N"], job["M"]
    for label, pmf in (("limit", out["limit"]), ("single-stage", out["row"])):
        mean = rggstats.pmf_mean(pmf)
        if _rel(mean, N / M) > 1e-12:
            problems.append(f"{label} mean {mean!r} != N/M = {N / M!r}")
    if not 0.0 < out["tv"] < 1.0:
        problems.append(f"total variation {out['tv']!r} outside (0, 1)")
    rep = rggstats.correlation_report(out["coherent"], 2)
    if _rel(rep.mean, job["coherent_mean"] / M) > 1e-9 or _rel(rep.g2, 2.0) > 1e-6:
        problems.append(f"coherent limit is not thermal with mean/M: {rep!r}")
    return problems


def _read_csv(path: Path) -> list[list[float]]:
    with path.open(encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    if not body or any(len(r) != len(header) for r in body):
        raise ValueError(f"{path.name}: ragged or empty table")
    values = [[float(x) if x else math.nan for x in r] for r in body]
    if any(math.isinf(x) for r in values for x in r):
        raise ValueError(f"{path.name}: infinite value")
    return values


def run_cli(job: dict, t) -> dict:
    cmd = [sys.executable, "-m", "rggstats.cli", *job["args"], "--out", str(job["out"])]
    proc = t.call(f"cli.{job['sub']}", subprocess.run, cmd, capture_output=True,
                  text=True, timeout=CLI_TIMEOUT_S)
    return {"proc": proc}


def check_cli(job: dict, out: dict) -> list[str]:
    proc = out["proc"]
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    problems = []
    version = rggstats.__version__
    for name in job["files"]:
        path = job["out"] / name
        if not path.is_file():
            problems.append(f"missing output {name}")
            continue
        try:
            if name.endswith(".csv"):
                first = path.read_text(encoding="utf-8").split("\n", 1)[0]
                if first.strip() != f"# engine = rggstats {version}":
                    problems.append(f"{name}: engine line {first.strip()!r}")
                _read_csv(path)
                continue
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, IndexError) as exc:
            problems.append(f"{name} does not parse: {exc}")
            continue
        if doc["engine"]["version"] != version:
            problems.append(f"{name}: engine version {doc['engine']['version']!r}")
        if name == "gn.json":
            for k, diff in doc["difference"].items():
                if abs(diff) > 1e-9 * abs(doc["predicted"][k]):
                    problems.append(f"gn order {k} differs from the law by {diff!r}")
        elif name == "mc.json":
            se = doc["standard_errors"]
            z_mean = (doc["empirical"]["mean"] - doc["exact"]["mean"]) / se["mean"]
            for label, z in (("mean", z_mean), ("g2", doc["z"]["2"])):
                if z is None or not abs(z) <= Z_LIMIT:
                    problems.append(f"mc {label} z = {z!r}")
        elif name == "plimit.json":
            n, M = doc["config"]["plimit"]["n"], doc["config"]["plimit"]["m"]
            if _rel(doc["mean_limit"], n / M) > 1e-12:
                problems.append(f"plimit mean {doc['mean_limit']!r} != n/M")
    return problems


RUNNERS = {
    "cli_mix": (run_cli, check_cli),
    "bright_scatter": (run_bright, check_bright),
    "mc_crosscheck": (run_mc, check_mc),
    "deep_limit": (run_limit, check_limit),
}


# --- per-layer metrics ----------------------------------------------------------------


def layer_metrics(workload: str, jobs: list[dict], outs: list, t: Traced) -> dict:
    spans = t.rec.spans
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        by_name[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    selfs = self_times(spans)
    done = [(job, out) for job, out in zip(jobs, outs) if out is not None]
    job_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "job")
    glue_s = sum(selfs[s["id"]] for s in spans if s["name"] == "job")
    m: dict[str, float] = {
        "job.s": job_s,
        "job.glue_s": glue_s,
        "job.glue_share": glue_s / job_s,
        "inputs.calls": calls["inputs.input_pmf"],
        "inputs.support_entries": sum(len(out["source"]) for _, out in done if "source" in out),
        "transform.scatter_share": by_name["transform.scatter_pmf"] / job_s,
        "transform.cascade_share": by_name["transform.cascade_pmf"] / job_s,
        "transform.moments_share": by_name["transform.correlation_report"] / job_s,
        "combinatorics.row_share": by_name["combinatorics.fock_scatter_pmf"] / job_s,
        "montecarlo.run_share": by_name["montecarlo.run_mc"] / job_s,
        "montecarlo.jackknife_share": by_name["montecarlo.empirical_report"] / job_s,
    }
    if workload == "bright_scatter":
        stages = [stage for _, out in done for stage in out["stages"]]
    elif workload == "mc_crosscheck":
        stages = [(out["source"].probs, job["M"]) for job, out in done]
    else:
        stages = []
    m.update({f"combinatorics.{k}": v for k, v in row_counts(stages).items()})
    limit_jobs = [job for job, _ in done] if workload == "deep_limit" else []
    m["plimit.entries"] = sum(j["N"] + 1 for j in limit_jobs)
    m["plimit.terms"] = sum((j["N"] + 1) * (j["N"] + 2) // 2 for j in limit_jobs)
    mc_done = done if workload == "mc_crosscheck" else []
    m["montecarlo.frames"] = sum(job["frames"] for job, _ in mc_done)
    m["montecarlo.blocks"] = sum(out["empirical"].blocks for _, out in mc_done)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["name"] != "job":
            layer_self[layer_of(s["name"])] += selfs[s["id"]]
    for layer in LAYERS:
        m[f"{layer}.errors"] = t.errors.get(layer, 0)
        m[f"{layer}.rss_hwm_mb"] = t.rss_hwm.get(layer, 0.0)
        m[f"{layer}.self_share"] = layer_self[layer] / job_s
    return m


# --- the pass -------------------------------------------------------------------------


def prepare(workload: str, seed: int) -> list[dict]:
    """The workload's job list, with input states built as package objects."""
    jobs = make_jobs(workload, seed)
    for job in jobs:
        if "state" in job:
            job["spec"] = _spec(job["state"])
    return jobs


def run_pass(workload: str, seed: int, trace: bool, spawned: float, tmp_root: Path) -> dict:
    jobs = prepare(workload, seed)
    run, check = RUNNERS[workload]
    t = Traced() if trace else Untraced()

    setup_s = time.monotonic() - spawned
    refs = [reference_s()]
    latencies, failures, outs, output_bytes = [], [], [], []
    check_s = 0.0
    start = time.perf_counter()
    for job in jobs:
        if workload == "cli_mix":
            job["out"] = Path(tempfile.mkdtemp(prefix=f"{job['id']}-", dir=tmp_root))
        t.rec.job = job["id"]
        t0 = time.perf_counter()
        try:
            with t.rec.span("job"):
                out = run(job, t)
            error = None
        except Exception as exc:  # a failed job is counted, the pass goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)

        c0 = time.perf_counter()
        try:
            problems = [error] if error else check(job, out)
        except Exception as exc:  # an output that breaks the check fails it
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"job": job["id"], "problems": problems})
        if workload == "cli_mix":
            output_bytes.append(sum(p.stat().st_size for p in job["out"].iterdir()))
            shutil.rmtree(job["out"])
        if trace and workload == "bright_scatter" and out is not None:
            out["stages"] = count_bright(job, out)
        outs.append(out if trace else None)
        refs.append(reference_s())
        check_s += time.perf_counter() - c0
    pass_s = time.perf_counter() - start - check_s

    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latencies": latencies,
        "refs": refs,
        "jobs": len(jobs),
        "failures": failures,
        "peak_rss_mb": _rss_mb(who),
        "output_bytes": output_bytes,
        "versions": _versions(),
    }
    if trace:
        result["layers"] = layer_metrics(workload, jobs, outs, t)
        result["spans"] = t.rec.spans
    return result


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rggstats": rggstats.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--tmp", required=True, help="temporary directory for CLI outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        prepare(args.workload, args.seed)
        result = {"setup_s": time.monotonic() - args.spawned,
                  "refs": [reference_s() for _ in range(5)]}
    else:
        result = run_pass(args.workload, args.seed, bool(args.trace), args.spawned, Path(args.tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

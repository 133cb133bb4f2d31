"""Benchmark of the rggstats library and CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is used from ``src/``
and is not installed.  One job is in flight at a time (closed loop).  A run
repeats the workload's job list in fresh worker processes ("passes") until
``--seconds`` are used up, checks every job's output, and prints a table of
metrics followed, as its last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  ``--workload all`` runs the four
workloads one after another.  Every run writes its full record (provenance,
sample counts, spans) under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from jobs import WORKLOADS, make_jobs
from measure import LAYERS, job_p50, min_samples_for, slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Hard limit on one run, set-up and probes included.
RUN_LIMIT_S = 165.0
MIN_PASSES = 2
MIN_TRACED_RUN_PASSES = 3  # untraced, traced, untraced
MIN_SETUPS = 3
PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: One small fixed job per CLI subcommand, timed as a fresh process in every
#: traced run, so each subcommand has an end-to-end time on every workload.
CLI_PROBES = {
    "scatter": ["scatter", "--kind", "fock", "--n", "12", "--M", "8"],
    "gn": ["gn", "--kind", "coherent", "--mean", "8", "--M", "8"],
    "plimit": ["plimit", "--n", "60", "--M", "200"],
    "mc": ["mc", "--kind", "coherent", "--mean", "8", "--M", "8", "--frames", "20000"],
    "figure": ["figure", "fig3a"],
}

PER_LAYER = {
    "import.rggstats_s": "s",
    "import.cli_s": "s",
    "import.errors": "count",
    "import.rss_hwm_mb": "MB",
    "cli.startup_s": "s",
    **{f"cli.{sub}_s": "s" for sub in CLI_PROBES},
    "cli.startup_share": "share",
    "cli.output_bytes": "B",
    "inputs.calls": "count",
    "inputs.support_entries": "count",
    "transform.scatter_share": "share",
    "transform.cascade_share": "share",
    "transform.moments_share": "share",
    "combinatorics.row_share": "share",
    "combinatorics.rows_requested": "count",
    "combinatorics.row_entries": "count",
    "combinatorics.row_reuse_share": "share",
    "combinatorics.log_route_share": "share",
    "plimit.entries": "count",
    "plimit.terms": "count",
    "montecarlo.run_share": "share",
    "montecarlo.jackknife_share": "share",
    "montecarlo.frames": "count",
    "montecarlo.blocks": "count",
    **{f"{layer}.{key}": unit for layer in LAYERS
       for key, unit in (("errors", "count"), ("rss_hwm_mb", "MB"), ("self_share", "share"))},
    "job.s": "s",
    "job.glue_s": "s",
    "job.glue_share": "share",
    "trace.overhead_s": "s",
    "trace.ref_slowdown": "x",
}


def job_list_s(passes: list[dict], key: str = "scaled") -> float:
    """Time to run the job list once: each job's median latency over passes, summed.

    Passes repeat the same jobs, so the per-job median drops a pass that a
    burst of load on the machine slowed down, where the median of pass
    totals would keep part of it.
    """
    return sum(statistics.median(lat) for lat in zip(*(p[key] for p in passes)))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess | None:
    """Run a child to completion; ``None`` if it outlived ``timeout`` (it is killed)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.monotonic()
        self.jobs_per_pass = len(make_jobs(workload, seed))
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.attempted = self.failed = 0
        self.failures: list = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def worker(self, tmp: Path, traced: bool, setup_only: bool = False) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(traced)), "--tmp", str(tmp)]
        if setup_only:
            cmd.append("--setup-only")
        spawned = time.monotonic()
        proc = _run_child(cmd + ["--spawned", repr(spawned)], self.remaining())
        if proc is None:
            self.failures.append({"pass": len(self.passes), "problems": ["worker timed out"]})
            return None
        if proc.returncode != 0:
            self.failures.append({"pass": len(self.passes),
                                  "problems": [proc.stderr.strip()[-2000:]]})
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["duration_s"] = time.monotonic() - spawned
        result["slowdown"] = slowdown(result["refs"])
        return result

    def measure(self, tmp: Path) -> None:
        # untimed: fills the OS file cache and writes the bytecode caches
        _run_child([sys.executable, "-m", "rggstats.cli", "--version"], self.remaining())
        need_jobs = min_samples_for(0.5)
        measuring = time.monotonic()
        while self.remaining() > 0:
            elapsed = time.monotonic() - measuring
            latencies = sum(len(p["latencies"]) for p in self.passes)
            min_passes = MIN_TRACED_RUN_PASSES if self.trace else MIN_PASSES
            enough = len(self.passes) >= min_passes and latencies >= need_jobs
            # stop before a pass that would likely end after --seconds
            if enough and elapsed + statistics.median(
                    p["duration_s"] for p in self.passes) > self.seconds:
                break
            traced = self.trace and len(self.passes) % 2 == 1
            result = self.worker(tmp, traced)
            self.attempted += self.jobs_per_pass
            if result is None:
                self.failed += self.jobs_per_pass
                break
            result["traced"] = traced
            result["scaled"] = [x / result["slowdown"] for x in result["latencies"]]
            self.passes.append(result)
            self.setups.append(result["setup_s"] / result["slowdown"])
            self.failed += len(result["failures"])
            self.failures += result["failures"]
        while not self.trace and len(self.setups) < MIN_SETUPS and self.remaining() > 0:
            result = self.worker(tmp, False, setup_only=True)
            if result is None:
                break
            self.setups.append(result["setup_s"] / result["slowdown"])

    def end_to_end(self) -> dict:
        untraced = [p for p in self.passes if not p["traced"]]
        latencies = [x for p in untraced for x in p["scaled"]]
        return {
            "setup_s": (statistics.median(self.setups), len(self.setups)),
            "wall_s": (job_list_s(untraced), len(untraced)),
            "job_p50_s": (job_p50(latencies), len(latencies)),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), len(untraced)),
        }

    def per_layer(self, tmp: Path) -> dict:
        traced = [p for p in self.passes if p["traced"]]
        untraced = [p for p in self.passes if not p["traced"]]
        out = {}
        for name in traced[0]["layers"]:
            out[name] = (statistics.median(p["layers"][name] for p in traced), len(traced))
        out.update(self.probes(tmp))
        sizes = [x for p in traced for x in p["output_bytes"]]
        out["cli.output_bytes"] = (statistics.median_low(sizes) if sizes else 0, len(sizes))
        overhead = job_list_s(traced) - job_list_s(untraced)
        out["trace.overhead_s"] = (overhead, len(traced) + len(untraced))
        out["trace.ref_slowdown"] = (statistics.median(p["slowdown"] for p in self.passes),
                                     len(self.passes))
        return out

    def probes(self, tmp: Path) -> dict:
        """Fresh-interpreter probes of the import and CLI layers.

        A failed probe process counts as a failed job of the run.
        """
        code = ("import json, resource, time; t0 = time.perf_counter(); import rggstats; "
                "t1 = time.perf_counter(); import rggstats.cli; t2 = time.perf_counter(); "
                "print(json.dumps([t1 - t0, t2 - t0, "
                "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))")
        imports, startups, errors = [], [], 0
        for _ in range(PROBES):
            proc = _run_child([sys.executable, "-c", code], self.remaining())
            t0 = time.perf_counter()
            version = _run_child([sys.executable, "-m", "rggstats.cli", "--version"],
                                 self.remaining())
            startup = time.perf_counter() - t0
            if proc is None or proc.returncode or version is None or version.returncode:
                errors += 1
                continue
            imports.append(json.loads(proc.stdout))
            startups.append(startup)
        n = len(imports)
        out = {
            "import.rggstats_s": (statistics.median(x[0] for x in imports), n),
            "import.cli_s": (statistics.median(x[1] for x in imports), n),
            "import.rss_hwm_mb": (max(x[2] for x in imports), n),
            "import.errors": (errors, PROBES),
            "cli.startup_s": (statistics.median(startups), len(startups)),
        }
        for sub, args in CLI_PROBES.items():
            self.attempted += 1
            t0 = time.perf_counter()
            proc = _run_child([sys.executable, "-m", "rggstats.cli", *args,
                               "--out", str(tmp / f"probe-{sub}")], self.remaining())
            out[f"cli.{sub}_s"] = (time.perf_counter() - t0, 1)
            if proc is None or proc.returncode:
                self.failed += 1
                self.failures.append({"probe": sub, "problems": ["CLI probe failed"]})
        typical = statistics.median(out[f"cli.{sub}_s"][0] for sub in CLI_PROBES)
        out["cli.startup_share"] = (out["cli.startup_s"][0] / typical, len(CLI_PROBES))
        return out


def provenance(run: Run) -> dict:
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    versions = run.passes[0]["versions"] if run.passes else {}
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        **versions,
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    run = Run(workload, seed, seconds, trace)
    table = {}
    try:
        run.measure(tmp)
        if {p["traced"] for p in run.passes} == ({False, True} if trace else {False}):
            try:
                table = run.per_layer(tmp) if trace else run.end_to_end()
            except ValueError as exc:  # too few samples for a reported statistic
                run.failures.append({"problems": [str(exc)]})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "provenance": provenance(run),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": {k: {"value": v, "samples": n, "unit": units[k]} for k, (v, n) in table.items()},
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in run.passes],
        "spans": [p["spans"] for p in run.passes if p["traced"]],
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    prov = record["provenance"]
    print(f"# {workload}  seed={seed}  trace={int(trace)}  passes={len(run.passes)}  "
          f"jobs/pass={run.jobs_per_pass}  attempted={run.attempted}  failed={run.failed}  "
          f"fail_ratio={run.failed / max(run.attempted, 1):.4f}")
    print(f"# git {prov['git_sha']} dirty={prov['git_dirty']}  nproc={prov['nproc']}  "
          f"python={prov.get('python')} numpy={prov.get('numpy')} scipy={prov.get('scipy')}  "
          f"src_lines={prov['src_lines']}")
    for key, (value, n) in table.items():
        print(f"  {key:34s} {value:14.6g} {units[key]:6s} (n={n})")
    if run.passes and not trace:
        untraced = [p for p in run.passes if not p["traced"]]
        print(f"# times above are at nominal speed; this run's reference slowdown "
              f"{statistics.median(p['slowdown'] for p in run.passes):.3f}, unscaled "
              f"wall_s {job_list_s(untraced, 'latencies'):.4f} s")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    if trace and table:
        shares = {layer: table[f"{layer}.self_share"][0] for layer in LAYERS}
        shares["job glue"] = table["job.glue_share"][0]
        top = max(shares, key=shares.get)
        print(f"# dominant layer by self time: {top} ({shares[top]:.1%} of job time)")
        print(f"# cli start-up (--version process) is {table['cli.startup_share'][0]:.1%} "
              "of the median small CLI job")

    correct = bool(table) and run.failed == 0 and len(table) == len(units)
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in table.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 30,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{workload}:{key}"] = metric
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "rggstats" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'rggstats'}; "
              "run from a full source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

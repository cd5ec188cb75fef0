"""Cold-start certification benchmark for pascucert.

Run from the repository root:

    python3 certbench/run.py --workload certify_closed --seed 1 \\
        --seconds 36 --trace 0

Every pass runs in a fresh interpreter and times everything after
``import pascucert``, so the library's in-process memo caches start empty
in each pass, as they do for every CLI user.  The loop is closed: one
request at a time from one process (the sweep's own worker pool aside).

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates traced and untraced passes and reports the per-layer metrics,
with the tracing overhead as the difference of the two pass times.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The run exits non-zero without that line
when the program cannot be imported or a pass does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import passrun
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(HERE, ".run")
PASSRUN = os.path.join(HERE, "passrun.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# About the median probe_s of an interpreter (its two passrun.probe
# timings added) on the machine in record.json when the benchmark was
# added.  All times are reported at that reference speed: measured *
# PROBE_REF_S / probe_s of the same interpreter.
PROBE_REF_S = 0.32

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s.p50": "s",
    "pass_s.tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "ratio",
}
EXTRA_UNITS = {
    "kernels.integrand_evals": "count",
    "series.order": "terms",
    "cli.sweep.concurrency": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def layer_unit(name: str) -> str:
    if name in EXTRA_UNITS:
        return EXTRA_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def tail(values) -> float:
    """The highest percentile with at least ten samples above it, or the
    maximum while that percentile would not lie above the median (fewer
    than 22 samples, as in every run of this benchmark)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 22 else ordered[-1]


class Runner:
    """Spawns pass interpreters for one run and keeps the run's deadline."""

    def __init__(self, started: float):
        self.started = started
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PASCUCERT_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p)
        self.count = 0

    def spawn(self, job: dict) -> dict:
        """Run one pass interpreter; returns its result with setup_s and
        wall time added, or only the wall time if the pass crashed."""
        self.count += 1
        stem = os.path.join(RUN_DIR, f"{os.getpid()}-{self.count}")
        job = dict(job, output=stem + "-result.json", run_dir=RUN_DIR)
        job_path = stem + "-job.json"
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("no time left for another pass")
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, PASSRUN, job_path],
                                  env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a pass did not finish before the deadline")
        wall = time.monotonic() - t0
        os.unlink(job_path)
        try:
            with open(job["output"]) as fh:
                result = json.load(fh)
            os.unlink(job["output"])
        except (OSError, ValueError):
            if not job.get("workload"):
                raise BenchError("pascucert did not import:\n"
                                 + proc.stderr[-2000:])
            sys.stderr.write(proc.stderr[-2000:])  # crashed: requests count
            return {"wall": wall}                  # as failed
        result["setup_s"] = result.pop("ready") - t0
        result["wall"] = wall
        return result


def measure(args) -> dict:
    started = time.monotonic()
    if not os.path.isfile(os.path.join("src", "pascucert", "__init__.py")):
        raise BenchError("run from the repository root: src/pascucert "
                         "is missing")
    refs = workloads.load_references()
    os.makedirs(RUN_DIR, exist_ok=True)
    runner = Runner(started)
    runner.spawn({})  # warm-up: byte-compiles and fills the file cache

    rng = random.Random(args.seed)
    passes = []
    t_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(runner.spawn({
            "workload": args.workload, "trace": traced,
            "inputs": workloads.pass_inputs(args.workload, rng)}))
        elapsed = time.monotonic() - t_start
        typical = statistics.median(p["wall"] for p in passes)
        if elapsed + typical > args.seconds \
                and (not args.trace or len(passes) >= 2):
            break
    imports = [p for p in passes if "setup_s" in p]
    while not args.trace and len(imports) < SETUP_SAMPLES:
        imports.append(runner.spawn({}))

    done = [p for p in passes if "outcomes" in p]
    if not done:
        raise BenchError("no pass completed")
    attempted, failed, unexpected = 0, [], []
    for p in passes:
        verdict = workloads.judge(args.workload, p.get("outcomes", []), refs)
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        unexpected += verdict["unexpected"]

    summary = {"passes": len(done), "setup_samples": len(imports),
               "failed": sorted(set(failed)),
               "unexpected": sorted(set(unexpected))}
    if args.trace:
        metrics = layer_results(done)
        summary["absent"] = sorted({n for p in done for n in p.get("absent", ())})
        write_trace(args, done)
    else:
        pass_s = [at_reference_speed(p, "pass_s") for p in done]
        metrics = {
            "setup_s": statistics.median(at_reference_speed(p, "setup_s")
                                         for p in imports),
            "pass_s.p50": statistics.median(pass_s),
            "pass_s.tail": tail(pass_s),
            "cpu_s": statistics.median(at_reference_speed(p, "cpu_s")
                                       for p in done),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
            "ok_share": 1.0 - len(failed) / attempted,
        }
        summary["measured"] = {key: [p[key] for p in done]
                               for key in ("pass_s", "probe_s")}
        summary["measured"]["setup_s"] = [p["setup_s"] for p in imports]
    return {"correct": not unexpected, "attempted": attempted,
            "failed": len(failed), "metrics": metrics, "summary": summary}


def at_reference_speed(result: dict, key: str) -> float:
    return result[key] * PROBE_REF_S / result["probe_s"]


def layer_results(done: list) -> dict:
    traced = [p for p in done if p["traced"]]
    plain = [p for p in done if not p["traced"]]
    if not traced or not plain:
        raise BenchError("a traced run needs a traced and an untraced pass")
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in passrun.per_layer_names()}
    metrics["trace.overhead_s"] = (
        statistics.median(at_reference_speed(p, "pass_s") for p in traced)
        - statistics.median(at_reference_speed(p, "pass_s") for p in plain))
    return metrics


def write_trace(args, done: list):
    """All spans of the run, written once at its end."""
    path = os.path.join(
        RUN_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent",
                              "thread", "request"],
                   "passes": [p["spans"] for p in done if p["traced"]]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args)
    except BenchError as exc:
        print(f"certbench: {exc}", file=sys.stderr)
        return 1
    summary = out.pop("summary")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{summary['passes']} passes, {summary['setup_samples']} "
          f"setup samples, {out['attempted']} requests")
    for line in summary["failed"]:
        known = line not in summary["unexpected"]
        print(f"  failed {line}" + (" (known defect)" if known else ""))
    for name in summary.get("absent", ()):
        print(f"  absent {name}")
    for key, values in summary.get("measured", {}).items():
        print(f"  measured {key}: " + " ".join(f"{v:.4g}" for v in values))
    units = {}
    for name, value in out["metrics"].items():
        units[name] = END_TO_END_UNITS.get(name) or layer_unit(name)
        print(f"  {name} = {value:.6g} {units[name]}")
    out["metrics"] = {name: {"value": value, "unit": units[name]}
                      for name, value in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

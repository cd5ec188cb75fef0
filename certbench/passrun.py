"""One cold pass: a fresh interpreter imports pascucert, then runs one
workload's requests in the order it is given, and writes what it measured
and what the program returned as JSON.

Run from the repository root with ``src`` on PYTHONPATH:

    python3 certbench/passrun.py JOB.json

JOB.json holds ``output`` (the result path) and, unless the pass only
measures the import, ``workload``, ``inputs`` (from
``workloads.pass_inputs``), ``trace`` and ``run_dir``.  Nothing in this
file runs before ``import pascucert`` except reading the job, so the
import is timed in a cold interpreter by the caller.
"""

import importlib
import json
import math
import os
import resource
import sys
import time


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    import pascucert
    result = {"ready": time.monotonic()}
    if job.get("workload"):
        result.update(run_pass(pascucert, job))
    else:
        result["probe_s"] = probe() + probe()
    with open(job["output"], "w") as fh:
        json.dump(result, fh)


# Layers traced in a traced pass, as (module, functions).  Metrics are
# named <module>.<function>.calls and <module>.<function>.self_s.
TRACED = (
    ("kernels", ("make_kernel", "moment_sequence", "pi_envelope",
                 "lambda_envelope", "boundary_decay_check",
                 "log_derivative_ratio", "density_slope_sign")),
    ("quadrature", ("integrate_01", "integrate_t1")),
    ("auxfun", ("combined_gq", "pfq")),
    ("certify", ("beta_quadrature_route", "beta_series_route",
                 "beta0_hohlov_closed_form", "m_functional_min",
                 "check_monotone_condition", "check_growth_condition",
                 "verify_membership", "verify_sharpness")),
    ("series", ("extremal_function", "apply_transform", "evaluate_many")),
    ("params", ("hypothesis_check",)),
    ("cli", ("atomic_write",)),
)
# Modules that bind quadrature's functions by name at import time.
IMPORT_SITES = {"quadrature": ("kernels", "certify")}
# Counted, not spanned: one call per integrand evaluation.
INTEGRAND = ("density", "density_complement")
EXTRAS = ("kernels.integrand_evals", "series.order", "cli.sweep.concurrency")


PROBE_ITERATIONS = 1_000_000


def probe() -> float:
    """CPU seconds taken by a fixed pure-Python loop that uses nothing of
    the program.  Run next to a pass, it measures the machine's speed at
    that moment, which drifts by tens of percent on a shared host.  CPU
    time leaves out the moments the virtual CPU is not running at all,
    which would make the probe itself noisier."""
    t0 = time.thread_time()
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        acc += math.sin(i * 1e-3) * i
    return time.thread_time() - t0


def traced_names() -> list:
    return [f"{m}.{f}" for m, fns in TRACED for f in fns]


def per_layer_names() -> list:
    names = [f"{n}.{kind}" for n in traced_names()
             for kind in ("calls", "self_s")]
    return names + list(EXTRAS)


def _module(name):
    try:
        return importlib.import_module(f"pascucert.{name}")
    except ImportError:
        return None


def install(tracer) -> dict:
    """Wrap every TRACED function; returns the mutable per-pass extras."""
    extras = {"order": 0}

    def see_order(args, kwargs):
        f = args[0] if args else kwargs.get("f")
        extras["order"] = max(extras["order"], getattr(f, "order", 0))

    for mod, fns in TRACED:
        homes = (mod, *IMPORT_SITES.get(mod, ()))
        for fn in fns:
            tracer.install(f"{mod}.{fn}", [(_module(h), fn) for h in homes],
                           on_call=see_order if fn == "verify_membership"
                           else None)
    kernels = _module("kernels")
    for fn in INTEGRAND:
        tracer.install(f"kernels.{fn}", [(kernels, fn)], count_only=True)
    return extras


def run_pass(pascucert, job) -> dict:
    import workloads

    def cpu():
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime

    workload, inputs = job["workload"], job["inputs"]
    tracer = extras = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        extras = install(tracer)

    probe_s = probe()
    cli_wall = None
    cpu0 = cpu()
    t0 = time.perf_counter()
    if workload == workloads.SWEEP:
        from pascucert import cli
        out_csv = os.path.join(job["run_dir"], f"sweep-{os.getpid()}.csv")
        argv = workloads.sweep_argv(inputs["x1"], inputs["sigma"], out_csv)
        if tracer is not None:
            tracer.request = "sweep"
        outcomes = workloads.run_sweep(cli, argv)
        cli_wall = time.perf_counter() - t0
    else:
        requests = {r.id: r for r in workloads.CERTIFY[workload]}
        outcomes = []
        for rid in inputs["order"]:
            if tracer is not None:
                tracer.request = rid
            outcomes.append(workloads.run_certify(pascucert, requests[rid]))
    pass_s = time.perf_counter() - t0
    cpu_s = cpu() - cpu0
    probe_s += probe()
    if cli_wall is not None and os.path.exists(out_csv):
        os.unlink(out_csv)

    result = {
        "outcomes": outcomes,
        "pass_s": pass_s,
        "cpu_s": cpu_s,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "traced": tracer is not None,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, extras, cli_wall)
        result["absent"] = tracer.absent
        result["spans"] = [list(s) for s in tracer.spans]
    return result


def layer_metrics(tracer, extras, cli_wall) -> dict:
    from tracing import self_times
    calls = tracer.calls()
    self_s = self_times(tracer.spans)
    out = {}
    for name in traced_names():
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["kernels.integrand_evals"] = sum(calls.get(f"kernels.{fn}", 0)
                                         for fn in INTEGRAND)
    out["series.order"] = extras["order"]
    out["cli.sweep.concurrency"] = (tracer.worker_busy() / cli_wall
                                    if cli_wall else 0.0)
    return out


if __name__ == "__main__":
    main()

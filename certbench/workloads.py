"""The benchmark's workloads, their seeded request order, and the checks.

A request is one certification or one sweep row.  The seed only permutes
the order of requests within a pass; the program sees the resulting
inputs and nothing else.

Workloads, and why each was chosen:

- certify_closed: six ``run_certification`` calls whose moments are all
  closed form, so the Lambda/Pi envelopes dominate.  No two requests share
  a (kernel, mu, nu) key.  Two requests are known defects and stay in:
  bernardi c=1 at xi=0.5 returns a false FAIL at order 512, and komatu
  c=-0.5 delta=4 at mu=nu=2 raises QuadratureFailure.
- certify_quadmoments: two Hohlov kernels with a != 1, whose moments come
  from per-n quadrature, so the moments layer does most of the work.
- sweep_checks: one in-process ``pascucert sweep`` over 8 points.  It runs
  the checkers, beta, the sweep's worker pool and CLI output; 4 of the 8
  points repeat a (kernel, mu, nu) key of another point.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from typing import NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
TRACEBACK_MARK = "Traceback (most recent call last)"


class Certify(NamedTuple):
    id: str
    kernel: str
    mu: float = 1.0
    nu: float = 2.0
    sigma: float = 0.1
    xi: float = 1.0


CERTIFY = {
    "certify_closed": (
        Certify("komatu_c0_d3", "komatu c=0 delta=3"),
        Certify("bernardi_c1_xi05", "bernardi c=1", xi=0.5),
        Certify("hohlov_a1_b1_c4", "hohlov a=1 b=1 c=4"),
        Certify("generalized_x1", "generalized A=1 B=1 C=4 x1=1"),
        Certify("two_param_log", "two_param_log a=-0.5 b=0"),
        Certify("komatu_cm05_d4_mu2", "komatu c=-0.5 delta=4", mu=2.0),
    ),
    "certify_quadmoments": (
        Certify("hohlov_a05_b08_c45", "hohlov a=0.5 b=0.8 c=4.5"),
        Certify("hohlov_a15_b05_c4", "hohlov a=1.5 b=0.5 c=4"),
    ),
}

SWEEP_KERNEL = "generalized A=1 B=1 C=4 x1={}"
SWEEP_X1 = (0.5, 1.0, 2.0, 4.0)
SWEEP_SIGMA = (0.0, 0.1)
SWEEP = "sweep_checks"

WORKLOADS = (*CERTIFY, SWEEP)


def sweep_row_id(x1: float, sigma: float) -> str:
    return f"x1={x1:g} sigma={sigma:g}"


def request_ids(workload: str) -> list:
    if workload == SWEEP:
        return [sweep_row_id(x, s) for x in SWEEP_X1 for s in SWEEP_SIGMA]
    return [r.id for r in CERTIFY[workload]]


def pass_inputs(workload: str, rng: random.Random) -> dict:
    """The next pass's inputs: the workload's requests in a seeded order."""
    if workload == SWEEP:
        return {"x1": rng.sample(SWEEP_X1, len(SWEEP_X1)),
                "sigma": rng.sample(SWEEP_SIGMA, len(SWEEP_SIGMA))}
    ids = request_ids(workload)
    return {"order": rng.sample(ids, len(ids))}


def sweep_argv(x1_values, sigma_values, output: str) -> list:
    def values(xs):
        return "{" + ",".join(f"{x:g}" for x in xs) + "}"

    return ["sweep", "--kernel", SWEEP_KERNEL.format(values(x1_values)),
            "--mu", "1", "--nu", "2", "--sigma", values(sigma_values),
            "--xi", "1", "--format", "csv", "--output", output]


# ---------------------------------------------------------------------------
# running requests

def call_captured(fn):
    """fn() with stderr captured; returns (value, exception type name or
    None, captured stderr).  A traceback the program prints shows up in
    the captured text."""
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        try:
            return fn(), None, buf.getvalue()
        except Exception as exc:  # any program failure counts as failed
            return None, type(exc).__name__, buf.getvalue()


def _fault(error, err_text, code=0):
    if error is not None:
        return "raises"
    if code == 2:
        return "exit2"
    if TRACEBACK_MARK in err_text:
        return "traceback"
    return None


def run_certify(pascucert, req: Certify) -> dict:
    def certify():
        kernel = pascucert.parse_kernel(req.kernel)
        params = pascucert.ParameterSet.from_mu_nu(req.mu, req.nu,
                                                   req.sigma, req.xi)
        report = pascucert.run_certification(kernel, params)
        return {"beta": report.beta_integral, "verdict": report.passed()}

    value, error, err_text = call_captured(certify)
    return {"id": req.id, "fault": _fault(error, err_text),
            "error_type": error, **(value or {})}


def run_sweep(cli, argv: list) -> list:
    """One sweep; one outcome per CSV row, or one per expected row when
    the whole command failed."""
    output = argv[argv.index("--output") + 1]
    code, error, err_text = call_captured(lambda: cli.main(argv))
    fault = _fault(error, err_text, code)
    rows = []
    if fault is None:
        try:
            with open(output, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError:
            fault = "no_output"
    if fault is not None:
        return [{"id": rid, "fault": fault, "error_type": error}
                for rid in request_ids(SWEEP)]
    return [sweep_outcome(row) for row in rows]


def sweep_outcome(row: dict) -> dict:
    x1 = float(row["kernel"].split("x1=")[1].split()[0])
    try:
        beta = float(row["beta"])
    except ValueError:  # NotApplicable: the sweep could not solve beta
        beta = None
    return {"id": sweep_row_id(x1, float(row["sigma"])), "fault": None,
            "beta": beta, "verdict": row["passed"] == "True"}


# ---------------------------------------------------------------------------
# checks

def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def failure(outcome: dict, ref: dict, beta_tol: float) -> Optional[str]:
    """Why a request failed, or None.

    A request fails if it raises, exits with code 2, prints a traceback,
    returns a verdict other than the expected one, or returns a beta
    further than beta_tol from the reference.
    """
    if outcome.get("fault"):
        return outcome["fault"]
    if outcome.get("beta") is None \
            or abs(outcome["beta"] - ref["beta"]) > beta_tol:
        return "beta"
    if ref.get("verdict") is not None and outcome.get("verdict") != ref["verdict"]:
        return "verdict"
    return None


def judge(workload: str, outcomes: list, refs: dict) -> dict:
    """Count attempted and failed requests of one pass.

    unexpected lists failures that are not a recorded known defect failing
    in its recorded way; the run is correct only if it stays empty.
    Requests missing from the outcomes count as failed and unexpected.
    """
    table = refs["workloads"][workload]["requests"]
    tol = refs["beta_tol"]
    seen = {o["id"]: o for o in outcomes}
    failed, unexpected = [], []
    for rid, ref in table.items():
        outcome = seen.get(rid, {})
        why = failure(outcome, ref, tol) if outcome else "missing"
        if why is None:
            continue
        line = " ".join(filter(None, (f"{rid}: {why}",
                                      outcome.get("error_type"))))
        failed.append(line)
        if ref.get("known_defect") != why:
            unexpected.append(line)
    return {"attempted": len(table), "failed": failed,
            "unexpected": unexpected}

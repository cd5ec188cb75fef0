"""Regenerate references.json, the expected outputs of every request.

Run from the repository root (takes about a minute):

    PYTHONPATH=src python3 certbench/make_references.py

- beta: ``run_certification(...).beta_integral``; for the Hohlov a = 1
  kernel the independent hypergeometric closed form
  ``beta0_hohlov_closed_form``; where the certification raises, and for
  sweep rows, ``beta_sharp``.  The difference to the other route is kept.
- verdict: ``report.passed()`` of a certification at truncation order
  8192, where truncation no longer decides the membership margin; for a
  sweep row, the ``passed`` column of the sweep, which does not depend on
  the order.  None where no certification completes.
- known_defect: how the request fails at the default settings of the
  commit the references were made at ("verdict", "raises", ...), or None.
"""

import csv
import json
import os
import subprocess
import sys

import pascucert
from pascucert import certify, cli

import workloads

VERDICT_ORDER = 8192


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def certify_reference(req) -> dict:
    kernel = pascucert.parse_kernel(req.kernel)
    params = pascucert.ParameterSet.from_mu_nu(req.mu, req.nu, req.sigma,
                                               req.xi)
    beta_sharp = certify.beta_sharp(kernel, params)
    ref = {"kernel": req.kernel, "mu": req.mu, "nu": req.nu,
           "sigma": req.sigma, "xi": req.xi}
    try:
        report = pascucert.run_certification(kernel, params,
                                             order=VERDICT_ORDER)
    except pascucert.PascucertError as exc:
        ref.update(beta=beta_sharp, verdict=None,
                   provenance=f"run_certification raises "
                   f"{type(exc).__name__} at order {VERDICT_ORDER}: the "
                   f"request must return a report, no verdict is expected; "
                   f"beta from beta_sharp")
        return ref
    ref.update(beta=report.beta_integral, verdict=report.passed(),
               provenance=f"beta_integral of run_certification; series "
               f"route differs by "
               f"{abs(report.beta_integral - report.beta_series):.2g}; "
               f"verdict at order {VERDICT_ORDER}")
    if report.beta_closed_form is not None:
        ref["beta"] = report.beta_closed_form
        ref["provenance"] = (
            f"beta from beta0_hohlov_closed_form (6F5 at -1), which "
            f"beta_integral matches to "
            f"{abs(report.beta_integral - report.beta_closed_form):.2g}; "
            f"verdict at order {VERDICT_ORDER}")
    return ref


def sweep_references(run_dir: str) -> dict:
    out_csv = os.path.join(run_dir, "reference-sweep.csv")
    cli.main(workloads.sweep_argv(workloads.SWEEP_X1, workloads.SWEEP_SIGMA,
                                  out_csv))
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    os.unlink(out_csv)
    refs = {}
    for row in rows:
        rid = workloads.sweep_outcome(row)["id"]
        params = pascucert.ParameterSet.from_mu_nu(
            float(row["mu"]), float(row["nu"]), float(row["sigma"]),
            float(row["xi"]))
        kernel = pascucert.parse_kernel(row["kernel"])
        refs[rid] = {
            "kernel": row["kernel"], "mu": params.mu, "nu": params.nu,
            "sigma": params.sigma, "xi": params.xi,
            "beta": certify.beta_sharp(kernel, params),
            "verdict": row["passed"] == "True",
            "provenance": "beta from beta_sharp; verdict from the passed "
                          "column of the sweep (checkers and hypotheses)"}
    return refs


def known_defects(workload: str, table: dict, tol: float):
    """Record how each request fails at the default settings."""
    if workload == workloads.SWEEP:
        out_csv = os.path.join(workloads.HERE, ".run", "defects.csv")
        outcomes = workloads.run_sweep(cli, workloads.sweep_argv(
            workloads.SWEEP_X1, workloads.SWEEP_SIGMA, out_csv))
        os.unlink(out_csv)
    else:
        outcomes = [workloads.run_certify(pascucert, r)
                    for r in workloads.CERTIFY[workload]]
    for o in outcomes:
        table[o["id"]]["known_defect"] = workloads.failure(
            o, table[o["id"]], tol)


def main():
    run_dir = os.path.join(workloads.HERE, ".run")
    os.makedirs(run_dir, exist_ok=True)
    tol = certify.BETA_ROUTE_TOL
    refs = {
        "commit": commit(),
        "beta_tol": tol,
        "beta_tol_provenance": "BETA_ROUTE_TOL, the agreement the program "
                               "demands of its two beta routes",
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        if workload == workloads.SWEEP:
            table = sweep_references(run_dir)
        else:
            table = {r.id: certify_reference(r)
                     for r in workloads.CERTIFY[workload]}
        known_defects(workload, table, tol)
        refs["workloads"][workload] = {"requests": table}
        print(workload, {k: (v["verdict"], v["known_defect"])
                         for k, v in table.items()}, file=sys.stderr)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()

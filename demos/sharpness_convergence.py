"""Sharpness of beta, seen through series truncation.

At the sharp beta the extremal function maps to the boundary of the
target class: the starlikeness quantity Re(z K'/K) tends to exactly
sigma as z -> -1.  This demo transforms the extremal function at several
truncation orders and shows the extrapolated boundary residual
|lim Re(z K'/K) - sigma| settling as the order grows, while a deliberately
perturbed beta leaves a residual that refuses to vanish.
"""

from pascucert import ParameterSet, beta_sharp, make_kernel, moment_sequence
from pascucert.oracles import (apply_transform, extremal_function,
                               k_combination, verify_sharpness)


def residual(kernel, params, beta, order):
    f = extremal_function(params.mu, params.nu, beta, order)
    image = apply_transform(f, moment_sequence(kernel, order - 1))
    return verify_sharpness(k_combination(image, params.xi), params.sigma)


def main():
    kernel = make_kernel("komatu", c=0.0, delta=3.0)
    params = ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    beta = beta_sharp(kernel, params)
    print(f"sharp beta = {beta:.12g}")
    print(f"{'order':>6} {'residual at beta':>18} {'at beta + 0.05':>16}")
    for order in (128, 256, 512, 1024):
        r_sharp = residual(kernel, params, beta, order)
        r_off = residual(kernel, params, beta + 0.05, order)
        print(f"{order:6d} {r_sharp:18.3e} {r_off:16.3e}")


if __name__ == "__main__":
    main()

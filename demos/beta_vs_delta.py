"""How the sharp bound beta moves with the Komatu kernel parameter delta.

The Komatu density concentrates near t = 1 as delta grows, so the
transform averages f closer to the identity and the admissible class
W_beta can start lower (beta more negative means a weaker hypothesis
suffices).  The growth margin and the functional minimum stay positive
over the whole range here, but the sufficient-condition theorem only
vouches for delta >= 3 - c; the last column flags where its full
hypothesis list holds.
"""

import numpy as np

from pascucert import ParameterSet, make_kernel, run_certification
from pascucert.certify import condition_margins


def main():
    params = ParameterSet.from_mu_nu(1.0, 2.0, sigma=0.1, xi=1.0)
    print(f"{'delta':>6} {'beta':>16} {'growth margin':>14} "
          f"{'M minimum':>12} {'hypotheses':>11}")
    for delta in np.arange(1.5, 5.5, 0.5):
        kernel = make_kernel("komatu", c=0.0, delta=float(delta))
        # the duality route gives beta and the functional minimum, the
        # theorem route the growth margin and the hypothesis audit
        rep = run_certification(kernel, params)
        margins, hyp = condition_margins(kernel, params)
        flag = "ok" if hyp.all_satisfied else "outside"
        print(f"{delta:6.2f} {rep.beta_integral:16.10f} "
              f"{margins['growth']:14.6f} "
              f"{rep.m_functional_min:12.3e} {flag:>11}")


if __name__ == "__main__":
    main()

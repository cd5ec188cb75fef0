"""Certification of integral transforms into the Pascu class.

The transform V(f)(z) = int_0^1 lambda(t) f(tz)/t dt of a weighted class
of analytic functions is tested for membership in M(sigma, xi), the class
where xi z f' + (1 - xi) f is starlike of order sigma.  The package solves
the sharp admissibility threshold beta, evaluates the duality functional
whose nonnegativity certifies membership, and checks the monotonicity and
density-growth sufficient conditions for the standard kernel families.
The independent reference routes that tests and demos compare against are
in pascucert.oracles, which this package does not import.
"""

from .errors import (PascucertError, NoRealRoots, DomainError,
                     QuadratureFailure, CriticalPoint, PoleError,
                     RepresentationMismatch, ZeroDenominator, NotApplicable,
                     ConfigError)
from .params import (ParameterSet, Row, HypothesisReport,
                     resolve_mu_nu, sigma_upper_bound, hypothesis_check,
                     combination_ratio)
from .auxfun import l_integrand
from .kernels import (KernelSpec, make_kernel, parse_kernel, density,
                      density_derivatives, moment, moment_sequence, envelopes)
from .certify import (DiskGrid, CertificationReport, SharedPieces,
                      beta_sharp, beta_from_integral, m_functional,
                      check_monotone_condition, check_growth_condition,
                      extremal_image, run_certification)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

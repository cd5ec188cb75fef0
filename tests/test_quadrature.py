"""The oracles' numpy-only adaptive Gauss-Kronrod integrator, the calls of
the kernel check, and the import path."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import pascucert as pc
from pascucert import kernels, oracles
from pascucert.errors import DomainError, QuadratureFailure
from pascucert.oracles import _MAX_PANELS, _sub_power, integrate_01
from pascucert.quadrature import gauss_legendre

# one kernel per family, plus the singular endpoints the benchmark meets
KERNELS = [
    pc.make_kernel("bernardi", c=1.0),
    pc.make_kernel("komatu", c=0.0, delta=3.0),
    pc.make_kernel("komatu", c=-0.5, delta=4.0),
    pc.make_kernel("komatu", c=1.0, delta=0.5),
    pc.make_kernel("hohlov", a=1.0, b=1.0, c=4.0),
    pc.make_kernel("hohlov", a=0.5, b=0.8, c=4.5),
    pc.make_kernel("hohlov", a=0.5, b=0.8, c=1.5),
    pc.make_kernel("two_param_log", a=-0.5, b=0.0),
    pc.make_kernel("ali_singh", k=0.5),
    pc.make_kernel("generalized", A=1.0, B=1.0, C=4.0, x1=1.0),
]


def _quad_reference(f, f_complement, p, q):
    """integrate_01's substitutions with scalar scipy.integrate.quad at
    a far tighter tolerance."""
    from scipy import integrate
    ml, mr = _sub_power(p), _sub_power(q)
    with warnings.catch_warnings():
        # this tolerance is out of reach in places; the rounding floor is
        # still far below the ones tested
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        vl, _ = integrate.quad(lambda u: f(u**ml) * ml * u ** (ml - 1),
                               0.0, 0.5 ** (1.0 / ml), epsabs=1e-15,
                               epsrel=1e-14, limit=500)
        vr, _ = integrate.quad(
            lambda v: f_complement(v**mr) * mr * v ** (mr - 1),
            0.0, 0.5 ** (1.0 / mr), epsabs=1e-15, epsrel=1e-14, limit=500)
    return vl + vr


@pytest.mark.parametrize("kernel", KERNELS, ids=[k.text() for k in KERNELS])
def test_integrate_01_matches_scipy_quad_on_mass_and_beta(kernel):
    p, q = kernels.endpoint_exponents(kernel)
    params = pc.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 1.0)

    def mass(t):
        return kernels.density(kernel, t)

    def mass_c(d):
        return kernels.density_complement(kernel, d)

    def beta(t):
        return kernels.density(kernel, t) * oracles.combined_gq(params, t)

    def beta_c(d):
        return (kernels.density_complement(kernel, d)
                * oracles.combined_gq(params, 1.0 - d))

    for f, fc, epsabs in ((mass, mass_c, 1e-12), (beta, beta_c, 1e-10)):
        got = integrate_01(f, p, q, epsabs=epsabs, f_complement=fc)
        assert abs(got - _quad_reference(f, fc, p, q)) <= epsabs


def test_integrate_01_one_call_per_round_and_panel_cap():
    sizes = []

    def f(t):
        sizes.append(t.size)
        return t**-0.999  # declared regular below, so no substitution helps

    with pytest.raises(QuadratureFailure) as info:
        integrate_01(f, 0.0, 0.0)
    assert info.value.residual > 1e-8
    # the left half refines until the panel cap; each call is one round
    assert max(sizes) <= 2 * 21 * _MAX_PANELS
    assert sum(sizes) <= 2 * 21 * (2 * _MAX_PANELS - 1)


@pytest.mark.parametrize("text", ["komatu c=0 delta=3",
                                  "komatu c=-0.5 delta=4", "bernardi c=1",
                                  "generalized A=1 B=1 C=4 x1=1"])
def test_kernel_check_calls_each_density_view_once(monkeypatch, text):
    # the sign rule takes density on its 50 points and density_complement
    # on the same 50 distances from t = 1; the mass is closed form
    calls = []
    for name in ("density", "density_complement"):
        f = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda k, t, f=f, name=name:
                            calls.append((name, np.size(t))) or f(k, t))
    kernels.parse_kernel(text)
    assert calls == [("density", 50), ("density_complement", 50)]


def test_graded_split_resolves_a_log_power_at_zero():
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.log(t) ** 2

    # int_0^1 log(t)**2 dt = 2
    assert integrate_01(f, 0.0, 0.0, epsabs=1e-12) == pytest.approx(
        2.0, abs=1e-12)
    assert len(sizes) <= 4


def test_integrate_01_rejects_divergent_exponent():
    with pytest.raises(QuadratureFailure):
        integrate_01(lambda t: t**-1.0, -1.0)


def test_integrate_01_endpoint_singularities():
    # t**-0.5 on the left, log(1 - t)**2 on the right
    val = integrate_01(lambda t: t**-0.5 + np.log1p(-t) ** 2, -0.5, 0.0,
                       f_complement=lambda d: (1.0 - d) ** -0.5
                       + np.log(d) ** 2)
    assert val == pytest.approx(4.0, abs=1e-10)


def test_integrate_01_skips_nodes_below_the_normal_doubles():
    # f is never sampled at t = 0 or d = 0; t**p below 2.2e-308 is left out
    tiny = np.finfo(float).tiny
    seen = []

    def f(t):
        seen.append(t.min())
        return 0.01 * t**-0.99

    val = integrate_01(f, -0.99, 0.0, f_complement=lambda d: f(1.0 - d))
    assert min(seen) >= tiny
    assert val == pytest.approx(1.0 - tiny**0.01, abs=1e-9)
    d_seen = []
    val = integrate_01(lambda t: 0.5 * (1.0 - t) ** -0.5, 0.0, -0.5,
                       f_complement=lambda d: d_seen.append(d.min())
                       or 0.5 * d**-0.5)
    assert min(d_seen) >= tiny
    assert val == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("end", [0, 1])
def test_integrate_01_names_a_value_that_is_not_finite(end):
    def f(t):
        near = t < 1e-3 if end == 0 else t > 1.0 - 1e-3
        return np.where(near, np.inf * t, 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"not finite at t -> {end}"):
            integrate_01(f)


def test_import_and_runs_leave_scipy_integrate_unloaded(tmp_path):
    # no scipy module, no mpmath, no pascucert.oracles, no argparse, no
    # getopt or gettext, no dataclasses, no decimal (the 40-digit 2F1 route
    # next to a zero of F) and no numpy.polynomial at all (the CLI reads
    # its flags itself, the records are NamedTuples, the Gauss-Legendre
    # rules are literal tables): not
    # after the import, not after Hohlov certifications (generic,
    # logarithmic, near-integer and terminating 2F1 factors, and a = 1,
    # where the 6F5 closed form of beta applies), not after an in-process
    # sweep or the other commands (beta and certify at a = 1 among them).
    # json loads only for --format json: not after the import, the csv
    # sweep or csv moments
    args = ["--kernel", "hohlov a=1 b=1 c=4", "--mu", "1", "--nu", "2",
            "--sigma", "0.1", "--xi", "1", "--format", "json", "--output",
            str(tmp_path / "out")]
    script = textwrap.dedent(f"""
        import sys

        def foreign():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in ("scipy", "mpmath", "argparse",
                                                 "getopt", "gettext",
                                                 "dataclasses", "decimal")
                          or m.startswith("numpy.polynomial")
                          or m == "pascucert.oracles")

        import pascucert as pc
        from pascucert import cli
        loaded, json_loaded = [foreign()], ["json" in sys.modules]
        params = pc.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 1.0)
        for text in ("hohlov a=0.5 b=0.8 c=4.5", "hohlov a=1.5 b=0.5 c=4",
                     "hohlov a=1 b=1 c=4", "hohlov a=0.5 b=0.5000001 c=4",
                     "hohlov a=0.5 b=0.52 c=4"):
            pc.run_certification(pc.parse_kernel(text), params)
            loaded.append(foreign())
        cli.main(["sweep", "--kernel", "generalized A=1 B=1 C=4 x1={{1,2}}",
                  "--mu", "1", "--nu", "2", "--sigma", "0.1", "--xi", "1",
                  "--format", "csv", "--output", {str(tmp_path / "s.csv")!r}])
        loaded.append(foreign())
        json_loaded.append("json" in sys.modules)
        cli.main(["moments", "--kernel", "hohlov a=0.5 b=0.8 c=4.5",
                  "--format", "csv", "--output", {str(tmp_path / "m.csv")!r}])
        loaded.append(foreign())
        json_loaded.append("json" in sys.modules)
        for command in (["check"], ["beta"],
                        ["certify", "--plot-data",
                         {str(tmp_path / "p.csv")!r}]):
            cli.main(command + {args!r})
            loaded.append(foreign())
        print(loaded, json_loaded)
        """)
    src = str(Path(pc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == f"{[[]] * 11!r} {[False] * 3!r}"
    assert (tmp_path / "p.csv").exists() and (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("n", [10, 20, 24])
def test_gauss_legendre_tables_equal_leggauss(n):
    # the literal tables replace numpy.polynomial at import, bit for bit
    x, w = gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == ref_x.tobytes()
    assert w.tobytes() == ref_w.tobytes()


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]])
def test_cli_help_runs_in_a_fresh_interpreter(argv):
    src = str(Path(pc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-m", "pascucert.cli"] + argv,
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout.startswith("usage: pascucert")
    assert out.stderr == ""

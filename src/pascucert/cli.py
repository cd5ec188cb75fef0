"""Command-line front end.

Kernel grammar: ``family key=value ...`` with decimal literals, e.g.
``komatu c=0 delta=3``.  In sweep mode any value (kernel parameter or the
sigma/xi/mu/nu/alpha/gamma flags) may be a set ``{v1,v2,...}`` or a range
``[lo:hi:n]`` (n points, endpoints included); the sweep runs the cartesian
product.

Defaults (grid sizes, truncation order, output format) can be overridden
by flags or by environment variables prefixed ``PASCUCERT_`` (e.g.
``PASCUCERT_ORDER=256``).

Exit codes: 0 all requested checks passed, 1 a check failed (report still
written), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import certify, kernels, params as params_mod
from .errors import PascucertError, ConfigError

SCHEMA_VERSION = 1
ENV_PREFIX = "PASCUCERT_"


# ---------------------------------------------------------------------------
# config

@dataclass(frozen=True)
class RunConfig:
    command: str
    kernel: str
    alpha: Optional[float] = None
    gamma: Optional[float] = None
    mu: Optional[float] = None
    nu: Optional[float] = None
    sigma: float = 0.0
    xi: float = 0.0
    radii: tuple = (0.5, 0.9, 0.99, 0.999)
    angles: int = 256
    order: int = 512
    nmax: int = 50
    tol: float = 0.0
    output: Optional[str] = None
    format: str = "text"
    plot_data: Optional[str] = None

    def __post_init__(self):
        if self.command not in ("beta", "certify", "check", "sweep",
                                "moments"):
            raise ConfigError(f"unknown command {self.command!r}")
        have_ag = self.alpha is not None or self.gamma is not None
        have_mn = self.mu is not None or self.nu is not None
        if have_ag and have_mn:
            raise ConfigError("give either alpha/gamma or mu/nu, not both")
        if not have_ag and not have_mn and self.command != "moments":
            raise ConfigError("one of alpha/gamma or mu/nu is required")
        if have_ag and (self.alpha is None or self.gamma is None):
            raise ConfigError("alpha and gamma must be given together")
        if have_mn and (self.mu is None or self.nu is None):
            raise ConfigError("mu and nu must be given together")
        if self.tol < 0.0:
            raise ConfigError("tol must be nonnegative")
        if self.format not in ("json", "csv", "text"):
            raise ConfigError(f"unknown format {self.format!r}")

    def parameter_set(self) -> params_mod.ParameterSet:
        if self.alpha is not None:
            return params_mod.ParameterSet.from_alpha_gamma(
                self.alpha, self.gamma, self.sigma, self.xi)
        return params_mod.ParameterSet.from_mu_nu(
            self.mu, self.nu, self.sigma, self.xi)

    def disk_grid(self) -> certify.DiskGrid:
        return certify.DiskGrid(radii=self.radii, angles=self.angles)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["radii"] = list(self.radii)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(d)
        d["radii"] = tuple(d.get("radii", (0.5, 0.9, 0.99, 0.999)))
        return cls(**d)


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"bad value for {ENV_PREFIX}{name}: {raw!r}")


def _parse_radii(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"bad radii list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascucert",
        description="Certify integral transforms into the Pascu class.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("beta", "solve the sharp lower bound beta"),
            ("certify", "run the full certification pipeline"),
            ("check", "run the sufficient-condition checkers"),
            ("sweep", "run checkers over a parameter sweep"),
            ("moments", "print kernel moments")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--kernel", required=True,
                       help='kernel text, e.g. "komatu c=0 delta=3"')
        p.add_argument("--alpha", default=None)
        p.add_argument("--gamma", default=None)
        p.add_argument("--mu", default=None)
        p.add_argument("--nu", default=None)
        p.add_argument("--sigma", default="0")
        p.add_argument("--xi", default="0")
        p.add_argument("--radii", type=_parse_radii,
                       default=_env_default("RADII", (0.5, 0.9, 0.99, 0.999),
                                            _parse_radii))
        p.add_argument("--angles", type=int,
                       default=_env_default("ANGLES", 256, int))
        p.add_argument("--order", type=int,
                       default=_env_default("ORDER", 512, int))
        p.add_argument("--nmax", type=int,
                       default=_env_default("NMAX", 50, int))
        p.add_argument("--tol", type=float,
                       default=_env_default("TOL", 0.0, float))
        p.add_argument("--output", default=None,
                       help="write the report here (atomic); default stdout")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default=_env_default("FORMAT", "text", str))
        p.add_argument("--plot-data", default=None,
                       help="also write plot-ready CSV curves here")
    return parser


# ---------------------------------------------------------------------------
# sweep value grammar

def expand_sweep_value(text: str) -> list:
    """``{v1,v2}`` -> list, ``[lo:hi:n]`` -> n points, else single float."""
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        try:
            return [float(x) for x in text[1:-1].split(",")]
        except ValueError:
            raise ConfigError(f"bad sweep set: {text!r}")
    if text.startswith("[") and text.endswith("]"):
        parts = text[1:-1].split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad sweep range: {text!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad sweep range: {text!r}")
        if n < 1:
            raise ConfigError(f"bad sweep range: {text!r}")
        if n == 1:
            return [lo]
        return list(np.linspace(lo, hi, n))
    try:
        return [float(text)]
    except ValueError:
        raise ConfigError(f"bad numeric value: {text!r}")


def expand_kernel_sweep(text: str) -> list:
    """All concrete kernel texts from a kernel spec with sweep values."""
    parts = text.split()
    if not parts:
        raise ConfigError("empty kernel text")
    family = parts[0]
    keys, choices = [], []
    for item in parts[1:]:
        if "=" not in item:
            raise ConfigError(f"bad kernel item {item!r}")
        k, v = item.split("=", 1)
        keys.append(k)
        choices.append(expand_sweep_value(v))
    out = []
    for combo in itertools.product(*choices):
        items = " ".join(f"{k}={v:g}" for k, v in zip(keys, combo))
        out.append(f"{family} {items}".strip())
    return out


def _scalar(text, name):
    vals = expand_sweep_value(text)
    if len(vals) != 1:
        raise ConfigError(f"{name} must be a single value here")
    return vals[0]


# ---------------------------------------------------------------------------
# output formatting

def _fmt15(x: float) -> float:
    return float(f"{x:.15g}")


def _clean(obj):
    """Round floats to 15 significant digits; map NaN and +-inf to None."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return _fmt15(x) if math.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".pascucert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        atomic_write(path, text)


def _json_text(payload: dict) -> str:
    return json.dumps(_clean(payload), indent=2, allow_nan=False) + "\n"


def _kv_text(payload: dict, prefix="") -> str:
    out = []
    for k, v in payload.items():
        if isinstance(v, dict):
            out.append(_kv_text(v, prefix + k + "."))
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            for i, item in enumerate(v):
                out.append(_kv_text(item, f"{prefix}{k}[{i}]."))
        else:
            out.append(f"{prefix}{k} = {_clean(v)}\n")
    return "".join(out)


def _csv_rows(rows: list, header: list) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("NotApplicable")
            elif isinstance(v, float):
                cells.append(f"{_fmt15(v)!r}")
            else:
                cells.append(str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def emit_plot_data(reports: list) -> str:
    """Plot-ready CSV.

    One report: two blocks, the t-curves (t, Pi, L at argmin z, condition
    margins) then the boundary angular sweep.  Several reports: one summary
    row each.  Inapplicable margin columns carry NotApplicable.
    """
    if not reports:
        raise ConfigError("need at least one report")
    if len(reports) == 1:
        rep = reports[0]
        c = rep.curves
        if not c:
            raise ConfigError("report carries no curves; rerun with curves")
        rows = []
        for i in range(len(c["t"])):
            g = c["growth_margin"][i]
            m = c["monotone_expression"][i]
            rows.append([
                float(c["t"][i]), float(c["pi"][i]),
                float(c["l_at_argmin"][i]),
                None if math.isnan(g) else float(g),
                None if math.isnan(m) else float(m),
            ])
        block1 = _csv_rows(rows, ["t", "pi", "l_at_argmin_z",
                                  "growth_margin", "monotone_expression"])
        rows2 = [[float(th), float(r)]
                 for th, r in zip(c["theta"], c["re_zkprime_over_k"])]
        block2 = _csv_rows(rows2, ["theta", "re_zkprime_over_k"])
        return block1 + "\n" + block2
    rows = []
    for rep in reports:
        m = rep.condition_margins
        rows.append([rep.kernel.text(), rep.params.mu, rep.params.nu,
                     rep.params.sigma, rep.params.xi, rep.beta_integral,
                     rep.m_functional_min, m.get("monotone"),
                     m.get("growth"), rep.membership_min,
                     rep.sharpness_residual, rep.passed()])
    return _csv_rows(rows, ["kernel", "mu", "nu", "sigma", "xi", "beta",
                            "m_functional_min", "monotone_margin",
                            "growth_margin", "membership_min",
                            "sharpness_residual", "passed"])


# ---------------------------------------------------------------------------
# commands

def _cmd_beta(cfg: RunConfig) -> int:
    kernel = kernels.parse_kernel(cfg.kernel)
    p = cfg.parameter_set()
    beta = certify.beta_routes(kernel, p)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": kernel.text(),
        "beta": {"integral": beta.quadrature, "series": beta.series,
                 "routes_agree": beta.agree},
    }
    closed = certify.beta_closed_form(kernel, p)
    if closed is not None:
        payload["beta"]["closed_form"] = closed
    if cfg.format == "json":
        _emit(_json_text(payload), cfg.output)
    elif cfg.format == "csv":
        _emit(_csv_rows([[kernel.text(), beta.quadrature, beta.series,
                          beta.agree]],
                        ["kernel", "beta_integral", "beta_series",
                         "routes_agree"]), cfg.output)
    else:
        _emit(f"beta = {_fmt15(beta.quadrature)!r}\n" + _kv_text(payload),
              cfg.output)
    return 0 if beta.agree else 1


def _check_margins(kernel, p, tol):
    margins, hyp = certify.condition_margins(kernel, p)
    ok = all(v >= -tol for v in margins.values() if v is not None)
    if hyp is not None:
        ok = ok and hyp.all_satisfied
    return margins, hyp, ok


def _cmd_check(cfg: RunConfig) -> int:
    kernel = kernels.parse_kernel(cfg.kernel)
    p = cfg.parameter_set()
    margins, hyp, ok = _check_margins(kernel, p, cfg.tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": kernel.text(),
        "condition_margins": margins,
        "hypothesis_check": None if hyp is None else {
            "theorem": hyp.theorem,
            "all_satisfied": hyp.all_satisfied,
            "hypotheses": [{"name": h.name, "satisfied": h.satisfied,
                            "margin": h.margin} for h in hyp.hypotheses],
        },
        "passed": ok,
    }
    if cfg.format == "json":
        _emit(_json_text(payload), cfg.output)
    elif cfg.format == "csv":
        _emit(_csv_rows(
            [[kernel.text(), margins["monotone"], margins["growth"], ok]],
            ["kernel", "monotone_margin", "growth_margin", "passed"]),
            cfg.output)
    else:
        _emit(_kv_text(payload), cfg.output)
    return 0 if ok else 1


def _cmd_certify(cfg: RunConfig) -> int:
    kernel = kernels.parse_kernel(cfg.kernel)
    p = cfg.parameter_set()
    rep = certify.run_certification(kernel, p, cfg.disk_grid(),
                                    order=cfg.order,
                                    with_curves=cfg.plot_data is not None)
    payload = rep.to_dict()
    if cfg.format == "json":
        _emit(_json_text(payload), cfg.output)
    elif cfg.format == "csv":
        m = rep.condition_margins
        row = [rep.kernel.text(), rep.params.mu, rep.params.nu,
               rep.params.sigma, rep.params.xi, rep.beta_integral,
               rep.m_functional_min, m.get("monotone"), m.get("growth"),
               rep.membership_min, rep.sharpness_residual, rep.passed()]
        _emit(_csv_rows([row], ["kernel", "mu", "nu", "sigma", "xi", "beta",
                                "m_functional_min", "monotone_margin",
                                "growth_margin", "membership_min",
                                "sharpness_residual", "passed"]),
              cfg.output)
    else:
        _emit(_kv_text(payload), cfg.output)
    if cfg.plot_data is not None:
        atomic_write(cfg.plot_data, emit_plot_data([rep]))
    return 0 if rep.passed(tol_functional=max(cfg.tol, 1e-6)) else 1


def _cmd_moments(cfg: RunConfig) -> int:
    kernel = kernels.parse_kernel(cfg.kernel)
    tau = kernels.moment_sequence(kernel, cfg.nmax)
    if cfg.format == "json":
        payload = {"schema_version": SCHEMA_VERSION,
                   "kernel": kernel.text(),
                   "moments": [float(x) for x in tau]}
        _emit(_json_text(payload), cfg.output)
    else:
        rows = [[n + 1, float(tau[n])] for n in range(cfg.nmax)]
        _emit(_csv_rows(rows, ["n", "tau_n"]), cfg.output)
    return 0


def _sweep_point(args):
    ktext, mu, nu, alpha, gamma, sigma, xi, tol = args
    kernel = kernels.parse_kernel(ktext)
    if alpha is not None:
        p = params_mod.ParameterSet.from_alpha_gamma(alpha, gamma, sigma, xi)
    else:
        p = params_mod.ParameterSet.from_mu_nu(mu, nu, sigma, xi)
    try:
        margins, hyp, ok = _check_margins(kernel, p, tol)
    except PascucertError as exc:
        # a checker that breaks down fails the row; its cells name the error
        margins = dict.fromkeys(("monotone", "growth"), type(exc).__name__)
        hyp, ok = None, False
    try:
        beta = certify.beta_sharp(kernel, p)
    except PascucertError:
        beta = None
    return [ktext, p.mu, p.nu, p.sigma, p.xi, beta,
            margins["monotone"], margins["growth"],
            None if hyp is None else hyp.min_margin,
            ok and beta is not None]


def _cmd_sweep(ns) -> int:
    kernel_texts = expand_kernel_sweep(ns.kernel)
    sigmas = expand_sweep_value(ns.sigma)
    xis = expand_sweep_value(ns.xi)
    if ns.mu is not None:
        mus = expand_sweep_value(ns.mu)
        nus = expand_sweep_value(ns.nu)
        points = [(k, m, n, None, None, s, x, ns.tol)
                  for k, m, n, s, x in itertools.product(
                      kernel_texts, mus, nus, sigmas, xis)]
    else:
        alphas = expand_sweep_value(ns.alpha)
        gammas = expand_sweep_value(ns.gamma)
        points = [(k, None, None, a, g, s, x, ns.tol)
                  for k, a, g, s, x in itertools.product(
                      kernel_texts, alphas, gammas, sigmas, xis)]
    rows = [_sweep_point(point) for point in points]
    header = ["kernel", "mu", "nu", "sigma", "xi", "beta", "monotone_margin",
              "growth_margin", "hypothesis_min_margin", "passed"]
    if ns.format == "json":
        payload = {"schema_version": SCHEMA_VERSION,
                   "rows": [dict(zip(header, r)) for r in rows]}
        _emit(_json_text(payload), ns.output)
    else:
        _emit(_csv_rows(rows, header), ns.output)
    return 0 if all(r[-1] for r in rows) else 1


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    handler = {"beta": _cmd_beta, "certify": _cmd_certify,
               "check": _cmd_check, "moments": _cmd_moments}[config.command]
    return handler(config)


def _config_from_namespace(ns) -> RunConfig:
    def opt(v):
        return None if v is None else _scalar(v, "parameter")

    return RunConfig(
        command=ns.command, kernel=ns.kernel,
        alpha=opt(ns.alpha), gamma=opt(ns.gamma),
        mu=opt(ns.mu), nu=opt(ns.nu),
        sigma=_scalar(ns.sigma, "sigma"), xi=_scalar(ns.xi, "xi"),
        radii=tuple(ns.radii), angles=ns.angles, order=ns.order, nmax=ns.nmax,
        tol=ns.tol, output=ns.output, format=ns.format,
        plot_data=ns.plot_data)


def main(argv=None) -> int:
    try:
        # the parser reads its defaults from the environment, which can fail
        ns = build_parser().parse_args(argv)
        if ns.command == "sweep":
            if (ns.alpha is None) == (ns.mu is None):
                raise ConfigError("one of alpha/gamma or mu/nu is required")
            return _cmd_sweep(ns)
        return run(_config_from_namespace(ns))
    except ConfigError as exc:
        print(f"pascucert: config error: {exc}", file=sys.stderr)
        return 2
    except PascucertError as exc:
        print(f"pascucert: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Kernel grammar: ``family key=value ...`` with decimal literals, e.g.
``komatu c=0 delta=3``.  In sweep mode any value (kernel parameter or the
sigma/xi/mu/nu/alpha/gamma flags) may be a set ``{v1,v2,...}`` or a range
``[lo:hi:n]`` (n points, endpoints included); the sweep runs the cartesian
product.

Each command takes ``--kernel``, ``--output`` and ``--format`` and the
flags of the RunConfig fields it reads, which the table ``_COMMANDS``
lists.  One loop over that table's flags (``_read_flags``) reads the
command line, and ``-h`` prints help built from it.  A flag may be given
as ``--flag value`` or ``--flag=value`` and shortened to a unique prefix;
``--`` ends the flags, and a flag not given takes the RunConfig default.
A flag the command does not take, a missing value or ``--kernel``, a
value of the wrong type and a stray argument are usage errors:
``pascucert: error: ...`` on stderr and SystemExit(2).  RunConfig is a
NamedTuple whose constructor checks it; a changed copy is built with
``RunConfig(**{**config._asdict(), ...})``, since ``_replace`` skips the
checks.  For ``--format text``, ``beta``, ``check`` and
``certify`` print key-value lines, ``moments`` and ``sweep`` their CSV.

The verdicts are certify's row tables, which this module only prints;
each report names its failed rows under ``failed``, in CSV joined by ``;``.

Exit codes: 0 all requested checks passed, 1 a check failed (report still
written), 2 usage or configuration error, a parameter value outside its
range included.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import stat
import sys
import tempfile
from typing import NamedTuple, Optional

import numpy as np

from . import certify, kernels, params as params_mod
from .certify import SCHEMA_VERSION
from .params import Row, failed_rows
from .errors import ConfigError, DomainError, NoRealRoots, PascucertError

# the problem-parameter fields, each a value or (in sweep mode) a sweep
_SWEPT = ("alpha", "gamma", "mu", "nu", "sigma", "xi")

# each command's help line and the RunConfig fields it reads besides
# kernel, output and format, in the order of its flags
_COMMANDS = {
    "beta": ("solve the sharp lower bound beta", _SWEPT),
    "certify": ("run the full certification pipeline",
                _SWEPT + ("tol", "angles", "plot_data")),
    "check": ("run the sufficient-condition checkers", _SWEPT + ("tol",)),
    "sweep": ("run checkers over a parameter sweep", _SWEPT + ("tol",)),
    "moments": ("print kernel moments", ("nmax",)),
}

_FORMATS = ("json", "csv", "text")

# the type of each flag value that is not text; the problem flags stay
# text for the sweep grammar
_FLAG_TYPES = {"tol": float, "angles": int, "nmax": int}

# the help lines of the flags that have one
_FLAG_HELP = {"kernel": 'kernel text, e.g. "komatu c=0 delta=3"',
              "plot_data": "also write plot-ready CSV curves here",
              "output": "write the report here (atomic); default stdout"}


def _fields(command: str) -> tuple:
    """The RunConfig fields whose flags command takes, in help order."""
    return ("kernel",) + _COMMANDS[command][1] + ("output", "format")


# ---------------------------------------------------------------------------
# config

class _RunFields(NamedTuple):
    command: str
    kernel: str
    alpha: Optional[float] = None
    gamma: Optional[float] = None
    mu: Optional[float] = None
    nu: Optional[float] = None
    sigma: float = 0.0
    xi: float = 0.0
    angles: int = 256
    nmax: int = 50
    tol: float = 0.0
    output: Optional[str] = None
    format: str = "text"
    plot_data: Optional[str] = None


class RunConfig(_RunFields):
    """One request.  Fields the command does not read (_COMMANDS) keep
    their defaults; a value outside its range is a ConfigError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        takes = _fields(self.command)
        for name, default in self._field_defaults.items():
            if name not in takes and getattr(self, name) != default:
                raise ConfigError(f"{self.command} does not read {name}")
        have_ag = self.alpha is not None or self.gamma is not None
        have_mn = self.mu is not None or self.nu is not None
        if have_ag and have_mn:
            raise ConfigError("give either alpha/gamma or mu/nu, not both")
        if not have_ag and not have_mn and "mu" in takes:
            raise ConfigError("one of alpha/gamma or mu/nu is required")
        if have_ag and (self.alpha is None or self.gamma is None):
            raise ConfigError("alpha and gamma must be given together")
        if have_mn and (self.mu is None or self.nu is None):
            raise ConfigError("mu and nu must be given together")
        if not 0.0 <= self.tol < math.inf:
            raise ConfigError(f"tol must be finite and nonnegative, not "
                              f"{self.tol!r}")
        if self.nmax < 1:
            raise ConfigError("need nmax >= 1")
        if self.format not in _FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        try:
            self.disk_grid()
            if have_ag or have_mn:
                self.parameter_set()
        except (DomainError, NoRealRoots) as exc:
            raise ConfigError(str(exc)) from None
        return self

    def parameter_set(self) -> params_mod.ParameterSet:
        if self.alpha is not None:
            return params_mod.ParameterSet.from_alpha_gamma(
                self.alpha, self.gamma, self.sigma, self.xi)
        return params_mod.ParameterSet.from_mu_nu(
            self.mu, self.nu, self.sigma, self.xi)

    def disk_grid(self) -> certify.DiskGrid:
        return certify.DiskGrid(angles=self.angles)


# ---------------------------------------------------------------------------
# sweep value grammar

def expand_sweep_value(text: str) -> list:
    """``{v1,v2}`` -> list, ``[lo:hi:n]`` -> n points, else single float;
    a value that is not finite is a ConfigError."""
    text = text.strip()
    values = _sweep_values(text)
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"non-finite value in {text!r}")
    return values


def _sweep_values(text: str) -> list:
    if text.startswith("{") and text.endswith("}"):
        try:
            return [float(x) for x in text[1:-1].split(",")]
        except ValueError:
            raise ConfigError(f"bad sweep set: {text!r}")
    if text.startswith("[") and text.endswith("]"):
        try:
            lo, hi, n = text[1:-1].split(":")
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            raise ConfigError(f"bad sweep range: {text!r}")
        if n < 1:
            raise ConfigError(f"bad sweep range: {text!r}")
        return [lo] if n == 1 else list(np.linspace(lo, hi, n))
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
        items = " ".join(f"{k}={kernels.value_text(v)}"
                         for k, v in zip(keys, combo))
        out.append(f"{family} {items}".strip())
    return out


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


def _file_mode(path: str) -> int:
    """The mode of the file at path, or 0666 less the umask for a new one."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write(path: str, text: str):
    """Write text to path through a temporary file in the same directory,
    with the mode of the file it replaces (0666 less the umask for a new
    one).  A path that cannot be written is a ConfigError naming it."""
    tmp = None
    try:
        mode = _file_mode(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".pascucert-")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}"
                          ) from None
    finally:
        # gone after a successful replace
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        atomic_write(path, text)


def _json_text(payload: dict) -> str:
    import json  # only --format json loads it
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
            elif isinstance(v, list):
                cells.append(";".join(v))
            else:
                cells.append(str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def emit_plot_data(rep) -> str:
    """Plot-ready CSV of one report in two blocks: the t-curves (t, Pi, L
    at argmin z, condition margins) then the boundary angular sweep.
    Inapplicable margin columns carry NotApplicable, and those of a
    checker that broke down the class name of its error."""
    c = rep.curves
    if not c:
        raise ConfigError("report carries no curves; rerun with curves")
    growth, monotone = (m if isinstance(m, str) else None
                        for m in (rep.condition_margins["growth"],
                                  rep.condition_margins["monotone"]))
    rows = []
    for i in range(len(c["t"])):
        g = c["growth_margin"][i]
        m = c["monotone_expression"][i]
        rows.append([
            float(c["t"][i]), float(c["pi"][i]),
            float(c["l_at_argmin"][i]),
            growth if math.isnan(g) else float(g),
            monotone if math.isnan(m) else float(m),
        ])
    block1 = _csv_rows(rows, ["t", "pi", "l_at_argmin_z",
                              "growth_margin", "monotone_expression"])
    rows2 = [[float(th), float(r)]
             for th, r in zip(c["theta"], c["re_zkprime_over_k"])]
    block2 = _csv_rows(rows2, ["theta", "re_zkprime_over_k"])
    return block1 + "\n" + block2


class _Result(NamedTuple):
    """A command's verdict and its report in every format."""

    passed: bool
    payload: dict
    header: list
    rows: list
    # the key-value text starts with this line; None prints the CSV
    lead: Optional[str] = None
    plot: Optional[str] = None


def _write(cfg: RunConfig, result: _Result) -> int:
    """Write the report in the config's format, then the plot data; returns
    the exit code of the verdict."""
    if cfg.format == "json":
        text = _json_text(result.payload)
    elif cfg.format == "text" and result.lead is not None:
        text = result.lead + _kv_text(result.payload)
    else:
        text = _csv_rows(result.rows, result.header)
    _emit(text, cfg.output)
    if cfg.plot_data is not None:
        atomic_write(cfg.plot_data, result.plot)
    return 0 if result.passed else 1


# ---------------------------------------------------------------------------
# commands

def _cmd_beta(cfg: RunConfig) -> _Result:
    kernel = kernels.parse_kernel(cfg.kernel)
    beta = certify.beta_routes(kernel, cfg.parameter_set())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": kernel.text(),
        "beta": {"integral": beta.nodes, "series": beta.series,
                 "routes_agree": beta.agree},
    }
    return _Result(beta.agree, payload,
                   ["kernel", "beta_integral", "beta_series", "routes_agree"],
                   [[kernel.text(), beta.nodes, beta.series, beta.agree]],
                   lead=f"beta = {_fmt15(beta.nodes)!r}\n")


def _cmd_check(cfg: RunConfig) -> _Result:
    kernel = kernels.parse_kernel(cfg.kernel)
    margins, hyp = certify.condition_margins(kernel, cfg.parameter_set())
    failed = failed_rows(certify.theorem_rows(margins, hyp, cfg.tol))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kernel": kernel.text(),
        "condition_margins": margins,
        "hypothesis_check": None if hyp is None else hyp.to_dict(),
        "passed": not failed,
        "failed": failed,
    }
    return _Result(not failed, payload,
                   ["kernel", "monotone_margin", "growth_margin", "passed",
                    "failed"],
                   [[kernel.text(), margins["monotone"], margins["growth"],
                     not failed, failed]], lead="")


def _cmd_certify(cfg: RunConfig) -> _Result:
    kernel = kernels.parse_kernel(cfg.kernel)
    rep = certify.run_certification(kernel, cfg.parameter_set(),
                                    cfg.disk_grid(),
                                    with_curves=cfg.plot_data is not None,
                                    tol=cfg.tol)
    p, m = rep.params, rep.condition_margins
    return _Result(
        rep.passed(), rep.to_dict(),
        ["kernel", "mu", "nu", "sigma", "xi", "beta", "m_functional_min",
         "monotone_margin", "growth_margin", "membership_min",
         "sharpness_residual", "passed", "failed"],
        [[rep.kernel.text(), p.mu, p.nu, p.sigma, p.xi, rep.beta_integral,
          rep.m_functional_min, m.get("monotone"), m.get("growth"),
          rep.membership_min, rep.sharpness_residual, rep.passed(),
          rep.failed()]],
        lead="", plot=None if cfg.plot_data is None else emit_plot_data(rep))


def _cmd_moments(cfg: RunConfig) -> _Result:
    kernel = kernels.parse_kernel(cfg.kernel)
    tau = [float(x) for x in kernels.moment_sequence(kernel, cfg.nmax)]
    return _Result(True, {"schema_version": SCHEMA_VERSION,
                          "kernel": kernel.text(), "moments": tau},
                   ["n", "tau_n"], [[n, x] for n, x in enumerate(tau, 1)])


def _sweep_point(point: RunConfig, pieces: certify.SharedPieces):
    """One sweep row, from the SharedPieces of the point's (kernel, mu, nu):
    the theorem route's rows and the beta_routes row."""
    kernel, p = pieces.kernel, point.parameter_set()
    try:
        margins, hyp = certify.condition_margins(kernel, p, pieces)
        rows = certify.theorem_rows(margins, hyp, point.tol)
    except PascucertError as exc:
        # a checker that breaks down fails the row; its cells name the error
        margins = dict.fromkeys(("monotone", "growth"), type(exc).__name__)
        hyp, rows = None, [Row(name, math.nan) for name in margins]
    try:
        routes = certify.beta_routes(kernel, p, pieces)
    except PascucertError:
        # a beta that cannot be solved fails its row, and its cell is empty
        routes = certify.BetaRoutes(math.nan, math.nan)
    failed = failed_rows(rows + [routes.row()])
    return [point.kernel, p.mu, p.nu, p.sigma, p.xi,
            None if "beta_routes" in failed else routes.nodes,
            margins["monotone"], margins["growth"],
            None if hyp is None else hyp.min_margin, not failed, failed]


def _cmd_sweep(cfg: RunConfig, values: dict) -> _Result:
    """One row per point of the cartesian product, in its order.

    Every point is a RunConfig, so all of them are validated before the
    first one runs.  Sigma and xi vary fastest, so the points of one
    (kernel, alpha, gamma, mu, nu) key come one after another.  They share
    one certify.SharedPieces: the parsed kernel with its unit-mass check,
    and, each built at its first use, the M-nodes, the moments of beta's
    series route and the checker grid's envelopes and slope profile.  The
    next key starts fresh pieces and lets the last ones go, so one key's
    arrays are alive at a time and nothing is kept after the sweep.
    """
    # a flag not swept takes the config's value; an absent pair is None
    points = [RunConfig(**{**cfg._asdict(), "kernel": text,
                           **dict(zip(_SWEPT, combo))})
              for text, *combo in itertools.product(
                  expand_kernel_sweep(cfg.kernel),
                  *(values.get(name) or [getattr(cfg, name)]
                    for name in _SWEPT))]
    rows = []
    for _, same_key in itertools.groupby(
            points, lambda q: (q.kernel, q.alpha, q.gamma, q.mu, q.nu)):
        same_key = list(same_key)
        pieces = certify.SharedPieces(
            kernels.parse_kernel(same_key[0].kernel),
            same_key[0].parameter_set())
        rows += [_sweep_point(q, pieces) for q in same_key]
    header = ["kernel", "mu", "nu", "sigma", "xi", "beta", "monotone_margin",
              "growth_margin", "hypothesis_min_margin", "passed", "failed"]
    return _Result(not any(r[-1] for r in rows),
                   {"schema_version": SCHEMA_VERSION,
                    "rows": [dict(zip(header, r)) for r in rows]},
                   header, rows)


def run(config: RunConfig, values: Optional[dict] = None) -> int:
    """Run a validated config and write its report; returns the process
    exit code.

    values maps parameter flags to their sweep values; a sweep runs the
    config's own value of every flag it lacks.
    """
    if config.command == "sweep":
        return _write(config, _cmd_sweep(config, values or {}))
    handler = {"beta": _cmd_beta, "certify": _cmd_certify,
               "check": _cmd_check, "moments": _cmd_moments}[config.command]
    return _write(config, handler(config))


# ---------------------------------------------------------------------------
# command line

def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: pascucert {" + ",".join(_COMMANDS) + "} ..."
    return f"usage: pascucert {command} --kernel KERNEL [FLAG VALUE ...]"


def _help(command: Optional[str] = None) -> str:
    """The -h text of the program or of one command, from _COMMANDS."""
    if command is None:
        rows = [(name, doc) for name, (doc, _) in _COMMANDS.items()]
        body = ["Certify integral transforms into the Pascu class.", "",
                "commands:", *_columns(rows), "",
                'Run "pascucert COMMAND -h" for the flags of a command.']
    else:
        metavar = {"format": "{" + ",".join(_FORMATS) + "}"}
        rows = [("-h, --help", "show this help message and exit")] + [
            (f"{_flag(f)} {metavar.get(f, f.upper())}", _FLAG_HELP.get(f, ""))
            for f in _fields(command)]
        body = [_COMMANDS[command][0], "", "flags:", *_columns(rows)]
    return "\n".join([_usage(command), "", *body, ""])


def _columns(rows: list) -> list:
    width = max(len(name) for name, _ in rows) + 2
    return [f"  {name:<{width}}{doc}".rstrip() for name, doc in rows]


def _usage_error(command: Optional[str], message: str):
    sys.stderr.write(f"{_usage(command)}\npascucert: error: {message}\n")
    raise SystemExit(2)


def _typed(command: str, field: str, text: str):
    kind = _FLAG_TYPES.get(field, str)
    try:
        return kind(text)
    except ValueError:
        _usage_error(command, f"argument {_flag(field)}: invalid "
                              f"{kind.__name__} value: {text!r}")


def _read_flags(command: str, words: list):
    """(given, stray) of the words after a command: the last value of each
    flag by field, "help" for -h and --help, and the words that are no
    flag.  A flag is --flag value or --flag=value, its name shortened to
    any unique prefix; -h may be run together (-hh); a lone - is a stray
    word, and after -- every word is.  The first flag that is unknown,
    ambiguous or lacks its value is a usage error."""
    fields = {_flag(f)[2:]: f for f in ("help",) + _fields(command)}
    given, stray = {}, []
    words = iter(words)
    for word in words:
        if word == "--":
            stray += words
            break
        if word.startswith("--"):
            name, eq, value = word[2:].partition("=")
            matches = [n for n in fields if n.startswith(name)]
            if name in matches:
                matches = [name]
            if not matches:
                # the flag up to its first blank names it
                _usage_error(command, "unrecognized arguments: "
                                      + f"--{name}".split()[0])
            if len(matches) > 1:
                _usage_error(command, f"option --{name} not a unique prefix")
            name = matches[0]
            if name == "help":
                if eq:
                    _usage_error(command,
                                 "option --help must not have an argument")
            elif not eq:
                value = next(words, None)
                if value is None:
                    _usage_error(command, f"option --{name} requires argument")
            given[fields[name]] = value
        elif word.startswith("-") and word != "-":
            for letter in word[1:]:
                if letter != "h":
                    _usage_error(command, "unrecognized arguments: "
                                          + f"-{letter}".split()[0])
                given["help"] = ""
        else:
            stray.append(word)
    return given, stray


def _parse_command_line(argv: list):
    """(config, values) of a command line: each given parameter flag's
    values and the config of their first ones, so a sweep meets every
    command's checks.  A usage error prints to stderr and raises
    SystemExit(2); -h prints the help and raises SystemExit(0)."""
    command, *rest = argv or [None]
    if command in ("-h", "--help"):
        sys.stdout.write(_help())
        raise SystemExit(0)
    if command not in _COMMANDS:
        _usage_error(None, "a command is required" if command is None else
                     f"invalid command {command!r}")
    given, stray = _read_flags(command, rest)
    if "help" in given:
        sys.stdout.write(_help(command))
        raise SystemExit(0)
    if stray:
        _usage_error(command, "unrecognized arguments: " + " ".join(stray))
    if "kernel" not in given:
        _usage_error(command, "the following arguments are required: "
                              "--kernel")
    given = {f: _typed(command, f, text) for f, text in given.items()}
    values = {name: expand_sweep_value(given[name])
              for name in _SWEPT if name in given}
    for name, vals in values.items():
        if command != "sweep" and len(vals) != 1:
            raise ConfigError(f"{name} must be a single value here")
    config = RunConfig(command=command, **{
        **given, **{name: vals[0] for name, vals in values.items()}})
    return config, values


def main(argv=None) -> int:
    try:
        return run(*_parse_command_line(
            sys.argv[1:] if argv is None else argv))
    except ConfigError as exc:
        print(f"pascucert: config error: {exc}", file=sys.stderr)
        return 2
    except PascucertError as exc:
        print(f"pascucert: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: config validation, sweep grammar, output."""

import itertools
import json
import math
import os
import stat
import warnings

import pytest

from pascucert import cli
from pascucert.errors import (ConfigError, CriticalPoint, PascucertError,
                              QuadratureFailure)
from pascucert import certify, kernels, oracles, params


# ---------------------------------------------------------------------------
# RunConfig validation

def test_runconfig_round_trip():
    cfg = cli.RunConfig(command="certify", kernel="bernardi c=1",
                        mu=1.0, nu=2.0, sigma=0.1, xi=0.5,
                        angles=64, format="json")
    assert cfg.disk_grid() == certify.DiskGrid(angles=64)


def test_runconfig_rejects_mixed_parameterizations():
    with pytest.raises(ConfigError):
        cli.RunConfig(command="beta", kernel="bernardi c=1",
                      alpha=3.0, gamma=1.0, mu=1.0, nu=2.0)


def test_runconfig_requires_complete_pair():
    with pytest.raises(ConfigError):
        cli.RunConfig(command="beta", kernel="bernardi c=1", alpha=3.0)
    with pytest.raises(ConfigError):
        cli.RunConfig(command="beta", kernel="bernardi c=1", nu=2.0)


def test_runconfig_requires_some_parameters():
    with pytest.raises(ConfigError):
        cli.RunConfig(command="beta", kernel="bernardi c=1")


@pytest.mark.parametrize("command,field,value", [
    ("beta", "nmax", 10), ("check", "angles", 64), ("beta", "tol", 0.1),
    ("sweep", "plot_data", "p.csv"), ("moments", "sigma", 0.1)])
def test_runconfig_rejects_unread_fields(command, field, value):
    # a field the command does not read was validated and then ignored
    problem = {} if command == "moments" else {"mu": 1.0, "nu": 2.0}
    with pytest.raises(ConfigError, match=f"{command} does not read {field}"):
        cli.RunConfig(command=command, kernel="bernardi c=1",
                      **problem, **{field: value})


# every field of a certify request, in order
CERTIFY_FIELDS = dict(command="certify", kernel="bernardi c=1", alpha=None,
                      gamma=None, mu=1.0, nu=2.0, sigma=0.1, xi=0.5,
                      angles=256, nmax=50, tol=0.0, output=None,
                      format="text", plot_data=None)


@pytest.mark.parametrize("change,message", [
    ({"sigma": 1.5}, "sigma must lie in [0, 1)"),
    ({"xi": 2.0}, "xi must lie in [0, 1]"),
    ({"angles": 3}, "need at least 4 angles"),
    ({"nmax": 10}, "certify does not read nmax")],
    ids=["sigma", "xi", "angles", "unread"])
@pytest.mark.parametrize("by", ["keyword", "position"])
def test_runconfig_checks_values_by_keyword_and_position(change, message,
                                                         by):
    fields = {**CERTIFY_FIELDS, **change}
    with pytest.raises(ConfigError) as exc:
        if by == "keyword":
            cli.RunConfig(**fields)
        else:
            cli.RunConfig(*fields.values())
    assert str(exc.value) == message


def test_runconfig_moments_needs_no_parameters():
    cfg = cli.RunConfig(command="moments", kernel="bernardi c=1")
    assert cfg.nmax == 50


def test_runconfig_rejects_bad_enum_values():
    with pytest.raises(ConfigError):
        cli.RunConfig(command="frobnicate", kernel="bernardi c=1",
                      mu=1.0, nu=2.0)
    with pytest.raises(ConfigError):
        cli.RunConfig(command="beta", kernel="bernardi c=1",
                      mu=1.0, nu=2.0, format="xml")
    with pytest.raises(ConfigError):
        cli.RunConfig(command="beta", kernel="bernardi c=1",
                      mu=1.0, nu=2.0, tol=-1.0)


def test_parameter_set_from_both_routes():
    cfg = cli.RunConfig(command="beta", kernel="bernardi c=1",
                        alpha=5.0, gamma=2.0)
    p = cfg.parameter_set()
    assert p.mu == pytest.approx(1.0)
    assert p.nu == pytest.approx(2.0)
    cfg2 = cli.RunConfig(command="beta", kernel="bernardi c=1",
                         mu=1.0, nu=2.0)
    p2 = cfg2.parameter_set()
    assert p2.alpha == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# sweep grammar

def test_sweep_value_set():
    assert cli.expand_sweep_value("{1,2,3.5}") == [1.0, 2.0, 3.5]


def test_sweep_value_range():
    vals = cli.expand_sweep_value("[0:1:5]")
    assert vals == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert cli.expand_sweep_value("[0.3:9:1]") == [0.3]


def test_sweep_value_scalar():
    assert cli.expand_sweep_value(" 2.5 ") == [2.5]


@pytest.mark.parametrize("bad", ["{1,two}", "[0:1]", "[0:1:0]", "abc"])
def test_sweep_value_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        cli.expand_sweep_value(bad)


def test_kernel_sweep_product():
    out = cli.expand_kernel_sweep("hohlov a={1,2} b=1 c=[4:5:2]")
    assert len(out) == 4
    assert out[0] == "hohlov a=1 b=1 c=4"
    assert all(text.startswith("hohlov ") for text in out)


def test_kernel_sweep_rejects_bad_item():
    with pytest.raises(ConfigError):
        cli.expand_kernel_sweep("komatu c0 delta=3")


@pytest.mark.parametrize("text", ["hohlov a=0.5 b=0.5000001 c=4",
                                  "bernardi c=1.23456789",
                                  "komatu c={0,-0.5} delta=[2:3:4]"])
def test_kernel_sweep_keeps_every_digit(text):
    # {v:g} keeps 6 significant digits and swept b=0.5 for b=0.5000001;
    # each text must parse back to exactly the requested values
    family, *items = text.split()
    keys = [item.split("=")[0] for item in items]
    wanted = itertools.product(*(cli.expand_sweep_value(item.split("=")[1])
                                 for item in items))
    for out, values in zip(cli.expand_kernel_sweep(text), wanted):
        got = [tok.split("=") for tok in out.split()[1:]]
        assert [k for k, _ in got] == keys
        assert [float(v) for _, v in got] == list(values)
    assert cli.expand_kernel_sweep("hohlov a={1,2} b=1 c=4.5") \
        == ["hohlov a=1 b=1 c=4.5", "hohlov a=2 b=1 c=4.5"]


# ---------------------------------------------------------------------------
# output helpers

def test_clean_rounds_and_maps_nan():
    out = cli._clean({"a": 1.23456789012345678, "b": float("nan"),
                      "c": [2.0, float("nan")]})
    assert out["a"] == float(f"{1.23456789012345678:.15g}")
    assert out["b"] is None
    assert out["c"][1] is None


def test_clean_maps_infinities():
    out = cli._clean({"a": float("inf"), "b": [float("-inf"), 1.5]})
    assert out["a"] is None
    assert out["b"] == [None, 1.5]


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "out.json"
    cli.atomic_write(str(target), "first")
    cli.atomic_write(str(target), "second")
    assert target.read_text() == "second"
    assert os.listdir(tmp_path) == ["out.json"]


def test_atomic_write_gives_umask_mode_and_keeps_existing(tmp_path):
    target = tmp_path / "out.json"
    old = os.umask(0o027)
    try:
        cli.atomic_write(str(target), "first")
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    target.chmod(0o604)
    cli.atomic_write(str(target), "second")
    assert stat.S_IMODE(target.stat().st_mode) == 0o604
    assert target.read_text() == "second"


@pytest.mark.parametrize("flag,command", [("--output", "beta"),
                                          ("--plot-data", "certify")])
def test_main_unwritable_path_is_config_error(tmp_path, capsys, flag,
                                              command):
    path = str(tmp_path / "no" / "such" / "dir" / "x")
    rc = cli.main([command, "--kernel", "bernardi c=1", "--mu", "1", "--nu",
                   "2", "--sigma", "0.1", "--xi", "1", flag, path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"pascucert: config error: cannot write {path!r}")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


# (command, flag) for each flag a command does not read
UNREAD_FLAGS = (
    [(c, "--plot-data") for c in ("beta", "check", "sweep", "moments")]
    + [(c, "--angles") for c in ("beta", "check", "sweep", "moments")]
    + [(c, "--nmax") for c in ("beta", "certify", "check", "sweep")]
    + [(c, "--tol") for c in ("beta", "moments")]
    + [("moments", f) for f in ("--alpha", "--gamma", "--mu", "--nu",
                                "--sigma", "--xi")])


@pytest.mark.parametrize(
    "command,flag", UNREAD_FLAGS,
    ids=[c if f == "--plot-data" else c + f for c, f in UNREAD_FLAGS])
def test_plot_data_is_a_usage_error_off_certify(tmp_path, capsys, command,
                                                flag):
    # a flag is registered only where it is read; elsewhere it was
    # validated and then ignored
    plot = tmp_path / "p.csv"
    problem = [] if command == "moments" else [
        "--mu", "1", "--nu", "2", "--sigma", "0.1", "--xi", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--kernel", "bernardi c=1"] + problem
                 + [flag, str(plot)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + flag in err and "Traceback" not in err
    assert not plot.exists()


def test_csv_rows_spells_out_missing_values():
    text = cli._csv_rows([[1.0, None]], ["x", "margin"])
    lines = text.strip().splitlines()
    assert lines[0] == "x,margin"
    assert lines[1].endswith("NotApplicable")


# ---------------------------------------------------------------------------
# end-to-end through main()

BETA_ARGS = ["beta", "--kernel", "bernardi c=1", "--mu", "1", "--nu", "2",
             "--sigma", "0.1", "--xi", "0.5"]


def test_main_beta_exit_zero(capsys):
    assert cli.main(BETA_ARGS) == 0
    out = capsys.readouterr().out
    assert "beta" in out


def test_main_beta_hohlov_a1_mu_zero_skips_closed_form(capsys):
    rc = cli.main(["beta", "--kernel", "hohlov a=1 b=1 c=4", "--mu", "0",
                   "--nu", "2", "--xi", "1"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "routes_agree = True" in captured.out
    assert "closed_form" not in captured.out


def test_main_bad_config_exit_two(capsys):
    rc = cli.main(["beta", "--kernel", "bernardi c=1",
                   "--alpha", "3", "--mu", "1", "--nu", "2"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    rc = cli.main(BETA_ARGS + ["--format", "xml"])
    assert rc == 2
    assert "config error: unknown format 'xml'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["beta", "check", "certify", "sweep"])
@pytest.mark.parametrize("flags,message", [
    (["--mu", "1", "--nu", "2", "--sigma", "1.5"], "sigma must lie in [0, 1)"),
    (["--mu", "1", "--nu", "2", "--xi", "2"], "xi must lie in [0, 1]"),
    (["--mu", "-1", "--nu", "2"], "alpha, gamma, mu, nu must be nonnegative"),
    (["--alpha", "1", "--gamma", "2"], "no nonnegative (mu, nu) for alpha=1"),
], ids=["sigma", "xi", "mu", "alpha-gamma"])
def test_main_value_out_of_range_is_config_error(command, flags, message,
                                                 capsys):
    # a bad configuration, not a stage that failed
    assert cli.main([command, "--kernel", "bernardi c=1"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("pascucert: config error: " + message)


def test_main_sweep_checks_every_point_before_the_first(monkeypatch,
                                                         capsys):
    ran = []
    monkeypatch.setattr(cli, "_sweep_point",
                        lambda point, pieces: ran.append(point))
    rc = cli.main(["sweep", "--kernel", "bernardi c=1", "--mu", "1", "--nu",
                   "2", "--sigma", "{0,1.5}"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and ran == []
    assert err == "pascucert: config error: sigma must lie in [0, 1)\n"


def test_main_sweep_point_xi_out_of_range_exit_two(capsys):
    # the first values pass; a later sweep point is built and checked
    rc = cli.main(["sweep", "--kernel", "bernardi c={1,2}", "--mu", "1",
                   "--nu", "2", "--xi", "[0:2:3]"])
    assert rc == 2
    assert capsys.readouterr() == (
        "", "pascucert: config error: xi must lie in [0, 1]\n")


def test_main_bad_kernel_exit_two(capsys):
    rc = cli.main(["beta", "--kernel", "nosuchfamily x=1",
                   "--mu", "1", "--nu", "2"])
    assert rc == 2
    assert "unknown kernel family" in capsys.readouterr().err


def test_main_too_few_angles_is_config_error(capsys):
    rc = cli.main(["certify", "--kernel", "bernardi c=1", "--mu", "1",
                   "--nu", "2", "--angles", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: need at least 4 angles" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,literal", [
    (["check", "--kernel", "bernardi c=nan", "--mu", "1", "--nu", "2",
      "--xi", "1"], "c=nan"),
    (["certify", "--kernel", "komatu c=0 delta=inf", "--mu", "1", "--nu",
      "2"], "delta=inf"),
    (["beta", "--kernel", "bernardi c=1", "--mu", "nan", "--nu", "2"],
     "nan"),
    (["beta", "--kernel", "bernardi c=1", "--alpha", "inf", "--gamma", "2"],
     "inf"),
    (["sweep", "--kernel", "bernardi c=1", "--mu", "1", "--nu", "2",
      "--sigma", "{0.1,nan}"], "{0.1,nan}"),
    (["sweep", "--kernel", "bernardi c={1,-inf}", "--mu", "1", "--nu", "2"],
     "{1,-inf}"),
    # a NaN tolerance failed every margin and an infinite one passed all
    (["check", "--kernel", "bernardi c=1", "--mu", "1", "--nu", "2",
      "--tol", "nan"], "nan"),
    (["sweep", "--kernel", "bernardi c=1", "--mu", "1", "--nu", "2",
      "--tol", "inf"], "inf"),
])
def test_main_non_finite_literal_is_config_error(argv, literal, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and literal in err
    assert "Traceback" not in err


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_main_nmax_below_one_is_config_error(nmax, capsys):
    rc = cli.main(["moments", "--kernel", "bernardi c=1", "--nmax", nmax])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error: need nmax >= 1" in err


def test_main_epsilon_count_is_unrecognized(capsys):
    # the functional's epsilon minimum is exact, so there is no scan density
    with pytest.raises(SystemExit) as exc:
        cli.main(BETA_ARGS + ["--epsilon-count", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--order", "512"),
                                        ("--radii", "0.5,0.9")])
def test_main_order_and_radii_are_unrecognized(flag, value, capsys):
    # membership and sharpness are quadratures on one circle: no
    # truncation order and no inner circles to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", "--kernel", "bernardi c=1", "--mu", "1",
                  "--nu", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


# the command line: flags read from the _COMMANDS table

def test_program_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    listed = [line.split()[0] for line in
              out.split("commands:\n")[1].splitlines()
              if line.startswith("  ")]
    assert listed == list(cli._COMMANDS) and err == ""


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_lists_exactly_its_flags(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    doc, reads = cli._COMMANDS[command]
    listed = [line.split()[0].rstrip(",") for line in out.splitlines()
              if line.startswith("  -")]
    assert listed == ["-h", "--kernel"] + [
        "--" + field.replace("_", "-") for field in reads] + [
        "--output", "--format"]
    assert doc in out and err == ""


PROBLEM = ["--mu", "1", "--nu", "2", "--sigma", "0.1", "--xi", "1"]
# (command line, a word the error names)
USAGE_ERRORS = {
    "no command": ([], "a command is required"),
    "unknown command": (["frobnicate", "--kernel", "bernardi c=1"],
                        "frobnicate"),
    "no kernel": (["beta"] + PROBLEM, "--kernel"),
    "value missing": (["beta", "--kernel", "bernardi c=1", "--mu", "1",
                       "--nu"], "--nu"),
    "angles not int": (["certify", "--kernel", "bernardi c=1"] + PROBLEM
                       + ["--angles", "64.5"], "--angles"),
    "nmax not int": (["moments", "--kernel", "bernardi c=1", "--nmax",
                      "ten"], "--nmax"),
    "tol not numeric": (["check", "--kernel", "bernardi c=1"] + PROBLEM
                        + ["--tol", "small"], "--tol"),
    "stray argument": (["beta", "--kernel", "bernardi c=1", "extra"]
                       + PROBLEM, "unrecognized arguments: extra"),
    # --alpha and --angles
    "ambiguous prefix": (["certify", "--kernel", "bernardi c=1"] + PROBLEM
                         + ["--a", "64"], "--a "),
}


@pytest.mark.parametrize("argv,named", USAGE_ERRORS.values(),
                         ids=USAGE_ERRORS)
def test_usage_errors_exit_two(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "pascucert: error: " in err and named in err


BETA_KERNEL = ["beta", "--kernel", "bernardi c=1"]
MU_NU = ["--mu", "1", "--nu", "2"]


def _usage(command, message):
    return (f"usage: pascucert {command} --kernel KERNEL [FLAG VALUE ...]\n"
            f"pascucert: error: {message}\n")


# (command line, exit code, stdout, stderr), each byte for byte
PARSER_EDGES = {
    "double dash ends the flags": (
        BETA_KERNEL + MU_NU + ["--", "x"], 2, "",
        _usage("beta", "unrecognized arguments: x")),
    "flag after double dash": (
        BETA_KERNEL + ["--", "--mu", "1"], 2, "",
        _usage("beta", "unrecognized arguments: --mu 1")),
    "value with one dash": (
        BETA_KERNEL + ["--mu", "-1", "--nu", "2"], 2, "",
        "pascucert: config error: alpha, gamma, mu, nu must be "
        "nonnegative\n"),
    "value with two dashes": (
        BETA_KERNEL + ["--mu", "--nu", "2"], 2, "",
        _usage("beta", "unrecognized arguments: 2")),
    "value that names a flag": (
        BETA_KERNEL + ["--nu", "2", "--mu", "--nu"], 2, "",
        "pascucert: config error: bad numeric value: '--nu'\n"),
    "empty value": (
        ["check", "--kernel", "bernardi c=1"] + MU_NU + ["--tol="], 2, "",
        _usage("check", "argument --tol: invalid float value: ''")),
    "help after flags": (BETA_KERNEL + MU_NU + ["-h"], 0,
                         cli._help("beta"), ""),
    "help after a stray word": (BETA_KERNEL + ["extra", "-h"], 0,
                                cli._help("beta"), ""),
    "help prefix": (BETA_KERNEL + ["--he"], 0, cli._help("beta"), ""),
    "help with a value": (BETA_KERNEL + ["--help=1"], 2, "",
                          _usage("beta", "option --help must not have an "
                                         "argument")),
    "unknown flag before help": (
        BETA_KERNEL + ["-h", "--bogus"], 2, "",
        _usage("beta", "unrecognized arguments: --bogus")),
    "unknown short flag": (BETA_KERNEL + ["-x"], 2, "",
                           _usage("beta", "unrecognized arguments: -x")),
    "unknown short flag after h": (
        BETA_KERNEL + ["-hx"], 2, "",
        _usage("beta", "unrecognized arguments: -x")),
    "lone dash": (BETA_KERNEL + MU_NU + ["-"], 2, "",
                  _usage("beta", "unrecognized arguments: -")),
    "empty flag name": (BETA_KERNEL + ["--=1"], 2, "",
                        _usage("beta", "option -- not a unique prefix")),
    "value missing at the end": (
        BETA_KERNEL + MU_NU + ["--kernel"], 2, "",
        _usage("beta", "option --kernel requires argument")),
    "repeated flag": (
        ["moments", "--kernel", "bernardi c=1", "--nmax", "5", "--nmax",
         "2"], 0, "n,tau_n\n1,0.666666666666667\n2,0.5\n", ""),
}


@pytest.mark.parametrize("argv,code,out,err", PARSER_EDGES.values(),
                         ids=PARSER_EDGES)
def test_command_line_edge_cases(argv, code, out, err, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert (rc, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["beta", "--kernel=bernardi c=1", "--mu=1", "--nu=2", "--sigma=0.1",
     "--xi=0.5"],
    ["beta", "--ker", "bernardi c=1", "--mu", "1", "--n", "2", "--sig",
     "0.1", "--xi", "0.5"]], ids=["equals", "unique-prefix"])
def test_equals_and_unique_prefix_forms(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert cli.main(BETA_ARGS) == 0
    assert capsys.readouterr().out == out


def test_main_certify_small_mu_names_quadrature_failure(capsys):
    # a numpy warning would print a library source line on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["certify", "--kernel", "komatu c=0 delta=3",
                       "--mu", "0.01", "--nu", "2", "--sigma", "0.1",
                       "--xi", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "QuadratureFailure" in err and "mu = 0.01" in err
    assert len(err.splitlines()) == 1
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("tol,rc", [("0", 1), ("0.1", 0)])
def test_main_certify_prints_the_verdict_it_exits_with(tol, rc, capsys):
    # m_functional.min = -0.0437 fails at the default tolerance and passes
    # within --tol 0.1; the failed row is named in every format
    args = ["certify", "--kernel", "bernardi c=1", "--mu", "1", "--nu", "2",
            "--sigma", "0.7", "--xi", "1", "--tol", tol]
    failed = [] if rc == 0 else ["functional"]
    assert cli.main(args + ["--format", "json"]) == rc
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is (rc == 0) and payload["failed"] == failed
    assert cli.main(args + ["--format", "csv"]) == rc
    assert capsys.readouterr().out.splitlines()[1].endswith(
        f"{rc == 0},{';'.join(failed)}")
    assert cli.main(args) == rc
    assert capsys.readouterr().out.endswith(
        f"passed = {rc == 0}\nfailed = {failed}\n")


def test_main_constant_density_sets_growth_aside(tmp_path, capsys):
    # lambda = 1 has lambda' = lambda'' = 0 on the whole grid: the growth
    # condition does not apply, and Bernardi has no theorem that needs it
    plot = tmp_path / "plot.csv"
    args = ["--kernel", "bernardi c=0", "--mu", "1", "--nu", "2",
            "--sigma", "0.1", "--xi", "1", "--format", "json"]
    assert cli.main(["certify"] + args + ["--plot-data", str(plot)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["condition_margins"]["growth"] is None and rep["passed"]
    assert rep["m_functional"]["min"] > 0.0
    rows = plot.read_text().split("\n\n")[0].splitlines()[1:]
    assert all(r.split(",")[3] == "NotApplicable" for r in rows)
    # the monotone condition does apply, and fails
    assert cli.main(["check"] + args) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["condition_margins"]["growth"] is None
    assert json.loads(out)["failed"] == ["monotone"]
    assert err == ""


def test_main_beta_hohlov_large_c(capsys):
    # Gamma(200) overflows a double; the normalizer is a log-gamma ratio
    rc = cli.main(["beta", "--kernel", "hohlov a=1 b=1 c=200", "--mu", "1",
                   "--nu", "2", "--sigma", "0.1", "--xi", "1",
                   "--format", "json"])
    assert rc == 0
    beta = json.loads(capsys.readouterr().out)["beta"]
    assert beta["routes_agree"] is True
    assert beta["integral"] == pytest.approx(-142.3936, abs=1e-4)
    closed = oracles.beta0_hohlov_closed_form(
        params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 1.0), 1.0, 200.0)
    assert closed == pytest.approx(beta["integral"], abs=1e-7)


def test_main_beta_komatu_large_delta_is_config_error(capsys):
    # the normalizer no longer overflows; the mass of t**0 log(1/t)**199
    # lies near t = e**-199, where the mass check cannot find it
    rc = cli.main(["beta", "--kernel", "komatu c=0 delta=200", "--mu", "1",
                   "--nu", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def _beta_without_warnings(kernel):
    # a numpy RuntimeWarning raises here instead of reaching stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["beta", "--kernel", kernel, "--mu", "1", "--nu",
                         "2", "--sigma", "0.1", "--xi", "1",
                         "--format", "json"])


def test_main_beta_near_singular_komatu_passes_the_mass_check(capsys):
    # t = u**40 underflows at the mass check's smallest nodes; the mass of
    # t**-0.95 log(1/t)**2 below 1e-300 is only ~1e-12
    rc = _beta_without_warnings("komatu c=-0.95 delta=3")
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert json.loads(out)["beta"]["routes_agree"] is True


@pytest.mark.parametrize("kernel", ["bernardi c=-0.99",
                                    "two_param_log a=-0.99 b=0"])
def test_main_mass_below_the_doubles_is_named(kernel, capsys):
    # lambda ~ 0.01 t**-0.99 puts 2.2e-308**0.01 = 8e-4 of its mass below
    # the smallest normal double
    rc = _beta_without_warnings(kernel)
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: unit-mass check" in err
    assert "integrates to 0.9991" in err and "2.23e-308" in err


@pytest.mark.parametrize("command", ["check", "beta", "certify"])
def test_main_envelopes_near_q_minus_one(command, capsys):
    # at q = -0.98 the envelopes' endpoint nodes y = h v**250 underflow;
    # dropped, they leave a finite monotone margin and two beta routes
    # that disagree by 6e-7, which beta and certify report in full
    rc = cli.main([command, "--kernel", "komatu c=0 delta=0.02", "--mu",
                   "1", "--nu", "2", "--sigma", "0.1", "--xi", "1",
                   "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    report = json.loads(out)
    if command == "check":
        margins = report["condition_margins"]
        assert margins["monotone"] == pytest.approx(-3751979.6, rel=1e-7)
        return
    beta = report["beta"]
    assert beta["integral"] == pytest.approx(-0.35269930, abs=1e-8)
    assert beta["series"] == pytest.approx(-0.35269868, abs=1e-8)
    if command == "beta":
        assert beta["routes_agree"] is False
    else:
        assert report["failed"] == ["beta_routes", "functional"]


def test_main_mass_not_finite_is_named(capsys):
    # near t = 0 the 2F1 factor overflows where t**(b - 1) underflows
    rc = _beta_without_warnings("hohlov a=0.005 b=3 c=4")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.strip() == ("pascucert: config error: unit-mass check of the "
                           "hohlov density: the integral is not finite at "
                           "t -> 0")


@pytest.mark.parametrize("kernel", ["komatu c=0 delta=1e-300",
                                    "hohlov a=1e-300 b=1 c=4"])
def test_main_mass_quadrature_failure_is_named(kernel, capsys):
    # an endpoint exponent at -1 in floating point: a failed numerical
    # stage, exit 1, named like the mass check's configuration errors
    rc = _beta_without_warnings(kernel)
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    family = kernel.split()[0]
    assert err == (f"pascucert: QuadratureFailure: unit-mass check of the "
                   f"{family} density: endpoint exponent <= -1: integral "
                   f"diverges\n")


KOMATU_POINT = cli.RunConfig(command="sweep", kernel="komatu c=0 delta=3",
                             mu=1.0, nu=2.0, sigma=0.1, xi=1.0)


def _fresh_sweep_row(point):
    # one sweep row on its own fresh pieces
    return cli._sweep_point(point, certify.SharedPieces(
        kernels.parse_kernel(point.kernel), point.parameter_set()))


def test_checker_error_fails_check_and_sweep(monkeypatch, capsys):
    # only NotApplicable and DomainError mean "does not apply"; any other
    # checker error must not turn into a pass
    def broken(kernel, p, pieces=None):
        raise CriticalPoint("lambda' vanishes at t = 0.5")

    monkeypatch.setattr(certify, "check_growth_condition", broken)
    args = ["--kernel", "komatu c=0 delta=3", "--mu", "1", "--nu", "2",
            "--sigma", "0.1", "--xi", "1"]
    assert cli.main(["check"] + args) == 1
    assert "CriticalPoint" in capsys.readouterr().err
    row = _fresh_sweep_row(KOMATU_POINT)
    assert row[7] == "CriticalPoint"
    assert row[-2] is False and row[-1] == ["monotone", "growth"]


def test_beta_routes_agree_to_the_digits_beta_carries(capsys):
    # beta = -1.7e5: the two routes' I differ by 1 ulp, which
    # beta = I/(I - 1) magnifies by (beta - 1)**2 = 2.8e10 to 3.1e-6
    args = ["--kernel", "komatu c=-0.8558 delta=5.451", "--mu", "1.284447",
            "--nu", "5.175844", "--sigma", "0.034158", "--xi", "0.684126",
            "--format", "csv"]
    assert cli.main(["certify"] + args) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",True,")
    assert cli.main(["sweep"] + args) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(-168429.55214, rel=1e-10)
    assert row[-2:] == ["True", ""]


def test_main_check_json_with_infinite_margin(capsys):
    # at xi = 0 an Ali-Singh hypothesis margin is -inf
    rc = cli.main(["check", "--kernel", "ali_singh k=0.5", "--mu", "1",
                   "--nu", "2", "--xi", "0", "--format", "json"])
    assert rc in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    margins = [h["margin"] for h in payload["hypothesis_check"]["hypotheses"]]
    assert None in margins


def test_main_json_output_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", "--kernel", "komatu c=0 delta=3",
            "--mu", "1", "--nu", "2", "--sigma", "0.1", "--xi", "1",
            "--format", "json"]
    cli.main(args + ["--output", str(a)])
    cli.main(args + ["--output", str(b)])
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema_version"] == 3
    assert payload["condition_margins"]["growth"] > 0


def test_main_moments_csv(capsys):
    rc = cli.main(["moments", "--kernel", "bernardi c=1", "--nmax", "5",
                   "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,tau_n"
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0 / 3.0)


def test_main_sweep_row_count(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--kernel", "komatu c=0 delta={2,3,4}",
                   "--mu", "1", "--nu", "2", "--sigma", "0.1", "--xi", "1",
                   "--format", "csv", "--output", str(out)])
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("kernel,")
    assert rc in (0, 1)


def test_sweep_row_fails_without_beta(monkeypatch):
    def no_beta(kernel, p, pieces=None):
        raise QuadratureFailure("M-node weight is not finite")

    monkeypatch.setattr(certify, "beta_routes", no_beta)
    row = _fresh_sweep_row(KOMATU_POINT)
    assert row[5] is None
    assert row[-2] is False and row[-1] == ["beta_routes"]
    # routes that disagree fail the same row
    monkeypatch.setattr(certify, "beta_routes",
                        lambda kernel, p, pieces=None:
                        certify.BetaRoutes(-6.0, -6.1))
    row = _fresh_sweep_row(KOMATU_POINT)
    assert row[5] is None and row[-1] == ["beta_routes"]


def test_sweep_builds_shared_pieces_once_per_key(monkeypatch, tmp_path):
    # 2 kernels x 3 sigma x 2 xi: the kernel with its mass check, the
    # M-nodes, the series moments and the checker grid's envelopes and
    # slope profile are built once per (kernel, mu, nu), the checkers
    # and the series sum run once per point
    calls = []
    for module, name in ((kernels, "make_kernel"), (certify, "_m_nodes"),
                         (kernels, "moment_sequence"),
                         (kernels, "slope_profile"),
                         (certify, "check_monotone_condition"),
                         (certify, "beta_series_route")):
        monkeypatch.setattr(module, name,
                            lambda *a, f=getattr(module, name), name=name,
                            **k: calls.append(name) or f(*a, **k))
    envelopes = kernels.envelopes

    def counted(kernel, mu, nu, t):
        calls.append(f"envelopes at {len(t)}")
        return envelopes(kernel, mu, nu, t)

    monkeypatch.setattr(kernels, "envelopes", counted)
    out = tmp_path / "sweep.csv"
    cli.main(["sweep", "--kernel", "komatu c=0 delta={2,3}", "--mu", "1",
              "--nu", "2", "--sigma", "{0,0.1,0.2}", "--xi", "{0.5,1}",
              "--output", str(out)])
    assert len(out.read_text().splitlines()) == 13
    grid = f"envelopes at {certify.CHECK_GRID_POINTS}"
    nodes = f"envelopes at {len(certify._M_U)}"
    counts = {name: calls.count(name) for name in set(calls)}
    assert counts == {"make_kernel": 2, "_m_nodes": 2, "moment_sequence": 2,
                      "slope_profile": 2, grid: 2, nodes: 2,
                      "check_monotone_condition": 12,
                      "beta_series_route": 12}


SWEEP_HEADER = ["kernel", "mu", "nu", "sigma", "xi", "beta",
                "monotone_margin", "growth_margin", "hypothesis_min_margin",
                "passed", "failed"]


def _pointwise_rows(kernel_text, flags):
    # each row from its own parse, beta_sharp and condition_margins
    rows = []
    for text, alpha, gamma, mu, nu, sigma, xi in itertools.product(
            cli.expand_kernel_sweep(kernel_text),
            *(cli.expand_sweep_value(flags[name]) if name in flags
              else [None] for name in cli._SWEPT)):
        kernel = kernels.parse_kernel(text)
        p = params.ParameterSet.from_alpha_gamma(alpha, gamma, sigma, xi) \
            if alpha is not None \
            else params.ParameterSet.from_mu_nu(mu, nu, sigma, xi)
        try:
            margins, hyp = certify.condition_margins(kernel, p)
            failed = [name for name, v in margins.items()
                      if v is not None and not v >= 0.0]
            if hyp is not None and not hyp.all_satisfied:
                failed.append(f"hypotheses_{hyp.theorem}")
        except PascucertError as exc:
            margins = dict.fromkeys(("monotone", "growth"),
                                    type(exc).__name__)
            hyp, failed = None, ["monotone", "growth"]
        try:
            beta = certify.beta_sharp(kernel, p)
        except PascucertError:
            beta = None
            failed.append("beta_routes")
        rows.append([text, p.mu, p.nu, p.sigma, p.xi, beta,
                     margins["monotone"], margins["growth"],
                     None if hyp is None else hyp.min_margin,
                     not failed, failed])
    return rows


@pytest.mark.parametrize("kernel_text,flags,broken_growth", [
    # an alpha/gamma sweep
    ("komatu c=0 delta={2,3}",
     {"alpha": "{5,6}", "gamma": "2", "sigma": "{0,0.2}", "xi": "{0.5,1}"},
     False),
    # xi = 0, where no checker applies, and mu = 0.01, where the M-nodes
    # fail and beta is None
    ("komatu c=0 delta=3",
     {"mu": "{0.01,1}", "nu": "2", "sigma": "{0,0.1}", "xi": "{0,1}"},
     False),
    # a growth checker that breaks down names its error in the cells
    ("bernardi c={0.5,1}",
     {"mu": "1", "nu": "2", "sigma": "{0,0.1}", "xi": "1"}, True),
])
def test_sweep_rows_match_pointwise(kernel_text, flags, broken_growth,
                                    monkeypatch, tmp_path):
    if broken_growth:
        def broken(kernel, p, pieces=None):
            raise CriticalPoint("lambda' vanishes at t = 0.5")

        monkeypatch.setattr(certify, "check_growth_condition", broken)
    rows = _pointwise_rows(kernel_text, flags)
    assert any(r[-2] is False for r in rows) or not broken_growth
    want = {
        "csv": cli._csv_rows(rows, SWEEP_HEADER),
        "json": cli._json_text({"schema_version": cli.SCHEMA_VERSION,
                                "rows": [dict(zip(SWEEP_HEADER, r))
                                         for r in rows]}),
    }
    argv = ["sweep", "--kernel", kernel_text]
    for name, value in flags.items():
        argv += [f"--{name}", value]
    for fmt, text in want.items():
        out = tmp_path / f"sweep.{fmt}"
        rc = cli.main(argv + ["--format", fmt, "--output", str(out)])
        assert out.read_text() == text
        assert rc == (0 if all(r[-2] for r in rows) else 1)


def test_run_dispatches_a_sweep_of_single_values(capsys):
    rc = cli.run(cli.RunConfig(command="sweep", kernel="bernardi c=1",
                               mu=1.0, nu=2.0))
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("kernel,mu,nu,")
    assert lines[1].startswith("bernardi c=1,1.0,2.0,0.0,0.0,")
    assert len(lines) == 2 and rc == 0


def test_main_sweep_needs_parameters(capsys):
    rc = cli.main(["sweep", "--kernel", "bernardi c={1,2}"])
    assert rc == 2


def test_verdicts_run_no_adaptive_beta_quadrature(monkeypatch, tmp_path,
                                                  capsys):
    # beta comes from the M-node sums; the adaptive route and the G rule
    # are test oracles only
    from pascucert import oracles
    calls = []
    for name in ("beta_quadrature_route", "gq_rule"):
        monkeypatch.setattr(oracles, name,
                            lambda *a, f=getattr(oracles, name), name=name,
                            **k: calls.append(name) or f(*a, **k))
    kernel = kernels.parse_kernel("komatu c=0 delta=3")
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 1.0)
    assert certify.run_certification(kernel, p).passed()
    out = tmp_path / "sweep.csv"
    cli.main(["sweep", "--kernel", "komatu c=0 delta={2,3}", "--mu", "1",
              "--nu", "2", "--sigma", "0.1", "--xi", "1", "--output",
              str(out)])
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 2 and all(float(r.split(",")[5]) < 0.0 for r in rows)
    assert cli.main(["beta", "--kernel", "komatu c=0 delta=3", "--mu", "1",
                     "--nu", "2", "--sigma", "0.1", "--xi", "1"]) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# plot data

def _small_report(xi):
    kernel = kernels.make_kernel("bernardi", c=1.0)
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, xi)
    grid = certify.DiskGrid(radius=0.9, angles=32)
    return certify.run_certification(kernel, p, grid, with_curves=True)


def test_plot_data_single_report_blocks():
    rep = _small_report(0.5)
    text = cli.emit_plot_data(rep)
    blocks = text.split("\n\n")
    header1 = blocks[0].splitlines()[0]
    assert header1 == "t,pi,l_at_argmin_z,growth_margin,monotone_expression"
    assert "theta,re_zkprime_over_k" in text


def test_plot_data_marks_inapplicable_margins():
    rep = _small_report(0.0)
    assert all(math.isnan(v)
               for v in rep.curves["monotone_expression"])
    text = cli.emit_plot_data(rep)
    first_data_row = text.splitlines()[1]
    assert first_data_row.endswith("NotApplicable")


def test_plot_data_needs_curves():
    kernel = kernels.make_kernel("bernardi", c=1.0)
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 0.5)
    grid = certify.DiskGrid(radius=0.5, angles=16)
    rep = certify.run_certification(kernel, p, grid)
    with pytest.raises(ConfigError):
        cli.emit_plot_data(rep)


@pytest.mark.parametrize("c,check_rc", [(40, 0), (100, 0), (200, 1)])
def test_main_certify_hohlov_large_c_growth_check(c, check_rc, capsys,
                                                 tmp_path):
    # a small density is no critical point; an underflowing one is named
    # in the growth cells, and envelopes that underflow on the grid in the
    # monotone cells, and no row of certify's table reads either
    argv = ["--kernel", f"hohlov a=1 b=1 c={c}", "--mu", "1", "--nu", "2",
            "--sigma", "0.1", "--xi", "1"]
    plot = tmp_path / "plot.csv"
    assert cli.main(["certify"] + argv + ["--format", "csv",
                                          "--plot-data", str(plot)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    header, row = (line.split(",") for line in out.splitlines())
    for cell in ("growth_margin", "monotone_margin"):
        assert (row[header.index(cell)] == "CriticalPoint") == bool(check_rc)
    assert row[header.index("passed")] == "True"
    curve = plot.read_text().split("\n\n")[0].splitlines()[1:]
    for column in (3, 4):
        assert all(
            (line.split(",")[column] == "CriticalPoint") == bool(check_rc)
            for line in curve)
    # the theorem route still fails on the checker's error
    assert cli.main(["check"] + argv) == check_rc
    err = capsys.readouterr().err
    assert "vanishes" not in err and "Traceback" not in err
    if check_rc:
        assert "CriticalPoint" in err and "underflows" in err


@pytest.mark.parametrize("kernel", ["generalized A=1 B=1 C=4 x40=1",
                                    "bernardi c=1 delta=3",
                                    "bernardi c=1 c=2"])
@pytest.mark.parametrize("command", ["moments", "certify", "sweep"])
def test_main_unknown_or_repeated_kernel_parameter_exit_two(command, kernel,
                                                           capsys):
    problem = [] if command == "moments" else ["--mu", "1", "--nu", "2",
                                               "--xi", "1"]
    rc = cli.main([command, "--kernel", kernel] + problem)
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--alpha", "2", "--xi", "1"],
                                   ["--mu", "1", "--xi", "1"],
                                   ["--mu", "1", "--nu", "2", "--tol", "-1"],
                                   ["--mu", "1", "--nu", "2", "--alpha", "3",
                                    "--gamma", "1"]])
def test_main_sweep_config_checks_match_other_commands(flags, capsys):
    argv = ["--kernel", "bernardi c={1,2}"] + flags
    assert cli.main(["sweep"] + argv) == 2
    sweep_err = capsys.readouterr().err
    assert "config error" in sweep_err and "Traceback" not in sweep_err
    assert cli.main(["check"] + argv[:1] + ["bernardi c=1"] + flags) == 2
    assert capsys.readouterr().err == sweep_err


def test_main_single_value_flags_name_the_flag(capsys):
    rc = cli.main(["check", "--kernel", "bernardi c=1", "--mu", "{1,2}",
                   "--nu", "2"])
    assert rc == 2
    assert "mu must be a single value" in capsys.readouterr().err

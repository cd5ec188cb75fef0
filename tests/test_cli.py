"""Command-line interface: config validation, sweep grammar, output."""

import json
import math
import os

import pytest

from pascucert import cli
from pascucert.errors import (ConfigError, CriticalPoint,
                              RepresentationMismatch)
from pascucert import certify, kernels, params


# ---------------------------------------------------------------------------
# RunConfig validation

def test_runconfig_round_trip():
    cfg = cli.RunConfig(command="check", kernel="bernardi c=1",
                        mu=1.0, nu=2.0, sigma=0.1, xi=0.5,
                        radii=(0.5, 0.9), angles=64, format="json")
    again = cli.RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert isinstance(again.radii, tuple)


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


def test_main_bad_config_exit_two(capsys):
    rc = cli.main(["beta", "--kernel", "bernardi c=1",
                   "--alpha", "3", "--mu", "1", "--nu", "2"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_main_bad_kernel_exit_two(capsys):
    rc = cli.main(["beta", "--kernel", "nosuchfamily x=1",
                   "--mu", "1", "--nu", "2"])
    assert rc == 2
    assert "unknown kernel family" in capsys.readouterr().err


def test_main_bad_environment_value_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("PASCUCERT_ORDER", "abc")
    assert cli.main(BETA_ARGS) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "PASCUCERT_ORDER" in err
    assert "Traceback" not in err


def test_main_epsilon_count_is_unrecognized(capsys):
    # the functional's epsilon minimum is exact, so there is no scan density
    with pytest.raises(SystemExit) as exc:
        cli.main(BETA_ARGS + ["--epsilon-count", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_checker_error_fails_check_and_sweep(monkeypatch, capsys):
    # only NotApplicable and DomainError mean "does not apply"; any other
    # checker error must not turn into a pass
    def broken(kernel, p, t_grid=None):
        raise CriticalPoint("lambda' vanishes at t = 0.5")

    monkeypatch.setattr(certify, "check_growth_condition", broken)
    args = ["--kernel", "komatu c=0 delta=3", "--mu", "1", "--nu", "2",
            "--sigma", "0.1", "--xi", "1"]
    assert cli.main(["check"] + args) == 1
    assert "CriticalPoint" in capsys.readouterr().err
    row = cli._sweep_point(("komatu c=0 delta=3", 1.0, 2.0, None, None,
                            0.1, 1.0, 0.0))
    assert row[7] == "CriticalPoint"
    assert row[-1] is False


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
    assert payload["schema_version"] == 1
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
    def no_beta(kernel, p):
        raise RepresentationMismatch("beta routes disagree")

    monkeypatch.setattr(certify, "beta_sharp", no_beta)
    row = cli._sweep_point(("komatu c=0 delta=3", 1.0, 2.0, None, None,
                            0.1, 1.0, 0.0))
    assert row[5] is None
    assert row[-1] is False


def test_main_sweep_needs_parameters(capsys):
    rc = cli.main(["sweep", "--kernel", "bernardi c={1,2}"])
    assert rc == 2


# ---------------------------------------------------------------------------
# plot data

def _small_report(xi):
    kernel = kernels.make_kernel("bernardi", c=1.0)
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, xi)
    grid = certify.DiskGrid(radii=(0.5, 0.9), angles=32)
    return certify.run_certification(kernel, p, grid, order=128,
                                     with_curves=True)


def test_plot_data_single_report_blocks():
    rep = _small_report(0.5)
    text = cli.emit_plot_data([rep])
    blocks = text.split("\n\n")
    header1 = blocks[0].splitlines()[0]
    assert header1 == "t,pi,l_at_argmin_z,growth_margin,monotone_expression"
    assert "theta,re_zkprime_over_k" in text


def test_plot_data_marks_inapplicable_margins():
    rep = _small_report(0.0)
    assert all(math.isnan(v)
               for v in rep.curves["monotone_expression"])
    text = cli.emit_plot_data([rep])
    first_data_row = text.splitlines()[1]
    assert first_data_row.endswith("NotApplicable")


def test_plot_data_many_reports_summary():
    rep = _small_report(0.5)
    text = cli.emit_plot_data([rep, rep])
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("kernel,mu,nu,sigma,xi,beta")


def test_plot_data_needs_curves():
    kernel = kernels.make_kernel("bernardi", c=1.0)
    p = params.ParameterSet.from_mu_nu(1.0, 2.0, 0.1, 0.5)
    grid = certify.DiskGrid(radii=(0.5,), angles=16)
    rep = certify.run_certification(kernel, p, grid, order=128)
    with pytest.raises(ConfigError):
        cli.emit_plot_data([rep])

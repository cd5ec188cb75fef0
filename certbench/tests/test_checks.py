import json
import os
import types

import passrun
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class Report:
    def __init__(self, beta, verdict):
        self.beta_integral = beta
        self._verdict = verdict

    def passed(self):
        return self._verdict


def fake_pascucert(behaviour):
    """A stand-in for the package whose run_certification does what
    behaviour says for each kernel text."""
    def run_certification(kernel, params):
        result = behaviour[kernel]
        if isinstance(result, Exception):
            raise result
        return result

    return types.SimpleNamespace(
        parse_kernel=lambda text: text,
        ParameterSet=types.SimpleNamespace(from_mu_nu=lambda *a: a),
        run_certification=run_certification)


REFS = {"beta_tol": 1e-7, "workloads": {"fake": {"requests": {
    "good": {"beta": -1.0, "verdict": True, "known_defect": None},
    "raises": {"beta": -2.0, "verdict": True, "known_defect": None},
    "wrong": {"beta": -3.0, "verdict": True, "known_defect": "verdict"},
}}}}


def test_failed_share_counts_a_raise_and_a_wrong_verdict():
    pkg = fake_pascucert({
        "k-good": Report(-1.0 + 1e-9, True),
        "k-raises": ValueError("numerical trouble"),
        "k-wrong": Report(-3.0, False),
    })
    outcomes = [workloads.run_certify(pkg, workloads.Certify(rid, f"k-{rid}"))
                for rid in ("good", "raises", "wrong")]
    verdict = workloads.judge("fake", outcomes, REFS)
    assert verdict["attempted"] == 3
    assert verdict["failed"] == ["raises: raises ValueError", "wrong: verdict"]
    assert len(verdict["failed"]) / verdict["attempted"] == 2 / 3
    # the wrong verdict is a recorded known defect, the raise is not
    assert verdict["unexpected"] == ["raises: raises ValueError"]


def test_beta_off_reference_and_missing_request_fail():
    outcomes = [{"id": "good", "fault": None, "beta": -1.0 + 2e-7,
                 "verdict": True}]
    verdict = workloads.judge("fake", outcomes, REFS)
    assert verdict["failed"] == ["good: beta", "raises: missing",
                                 "wrong: missing"]


def test_sweep_exit_code_2_fails_every_row(tmp_path):
    cli = types.SimpleNamespace(main=lambda argv: 2)
    argv = workloads.sweep_argv(workloads.SWEEP_X1, workloads.SWEEP_SIGMA,
                                str(tmp_path / "out.csv"))
    outcomes = workloads.run_sweep(cli, argv)
    assert len(outcomes) == 8
    assert {o["fault"] for o in outcomes} == {"exit2"}


def test_seed_sets_the_order_only():
    import random
    a = workloads.pass_inputs("certify_closed", random.Random(3))
    b = workloads.pass_inputs("certify_closed", random.Random(3))
    assert a == b
    assert sorted(a["order"]) == sorted(workloads.request_ids("certify_closed"))


def test_tail_is_the_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
    assert run.tail(range(21)) == 20
    assert run.tail(range(100)) == 89


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = passrun.per_layer_names() + ["trace.overhead_s"]
    assert list(layers) == expected
    assert all(layers[n] == run.layer_unit(n) for n in expected)


def test_references_cover_every_request():
    refs = workloads.load_references()
    for workload in workloads.WORKLOADS:
        table = refs["workloads"][workload]["requests"]
        assert sorted(table) == sorted(workloads.request_ids(workload))
        assert all(r["provenance"] for r in table.values())

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import carnotlab
from carnotlab.cli import main


def run(argv):
    return main(argv)


def test_group_info(capsys):
    assert run(["group-info", "heisenberg:1"]) == 0
    out = capsys.readouterr().out
    assert "n = 3" in out
    assert "layers = (2, 1)" in out
    assert "Q = 4" in out


def test_group_info_euclidean(capsys):
    assert run(["group-info", "euclidean:2"]) == 0
    out = capsys.readouterr().out
    assert "Q = 2" in out


def test_group_info_step2_file_prints_closed_form(tmp_path, capsys):
    # shape (3, 2): c_d = w_2 |S^2| (1/4) B(3/4, 2) = pi * 4 pi * (1/4) * 16/21
    forms = [
        [[0.0, 1.0, 0.5], [-1.0, 0.0, 2.0], [-0.5, -2.0, 0.0]],
        [[0.0, -3.0, 0.0], [3.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
    ]
    spec = tmp_path / "forms.json"
    spec.write_text(json.dumps({"forms": forms}))
    assert run(["group-info", f"step2:{spec}"]) == 0
    out = capsys.readouterr().out
    assert "layers = (3, 2)" in out
    c_d = float(out.split("c_d = ")[1].split()[0])
    assert c_d == pytest.approx(math.pi**2 * 16.0 / 21.0, rel=1e-12)


def test_unknown_command_is_usage_error(capsys):
    assert run(["definitely-not-a-command"]) == 64


def test_unknown_flag_is_usage_error(capsys):
    assert run(["counterexample", "--nonsense", "3"]) == 64


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "mystery_knob": 7}))
    code = run(["counterexample", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 64
    assert "mystery_knob" in capsys.readouterr().err


def test_counterexample_outputs(tmp_path, capsys):
    code = run(
        ["counterexample", "--p", "0.5", "--q", "1", "--eps", "2^-2..2^-5",
         "--out", str(tmp_path), "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "slope of log R vs log eps" in out
    data = json.loads((tmp_path / "counterexample.json").read_text())
    assert data["schema_version"] == 1
    assert data["results"]["slope"] == pytest.approx(0.5, rel=0.02)
    with open(tmp_path / "counterexample.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "R", "L", "a", "b", "ratio", "ratio_lower", "converged"]
    assert len(rows) == 5
    # R decreases toward 0, L stays bounded below
    r_vals = [float(r[1]) for r in rows[1:]]
    l_vals = [float(r[3]) for r in rows[1:]]
    assert r_vals == sorted(r_vals, reverse=True)
    assert min(l_vals) > 0.2


def test_counterexample_below_one_is_certified(tmp_path, capsys):
    code = run(["counterexample", "--p", "0.5", "--q", "0.5", "--eps", "2^-2..2^-4",
                "--out", str(tmp_path)])
    assert code == 0
    rows = json.loads((tmp_path / "counterexample.json").read_text())["results"]["rows"]
    assert [r["method"] for r in rows] == ["vertex-bnb"] * 3
    assert all(r["converged"] for r in rows)


@pytest.mark.parametrize("key, value", [("coarse", 200), ("tol", 1e-6)], ids=["coarse", "tol"])
def test_counterexample_coarse_key_is_gone(tmp_path, capsys, key, value):
    # the minimum is exact on the nodes: no grid size, and b is bisected to adjacent floats
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, key: value}))
    assert run(["counterexample", "--config", str(cfg), "--out", str(tmp_path)]) == 64
    assert f"unknown config keys: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "eps, token", [("abc", "'abc'"), ("2^x..2^-3", "'2^x'"), ("2^2000..2^1999", "2^2000")]
)
def test_counterexample_malformed_eps_is_usage_error(tmp_path, capsys, eps, token):
    assert run(["counterexample", "--eps", eps, "--out", str(tmp_path)]) == 64
    assert token in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["poincare", "sobolev", "sobolev-sublaplacian", "weights-check", "leibniz"]
)
def test_t_key_is_gone(tmp_path, capsys, command):
    # t is set only by the weights-check t_grid; a config naming t is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 2.0}))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 64
    assert "unknown config keys: t" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("morrey", {"w": {"kind": "power"}}, "beta"),
        ("morrey", {"w": {"kind": "product"}}, "factors"),
        ("morrey", {"w": {"kind": "product", "factors": [{"pole": [0.0]}]}}, "beta"),
        ("morrey", {"f": {"kind": "polynomial"}}, "terms"),
        ("morrey", {"f": {"kind": "bump", "raduis": 2.0}}, "raduis"),
        ("weights-check", {"sampler": {"cout": 2}}, "cout"),
        ("repformula", {"ball": {"centre": [0.0]}}, "centre"),
        ("morrey", {"w": 3}, "constant weight spec must be a JSON object"),
        ("morrey", {"f": {"kind": "gaussian"}}, "unknown function kind 'gaussian'"),
    ],
)
def test_malformed_spec_is_usage_error(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 64
    assert key in capsys.readouterr().err


_FAST = {"samples": 1024, "trials": 1}


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("poincare", {"trials": "abc"}, "trials"),
        ("poincare", {"samples": "many", "trials": 1}, "samples"),
        ("poincare", dict(_FAST, k=1.5), "k"),
        ("poincare", dict(_FAST, m=[2]), "m"),
        ("sobolev", dict(_FAST, q="2"), "q"),
        ("poincare", dict(_FAST, p="1"), "p"),
        ("poincare", dict(_FAST, p_list="4/3"), "p_list"),
        ("poincare", dict(_FAST, p_list=[1.5, None]), "p_list"),
        ("morrey", {"lam": "x", "samples": 1024}, "lam"),
        ("campanato", {"k": 2.5, "samples": 1024, "sampler": {"count": 2}}, "k"),
        ("leibniz", {"lam2": None, "configs": 1, "samples": 1024}, "lam2"),
        ("leibniz", {"configs": True, "samples": 1024}, "configs"),
        ("repformula", {"pairs": 1.5, "points": 2, "samples": 1024}, "pairs"),
        ("repformula", {"points": "5", "pairs": 1, "samples": 1024}, "points"),
        ("counterexample", {"p": "0.5"}, "p"),
        ("counterexample", {"q": "1"}, "q"),
        ("weights-check", {"sampler": {"count": "2"}, "samples": 1024}, "count"),
        ("weights-check", {"sampler": {"count": 2.5}, "samples": 1024}, "count"),
        ("weights-check", {"t_grid": ["a"], "samples": 1024}, "t_grid"),
        ("weights-check", {"t_grid": 2.0, "samples": 1024}, "t_grid"),
        ("leibniz", {"sampler": {"r_min": "x"}, "configs": 1, "samples": 1024}, "r_min"),
        ("morrey", {"f": {"kind": "bump", "radius": "x"}, "samples": 1024}, "radius"),
        ("morrey", {"f": {"kind": "polynomial", "terms": {"a": 1}}, "samples": 1024}, "terms"),
        ("morrey", {"f": {"kind": "polynomial", "terms": {"0": "x"}}, "samples": 1024}, "terms"),
        ("morrey", {"f": {"kind": "polynomial", "terms": [1]}, "samples": 1024}, "terms"),
        ("morrey", {"w": {"kind": "product", "factors": [{"beta": None}]}, "samples": 1024}, "beta"),
        ("morrey", {"w": {"kind": "power", "beta": "x"}, "samples": 1024}, "beta"),
        ("morrey", {"w": {"kind": "constant", "value": "x"}, "samples": 1024}, "value"),
        ("repformula", {"ball": {"radius": "x"}, "pairs": 1, "points": 2, "samples": 1024}, "radius"),
        ("poincare", dict(_FAST, v=5), "v"),
        ("weights-check", {"v": {"kind": "power", "beta": 0.5}, "samples": 1024}, "v"),
        ("morrey", {"f": {"kind": "bump", "center": [math.nan]}, "samples": 1024}, "center"),
        ("morrey", {"sampler": {"r_max": math.inf}, "samples": 1024}, "r_max"),
        ("repformula", {"ball": {"center": [math.nan]}, "pairs": 1, "points": 2}, "center"),
    ],
)
def test_wrong_typed_config_value_is_usage_error(tmp_path, capsys, command, config, key):
    # a string, a list, a bool, None, a non-integral value for an int key or
    # a NaN or Infinity (json reads them as numbers) exits 64 naming the key,
    # not with a traceback, a truncated value or a norm of 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 64
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["group-info", "heisenberg:x"], None),
        (["morrey"], {"group": "euclidean:1.5", "samples": 1024}),
        (["morrey"], {"f": {"kind": "bump", "center": [0, 0]}, "samples": 1024}),
    ],
)
def test_malformed_group_id_or_bump_center_is_structure_error(tmp_path, capsys, argv, config):
    # a non-integer group size or a bump center of the wrong dimension exits
    # 1 with an error line, as an unknown group id does
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", [None, "{", "[1, 2"], ids=["missing", "truncated", "unclosed"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run(["counterexample", "--config", str(cfg), "--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err.startswith(f"usage error: cannot read config {cfg}")


@pytest.mark.parametrize(
    "text", ["[1, 2]", "null", "5", '"abc"'], ids=["list", "null", "number", "string"]
)
def test_non_object_config_is_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["counterexample", "--config", str(cfg), "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and str(cfg) in err and "JSON object" in err


@pytest.mark.parametrize(
    "text, fault",
    [(None, "No such file"), ('{"x": 1}', '"forms"'), ('{"forms": "x"}', '"forms"'),
     ('{"forms": [', "cannot read")],
    ids=["missing", "no-forms", "non-numeric-forms", "malformed-json"],
)
def test_bad_step2_group_file_is_structure_error(tmp_path, capsys, text, fault):
    spec = tmp_path / "forms.json"
    if text is not None:
        spec.write_text(text)
    assert run(["group-info", f"step2:{spec}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(spec) in err and fault in err


_POWER = {"kind": "power", "beta": 0.5}


@pytest.mark.parametrize(
    "command, config, token",
    [
        ("weights-check", {"m": 2, "p_list": [2.0, 2.0], "q": 2.0, "v": [_POWER],
                           "samples": 1024, "sampler": {"count": 4}}, "one weight v_i per slot"),
        ("poincare", {"v": [_POWER], "trials": 1, "samples": 1024}, "one weight v_i per slot"),
        ("sobolev", {"v": [], "trials": 1, "samples": 1024}, "one weight v_i per slot"),
        ("leibniz", {"p_list": [2.0, 2.0, 2.0], "configs": 1, "samples": 1024}, "p_list"),
        ("leibniz", {"p_list": [2.0], "configs": 1, "samples": 1024}, "p_list"),
        ("leibniz", {"q": 0.0, "configs": 1, "samples": 1024}, "q = 0.0"),
        ("repformula", {"points": -1, "pairs": 1, "samples": 1024}, "number of points"),
        ("poincare", {"trials": -2, "samples": 1024}, "poincare sweep needs a count >= 0"),
        ("leibniz", {"configs": -1, "samples": 1024}, "leibniz sweep needs a count >= 0"),
        ("repformula", {"pairs": -1, "samples": 1024}, "repformula sweep needs a count >= 0"),
        ("poincare", {"p": 0, "trials": 1, "samples": 1024}, "p = 0.0 must be positive"),
        ("weights-check", {"p": 0, "samples": 1024, "sampler": {"count": 4}},
         "p = 0.0 must be positive"),
    ],
    ids=["weights-check-short-v", "poincare-short-v", "sobolev-empty-v", "leibniz-three-p",
         "leibniz-one-p", "leibniz-q-zero", "repformula-negative-points",
         "poincare-negative-trials", "leibniz-negative-configs", "repformula-negative-pairs",
         "poincare-p-zero", "weights-check-p-zero"],
)
def test_malformed_trial_input_is_validation_error(tmp_path, capsys, command, config, token):
    # a short v list, a Leibniz p_list without two entries or q <= 0, an
    # explicit p = 0 and a negative count exit 1 naming the input: no
    # traceback, no empty report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and token in err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize(
    "key, spec",
    [
        ("u", {"kind": "constant", "value": math.inf}),
        ("v1", {"kind": "constant", "value": math.nan}),
        ("v2", {"kind": "power", "beta": math.nan}),
        ("u", {"kind": "product", "factors": [{"beta": 0.5, "pole": [math.inf]}]}),
    ],
    ids=["inf-constant", "nan-constant", "nan-beta", "inf-pole"],
)
def test_non_finite_weight_spec_is_validation_error(tmp_path, capsys, key, spec):
    # json reads Infinity and NaN as numbers; the weight rejects them when
    # it is built (exit 1), before any integral could fail on them (exit 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: spec, "configs": 1, "samples": 1024}))
    assert "Infinity" in cfg.read_text() or "NaN" in cfg.read_text()
    assert run(["leibniz", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: weight ")
    assert not (tmp_path / "leibniz.json").exists()


@pytest.mark.parametrize(
    "group, k, token",
    [("euclidean:2", 1, "k = 2 statement, got k = 1"), ("euclidean:1", 2, "m*Q = 2")],
    ids=["k-one", "mQ-two"],
)
def test_sublaplacian_hypotheses_fail_before_the_weight_check(
    tmp_path, capsys, count_calls, group, k, token
):
    # k = 2 and m*Q > 2 are checked on the config, so a failing one exits 1
    # without the weight check a non-constant v would run first
    import carnotlab.lab.sweeps as sweeps

    calls = count_calls(sweeps, "weight_condition_sup")
    cfg = tmp_path / "cfg.json"
    power = {"kind": "power", "beta": 0.25}
    cfg.write_text(json.dumps({"group": group, "k": k, "v": [power, power]}))
    assert run(["sobolev-sublaplacian", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert token in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "sobolev-sublaplacian.json").exists()


def test_nested_config_value_keeps_the_other_defaults(tmp_path):
    # {"sampler": {"count": 2}} changes the count only: the radii stay in
    # the default [0.25, 4], not the BallSampler range [2^-6, 2^6]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampler": {"count": 2}, "configs": 1, "samples": 1024}))
    assert run(["leibniz", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "leibniz.json").read_text())
    assert data["config"]["sampler"] == {"count": 2, "r_min": 0.25, "r_max": 4.0}
    sampler = data["results"]["trials"][0]["config"]["sampler"]
    assert (sampler["count"], sampler["r_min"], sampler["r_max"]) == (2, 0.25, 4.0)


def test_weights_check_empty_t_grid_exit_1(tmp_path, capsys):
    # an empty grid checks nothing, so it is refused instead of reported
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_grid": [], "samples": 1024, "sampler": {"count": 2}}))
    assert run(["weights-check", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "t grid is empty" in capsys.readouterr().err


def test_counterexample_empty_eps_writes_report(tmp_path, capsys):
    # like repformula with "pairs": 0: the report is kept and the command exits 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": []}))
    code = run(["counterexample", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "counterexample.json").read_text())
    assert data["results"]["rows"] == []
    assert "ratio growth" not in capsys.readouterr().out


def test_counterexample_repeated_eps_has_no_slope(tmp_path, capsys):
    # one distinct eps fits no slope: NaN, and no warning (warnings raise in the suite)
    code = run(["counterexample", "--eps", "2^-3,2^-3", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "counterexample.json").read_text())
    assert data["results"]["slope"] == "NaN"
    assert "slope of log R vs log eps: nan" in capsys.readouterr().out


def test_counterexample_invalid_p_is_validation_error(tmp_path, capsys):
    code = run(["counterexample", "--p", "1.5", "--out", str(tmp_path)])
    assert code == 1
    assert "p" in capsys.readouterr().err


def test_poincare_invalid_exponents_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 0.5, "p_list": [2.0, 2.0], "trials": 2, "samples": 1024}))
    code = run(["poincare", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "p <= q" in err


def test_poincare_inconsistent_explicit_p_exit_1(tmp_path, capsys):
    # explicit p violating 1/p = sum 1/p_i is named in the error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"p": 2.0, "p_list": [2.0, 2.0], "q": 2.0, "trials": 2, "samples": 1024})
    )
    code = run(["poincare", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "1/p = 1/p_1" in capsys.readouterr().err


def test_poincare_non_finite_integrand_exit_2(tmp_path, capsys):
    # v = d^-400 overflows where the RHS integrand is nonzero: a numerical failure
    cfg = tmp_path / "cfg.json"
    pole = {"kind": "power", "beta": -400}
    cfg.write_text(json.dumps({"v": [pole, pole], "trials": 2}))
    code = run(["poincare", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "non-finite integrand value inf at" in capsys.readouterr().err
    # the failure still leaves a partial report naming the stage, trial, point and seed
    data = json.loads((tmp_path / "out" / "poincare.json").read_text())
    error = data["results"]["error"]
    assert error["type"] == "IntegrationError"
    assert error["stage"] == "trials" and error["trial"] == 0
    assert error["seed"] == data["seed"] == 20240801
    point = error["point"]
    assert len(point) == 1 and math.isfinite(point[0])
    # (|X f| d^-400)^(4/3) overflows only where |X f| d^-400 > 1e231: near the pole
    assert abs(point[0]) < 0.3
    assert not (tmp_path / "out" / "poincare.csv").exists()


@pytest.mark.parametrize(
    "command, config, stage, trial",
    [
        ("leibniz", {"v1": {"kind": "power", "beta": -400}, "configs": 2}, "trials", 0),
        ("morrey", {"w": {"kind": "power", "beta": -400}}, "balls", None),
        ("campanato", {"w": {"kind": "power", "beta": -400}, "p": 2.0}, "balls", None),
    ],
)
def test_numerical_failure_writes_partial_report(tmp_path, capsys, command, config, stage, trial):
    # every command, not only the three sweeps, leaves <command>.json behind on exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 2
    assert "non-finite integrand value inf at" in capsys.readouterr().err
    data = json.loads((tmp_path / "out" / f"{command}.json").read_text())
    error = data["results"]["error"]
    assert error["type"] == "IntegrationError"
    assert error["stage"] == stage and error["trial"] == trial
    assert error["seed"] == data["seed"] == 5
    assert len(error["point"]) == 1 and math.isfinite(error["point"][0])
    assert not (tmp_path / "out" / f"{command}.csv").exists()


_SWEEP_DEFAULTS = {
    "m": 2,
    "p_list": [4.0 / 3.0, 4.0 / 3.0],
    "p": None,
    "q": 2.0,
    "trials": 25,
    "samples": 4096,
    "u": None,
    "v": None,
}


@pytest.mark.parametrize(
    "command,group,k",
    [("poincare", "euclidean:1", 1), ("sobolev", "euclidean:1", 1),
     ("sobolev-sublaplacian", "euclidean:2", 2)],
)
def test_sweep_commands_echo_defaults(tmp_path, command, group, k):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 1}))
    code = run([command, "--config", str(cfg), "--samples", "1024", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / f"{command}.json").read_text())
    expected = dict(_SWEEP_DEFAULTS, group=group, k=k, trials=1, samples=1024)
    assert data["config"] == expected
    assert data["results"]["summary"]["trials"] == 1


def test_poincare_runs_and_echoes_config(tmp_path, capsys):
    # q = 3 runs the Newton solver, which certifies every trial's lhs
    cfg = tmp_path / "cfg.json"
    for payload, verdict, note in (
        ({"trials": 3, "samples": 1024, "k": 1, "q": 2.0}, "finite-at-sampled-scales",
         "least-squares"),
        ({"q": 3.0, "trials": 2}, "diverges-small-r", "newton-certified"),
    ):
        cfg.write_text(json.dumps(payload))
        code = run(["poincare", "--config", str(cfg), "--out", str(tmp_path), "--seed", "11"])
        assert code == 0
        data = json.loads((tmp_path / "poincare.json").read_text())
        for key, value in payload.items():
            assert data["config"][key] == value
        assert data["seed"] == 11
        assert data["results"]["summary"]["trials"] == payload["trials"]
        assert data["results"]["weight_check"]["verdict"] == verdict
        assert [t["lhs"]["note"] for t in data["results"]["trials"]] == [note] * payload["trials"]


def test_reports_deterministic_across_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 2, "samples": 1024}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["poincare", "--config", str(cfg), "--out", str(out_a), "--seed", "5"]) == 0
    assert (
        run(["poincare", "--config", str(cfg), "--out", str(out_b), "--seed", "5",
             "--threads", "8"]) == 0
    )
    a = json.loads((out_a / "poincare.json").read_text())
    b = json.loads((out_b / "poincare.json").read_text())
    a.pop("meta")
    b.pop("meta")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert (out_a / "poincare.csv").read_bytes() == (out_b / "poincare.csv").read_bytes()


def test_weights_check_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"group": "euclidean:3", "m": 1, "k": 1, "p_list": [2.0], "q": 6.0,
             "samples": 1024, "sampler": {"count": 8}}
        )
    )
    code = run(["weights-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "finite-at-sampled-scales" in out
    data = json.loads((tmp_path / "weights-check.json").read_text())
    assert data["results"]["exponent"] == pytest.approx(0.0)


def test_weight_rows_without_two_radii_are_undetermined(tmp_path):
    # d^400 overflows on most balls: a t row with fewer than two usable
    # balls has no slope, reads undetermined and is never the witness; the
    # sweep's check counts the overflowed terms as flagged, and exits 2 as
    # weights-check does
    heavy = {"kind": "power", "beta": 400}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v": [heavy, heavy], "trials": 2, "samples": 1024}))
    assert run(["poincare", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    check = json.loads((tmp_path / "poincare.json").read_text())["results"]["weight_check"]
    assert check["verdict"] == "undetermined" and check["witness_t"] is None
    assert check["flagged_count"] >= 1
    cfg.write_text(json.dumps({"v": [heavy], "samples": 1000, "sampler": {"count": 4}}))
    run(["weights-check", "--config", str(cfg), "--out", str(tmp_path)])
    rows = json.loads((tmp_path / "weights-check.json").read_text())["results"]["per_t"]
    sparse = [row for row in rows if row["balls_used"] < 2]
    assert sparse and all(r["verdict"] == "undetermined" and r["slope"] == "NaN" for r in sparse)


def test_morrey_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"group": "euclidean:2", "f": {"kind": "polynomial", "terms": {"0,0": 1.0}},
             "p": 2.0, "lam": 2.0, "samples": 1024, "sampler": {"count": 6}}
        )
    )
    code = run(["morrey", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "morrey.json").read_text())
    assert data["results"]["norm"]["value"] == pytest.approx(1.0, rel=1e-9)


def test_campanato_command_polynomial_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"group": "euclidean:1", "f": {"kind": "polynomial", "terms": {"1": 2.0}},
             "p": 2.0, "lam": 1.0, "k": 2, "samples": 1024, "sampler": {"count": 6}}
        )
    )
    assert run(["campanato", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "campanato.json").read_text())
    assert data["results"]["norm"]["value"] < 1e-8


def test_campanato_csv_notes_tell_pruned_from_certified(tmp_path):
    # at q = p = 1 the CSV's note column tells each ball's certified minimum
    # from an upper bound pruned below the sup
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 1.0, "samples": 1024, "sampler": {"count": 8}}))
    assert run(["campanato", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    sup = json.loads((tmp_path / "campanato.json").read_text())["results"]["norm"]["value"]
    with open(tmp_path / "campanato.csv") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["radius", "value", "note"]
    notes = {note for _, _, note in rows}
    assert notes == {"l1-vertex-certified", "upper-bound-pruned"}
    assert all(float(v) < sup for _, v, note in rows if note == "upper-bound-pruned")


def test_leibniz_scaling_violation_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 2.0, "configs": 1, "samples": 1024}))
    code = run(["leibniz", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "scaling relation" in capsys.readouterr().err


def test_leibniz_non_positive_p_exit_1_naming_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for p_list in ([0, 2], [-1, 2]):
        cfg.write_text(json.dumps({"p_list": p_list, "configs": 1, "samples": 1024}))
        assert run(["leibniz", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and f"p_1 = {p_list[0]:.1f}" in err
        assert "scaling relation" not in err


def test_repformula_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pairs": 2, "points": 5, "samples": 1024}))
    code = run(["repformula", "--config", str(cfg), "--out", str(tmp_path), "--seed", "2"])
    assert code == 0
    data = json.loads((tmp_path / "repformula.json").read_text())
    assert len(data["results"]["summaries"]) == 2
    with open(tmp_path / "repformula.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair", "point_index", "lhs", "rhs", "ratio"]
    assert len(rows) == 1 + 2 * 5


def test_repformula_zero_pairs_writes_report(tmp_path, capsys):
    # like poincare with "trials": 0 and leibniz with "configs": 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pairs": 0, "points": 5, "samples": 1024}))
    code = run(["repformula", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "repformula.json").read_text())
    assert data["results"]["summaries"] == [] and data["results"]["max_ratio"] == "NaN"



def test_repformula_zero_points_on_h1_writes_report(tmp_path, capsys):
    # an empty target batch under a kernel (tau < mQ) gives each pair no records
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "heisenberg:1", "points": 0, "pairs": 1, "samples": 1024}))
    code = run(["repformula", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "repformula.json").read_text())
    assert data["results"]["records"] == [[]] and data["results"]["max_ratio"] == "NaN"

def test_json_format_only(tmp_path):
    assert run(
        ["counterexample", "--eps", "2^-2", "--out", str(tmp_path), "--format", "json"]
    ) == 0
    assert (tmp_path / "counterexample.json").exists()
    assert not (tmp_path / "counterexample.csv").exists()


def test_threads_must_be_positive(tmp_path, capsys):
    assert run(["counterexample", "--threads", "0", "--out", str(tmp_path)]) == 64


# Run in a fresh interpreter: the test process itself imports scipy.
_COLD_PATH = """
import json, sys


def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)


import carnotlab, carnotlab.lab, carnotlab.cli

seen = {"import": scipy_loaded()}
out, cfg = sys.argv[1:]
codes = [
    carnotlab.cli.main(["counterexample", "--eps", "2^-2..2^-3", "--out", out]),
    carnotlab.cli.main(["leibniz", "--config", cfg, "--out", out]),
]
seen["cli"] = scipy_loaded()

from carnotlab.carnot import GaugeBall, GaugeBump, euclidean_group
from carnotlab.quad import QuadratureScheme
from carnotlab.weights import Weight

e1 = euclidean_group(1)
_, est = carnotlab.lab.best_polynomial(
    e1, GaugeBump(e1, [0.1], 1.4), Weight.one(e1), 0.5, GaugeBall([0.0], 1.0), 2,
    QuadratureScheme(samples=1024, seed=3),
)
seen["q < 1"] = scipy_loaded()
print(json.dumps({"codes": codes, "seen": seen, "note": est.note}))
"""


def test_scipy_loads_only_with_a_q_below_one_solve(tmp_path):
    # importing the package, the counterexample and a small Leibniz run load
    # no scipy; the first q < 1 best polynomial (Nelder-Mead) does
    cfg = tmp_path / "leibniz.json"
    cfg.write_text(json.dumps({"sampler": {"count": 2}, "configs": 1, "samples": 1024}))
    src = str(Path(carnotlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH, str(tmp_path), str(cfg)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {
        "codes": [0, 0],
        "seen": {"import": False, "cli": False, "q < 1": True},
        "note": "upper-bound",
    }


_FAULTS = """
import atexit, resource, sys
from carnotlab import cli
atexit.register(lambda: print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt, file=sys.stderr))
mode, argv = sys.argv[1], sys.argv[2:]
if mode == "entry":
    sys.argv = ["carnotlab", *argv]
    cli.entry()
sys.exit(cli.main(argv))
"""


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap thresholds are set under glibc only")
def test_cli_entry_keeps_freed_heap(tmp_path):
    # the console entry point raises glibc's trim and mmap thresholds, so
    # `carnotlab leibniz` at its defaults stops faulting its freed heap back
    # in (about 70k minor faults at glibc's defaults); main() leaves them
    # alone, and both write the same report bytes apart from meta.timestamp
    src = str(Path(carnotlab.__file__).resolve().parents[1])
    reports, faults = {}, {}
    for mode in ("entry", "main"):
        out = tmp_path / mode
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS, mode, "leibniz", "--out", str(out)],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        faults[mode] = int(proc.stderr.strip().splitlines()[-1])
        text = (out / "leibniz.json").read_text()
        text = re.sub(r'"timestamp": "[^"]*"', "", text)
        reports[mode] = text, (out / "leibniz.csv").read_bytes()
    assert faults["entry"] <= 10_000, faults
    assert reports["entry"] == reports["main"]

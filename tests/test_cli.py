import csv
import json
import math

import pytest

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
    assert rows[0] == ["eps", "R", "R_predicted", "L", "a", "b", "ratio", "converged"]
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


def test_counterexample_coarse_key_is_gone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "coarse": 200}))
    assert run(["counterexample", "--config", str(cfg), "--out", str(tmp_path)]) == 64
    assert "coarse" in capsys.readouterr().err


def test_counterexample_empty_eps_writes_report(tmp_path, capsys):
    # like repformula with "pairs": 0: the report is kept and the command exits 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": []}))
    code = run(["counterexample", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "counterexample.json").read_text())
    assert data["results"]["rows"] == []
    assert "ratio growth" not in capsys.readouterr().out


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
    "t": 2.0,
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
    cfg = tmp_path / "cfg.json"
    payload = {"trials": 3, "samples": 1024, "k": 1, "q": 2.0}
    cfg.write_text(json.dumps(payload))
    code = run(["poincare", "--config", str(cfg), "--out", str(tmp_path), "--seed", "11"])
    assert code == 0
    data = json.loads((tmp_path / "poincare.json").read_text())
    for key, value in payload.items():
        assert data["config"][key] == value
    assert data["seed"] == 11
    assert data["results"]["summary"]["trials"] == 3
    assert data["results"]["weight_check"]["verdict"] == "finite-at-sampled-scales"


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


def test_leibniz_scaling_violation_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 2.0, "configs": 1, "samples": 1024}))
    code = run(["leibniz", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "scaling relation" in capsys.readouterr().err


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


def test_json_format_only(tmp_path):
    assert run(
        ["counterexample", "--eps", "2^-2", "--out", str(tmp_path), "--format", "json"]
    ) == 0
    assert (tmp_path / "counterexample.json").exists()
    assert not (tmp_path / "counterexample.csv").exists()


def test_threads_must_be_positive(tmp_path, capsys):
    assert run(["counterexample", "--threads", "0", "--out", str(tmp_path)]) == 64

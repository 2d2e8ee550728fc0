"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities and runtime.  Tolerances are fixed here, not tuned.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest

from bruteforce_helpers import dilated_bump, exact_best_value, mc_ball_volume
from carnotlab.carnot import (
    GaugeBall,
    GaugeBump,
    HomogeneousPolynomial,
    euclidean_group,
    heisenberg_group,
    random_bump,
)
from carnotlab.cli import main as cli_main
from carnotlab.lab import (
    best_polynomial,
    counterexample_report,
    fit_scaling_slope,
    leibniz_test,
    poincare_test,
    representation_check,
)
from carnotlab.lab.sweeps import check_weight_condition
from carnotlab.operators import multilinear_fractional_integral
from carnotlab.quad import QuadratureScheme
from carnotlab.rng import stream
from carnotlab.weights import (
    BallSampler,
    ExponentSystem,
    Weight,
    ball_term,
    scaling_exponent,
    validate_exponents,
    weight_condition_sup,
)

SEED = 20240801

E1 = euclidean_group(1)
E2 = euclidean_group(2)
E3 = euclidean_group(3)
H1 = heisenberg_group(1)


def _report(criterion, runtime, limit, detail):
    assert runtime < limit, f"criterion {criterion} exceeded runtime budget: {runtime:.1f}s"
    print(f"[PASS] criterion {criterion}: {detail} (runtime {runtime:.1f}s < {limit:.0f}s)")


# -- criterion 1: counterexample reproduction -----------------------------------


def test_criterion_1_counterexample():
    start = time.time()
    p, q = 0.5, 1.0
    eps_list = [2.0**-e for e in range(2, 9)]
    rows = counterexample_report(p, q, eps_list)

    # (a) fitted slope of log R vs log eps equals 1 - p within 2%
    slope = fit_scaling_slope(rows)
    assert abs(slope - (1.0 - p)) <= 0.02 * (1.0 - p)

    # (b) L(eps) within 5% of its eps = 2^-2 value and above 0
    l_ref = rows[0]["L"]
    assert l_ref > 0.0
    for row in rows:
        assert abs(row["L"] - l_ref) <= 0.05 * l_ref

    # (c) ratio grows monotonically, by >= 4x from eps = 2^-2 to 2^-6
    by_eps = {row["eps"]: row["ratio"] for row in rows}
    ratios = [by_eps[2.0**-e] for e in range(2, 9)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert by_eps[2.0**-6] / by_eps[2.0**-2] >= 4.0

    _report(
        1,
        time.time() - start,
        60,
        f"slope {slope:.4f} (target 0.5), L spread "
        f"{(max(r['L'] for r in rows) / min(r['L'] for r in rows) - 1) * 100:.2f}%, "
        f"ratio growth {by_eps[2.0**-6] / by_eps[2.0**-2]:.1f}x",
    )


# -- criterion 2: volume law ------------------------------------------------------


def test_criterion_2_volume_law():
    start = time.time()
    radii = [0.5, 1.0, 2.0, 4.0]
    slopes = {}
    for group, tol in ((H1, 0.04), (E2, 0.02)):
        logs = [
            math.log(mc_ball_volume(group, r, 1_000_000, seed=SEED).value) for r in radii
        ]
        slope = float(np.polyfit(np.log(radii), logs, 1)[0])
        slopes[group.ident] = slope
        assert abs(slope - group.homogeneous_dimension) <= tol
    _report(
        2,
        time.time() - start,
        120,
        f"H^1 exponent {slopes['heisenberg:1']:.4f} (4 +- 0.04), "
        f"R^2 exponent {slopes['euclidean:2']:.4f} (2 +- 0.02)",
    )


# -- criterion 3: dilation covariance of the fractional integral -------------------


def test_criterion_3_dilation_covariance():
    start = time.time()
    checks = 0
    worst = 0.0

    def run_config(group, fs, tau, scheme, label, pairs):
        nonlocal checks, worst
        rng = stream(SEED, f"acc3/{label}")
        for i in range(pairs):
            lam = float(rng.uniform(0.5, 2.0))
            x = rng.uniform(-0.5, 0.5, group.n) * 1.0
            dilated = [dilated_bump(f, lam) for f in fs]
            left = multilinear_fractional_integral(
                group, dilated, tau, x, scheme, op_id=f"acc3/{label}/l{i}"
            )
            right = multilinear_fractional_integral(
                group, fs, tau, group.dilate(lam, x), scheme, op_id=f"acc3/{label}/r{i}"
            )
            target = lam**-tau * right.value
            combined = math.hypot(left.std_error, lam**-tau * right.std_error)
            z = abs(left.value - target) / max(combined, 1e-300)
            worst = max(worst, z)
            assert z <= 3.0, f"{label} pair {i}: z = {z:.2f}"
            checks += 1

    scheme_e = QuadratureScheme(kind="annuli", samples=60000, levels=20, seed=SEED)
    f1 = GaugeBump(E1, [0.4], 0.9)
    f2 = GaugeBump(E1, [-0.3], 1.1)
    run_config(E1, [f1, f2], 1.0, scheme_e, "e1", 10)

    scheme_h = QuadratureScheme(kind="annuli", samples=60000, levels=20, seed=SEED)
    g1 = GaugeBump(H1, [0.1, -0.1, 0.05], 1.0)
    run_config(H1, [g1], 2.0, scheme_h, "h1", 10)

    assert checks == 20
    _report(3, time.time() - start, 300, f"20 (lambda, x) pairs, worst z = {worst:.2f} (<= 3)")


# -- criterion 4: Poincare sweep ----------------------------------------------------


def _acc4_trial(group, system, i, samples):
    rng = stream(SEED, f"acc4/{group.ident}/{system.k}/{system.q}/{i}")
    center = rng.uniform(-0.3, 0.3, group.n)
    radius = float(np.exp(rng.uniform(np.log(0.7), np.log(1.4))))
    ball = GaugeBall(center, radius)
    fs = []
    for _ in range(system.m):
        off = rng.uniform(-0.3, 0.3, group.n) * radius
        c = group.compose(center, off)
        r = float(np.exp(rng.uniform(np.log(0.8 * radius), np.log(1.6 * radius))))
        fs.append(GaugeBump(group, c, r, float(rng.uniform(0.5, 2.0))))
    w1 = Weight.one(group)
    scheme = QuadratureScheme(samples=samples, seed=SEED)
    return poincare_test(
        group, fs, w1, [w1] * system.m, system, ball, scheme,
        weight_verdict="finite-at-sampled-scales", op_id=f"acc4/{group.ident}/{i}",
    )


def test_criterion_4_poincare_sweep():
    start = time.time()
    # critical and (near-)subcritical systems per (group, k); all must pass
    # validation and report a finite weight condition at sampled scales
    configs = [
        (E1, ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 2.0, 1)),
        (E1, ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 1.9, 1)),
        (E1, ExponentSystem(2, (1.02, 1.02), 25.0, 2)),
        (E1, ExponentSystem(2, (1.01, 1.01), 20.0, 2)),
        (H1, ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 0.8, 1)),
        (H1, ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 0.79, 1)),
        (H1, ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 1.0, 2)),
        (H1, ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 0.98, 2)),
    ]
    trials_per = 13
    check_scheme = QuadratureScheme(samples=2048, seed=SEED)
    max_ratio = {4096: 0.0, 8192: 0.0}
    total = 0
    flags = []
    newton_notes = set()
    for group, system in configs:
        validate_exponents(system, group)
        check = check_weight_condition(group, Weight.one(group), [Weight.one(group)] * 2,
                                       system, check_scheme)
        assert check["verdict"] == "finite-at-sampled-scales", (group.ident, system)
        for i in range(trials_per):
            for samples in (4096, 8192):
                report = _acc4_trial(group, system, i, samples)
                assert math.isfinite(report.ratio)
                flags.extend(report.flags)
                if system.q > 1.0 and system.q != 2.0:
                    newton_notes.add(report.lhs.note)
                max_ratio[samples] = max(max_ratio[samples], report.ratio)
            total += 1
    assert total == len(configs) * trials_per and total >= 100
    assert not flags, f"unexpected flags: {flags}"
    assert newton_notes == {"newton-certified"}
    change = abs(max_ratio[4096] - max_ratio[8192]) / max_ratio[4096]
    assert change < 0.10
    _report(
        4,
        time.time() - start,
        900,
        f"{total} trials, max ratio {max_ratio[4096]:.4f}, "
        f"doubling change {change * 100:.2f}% (< 10%), 0 violation flags",
    )


# -- criterion 5: weight-condition exponent logic -------------------------------------


def test_criterion_5_weight_condition_logic():
    start = time.time()
    scheme = QuadratureScheme(samples=2048, seed=SEED)

    # constant weights give ball_term = r^(k + Q(1/q - 1/p)) exactly
    sys0 = ExponentSystem(2, (2.0, 2.0), 1.0, 1)
    expo = scaling_exponent(sys0, E1)
    w = Weight.one(E1)
    for r in (0.25, 1.0, 3.0):
        (term,) = ball_term(E1, w, [w, w], sys0, GaugeBall([0.3], r), scheme, (2.0,))
        assert term.value == pytest.approx(r**expo, rel=1e-10)

    # six canonical configurations: 3 positive, 3 negative exponents
    canonical = [
        (E1, ExponentSystem(1, (2.0,), 2.0, 1)),          # E = +1
        (E2, ExponentSystem(1, (2.0,), 2.0, 1)),          # E = +1
        (H1, ExponentSystem(1, (2.0,), 2.0, 2)),          # E = +2
        (E2, ExponentSystem(1, (4.0 / 3.0,), 8.0, 1)),    # E = -0.25
        (E3, ExponentSystem(1, (1.5,), 12.0, 1)),         # E = -0.75
        (H1, ExponentSystem(1, (4.0 / 3.0,), 8.0, 1)),    # E = -1.5
    ]
    lines = []
    for group, system in canonical:
        expo = scaling_exponent(system, group)
        sampler = BallSampler(dim=group.n, count=16)
        report = weight_condition_sup(
            group, Weight.one(group), [Weight.one(group)], system, sampler, scheme,
            t_grid=(1.5,),
        )
        row = report.per_t[0]
        expected = "diverges-large-r" if expo > 0 else "diverges-small-r"
        assert row["verdict"] == expected, (group.ident, expo, row)
        assert abs(row["slope"] - expo) <= 0.05 * abs(expo)
        lines.append(f"{expo:+.2f}->{row['verdict'].split('-')[1]}")
    _report(5, time.time() - start, 120, "exact r-power; verdicts " + ", ".join(lines))


# -- criterion 6: best_polynomial oracle equivalence ----------------------------------


def test_criterion_6_best_polynomial_brute_force():
    # the solver against the exact optimum on the same nodes (normal
    # equations for q = 2, the dual LP for q = 1)
    start = time.time()
    w1 = Weight.one(E1)
    rng = stream(SEED, "acc6")
    worst = 0.0
    cases = 0
    for q in (1.0, 2.0):
        for case in range(10):
            k = 1 + case % 2
            ball = GaugeBall([float(rng.uniform(-1, 1))], float(rng.uniform(0.5, 1.5)))
            bump = random_bump(E1, rng, center_box=1.0, radius_range=(0.5, 2.0))
            scheme = QuadratureScheme(samples=2000, seed=SEED)
            op_id = f"acc6/{q}/{case}"
            _, value = best_polynomial(E1, bump, w1, q, ball, k, scheme, op_id=op_id)
            exact = exact_best_value(E1, bump, w1, q, ball, k, scheme, op_id)
            rel = abs(value.value - exact) / max(exact, 1e-9)
            worst = max(worst, rel)
            assert rel <= 1e-3, f"case q={q} #{case}: rel error {rel:.2e}"
            cases += 1
    assert cases == 20
    _report(6, time.time() - start, 60, f"20 cases, worst relative gap {worst:.2e} (<= 1e-3)")


# -- criterion 7: representation bound -------------------------------------------------


def test_criterion_7_representation_bound():
    start = time.time()
    ball = GaugeBall([0.0], 1.0)
    max_ratios = {}
    for samples in (4096, 8192):
        scheme = QuadratureScheme(samples=samples, seed=SEED)
        overall = 0.0
        for pair in range(10):
            rng = stream(SEED, f"acc7/{pair}")
            fs = [
                random_bump(E1, rng, center_box=0.4, radius_range=(0.8, 1.6))
                for _ in range(2)
            ]
            records, summary = representation_check(
                E1, fs, ball, 2, 50, scheme, op_id=f"acc7/{pair}"
            )
            assert all(math.isfinite(rec["ratio"]) or rec["lhs"] == 0.0 for rec in records)
            assert math.isfinite(summary["max_ratio"])
            overall = max(overall, summary["max_ratio"])
        max_ratios[samples] = overall
    change = abs(max_ratios[4096] - max_ratios[8192]) / max_ratios[4096]
    assert change < 0.10
    _report(
        7,
        time.time() - start,
        600,
        f"10 pairs x 50 points, max ratio {max_ratios[4096]:.4f}, "
        f"doubling change {change * 100:.2f}%",
    )


# -- criterion 8: Leibniz test ----------------------------------------------------------


def test_criterion_8_leibniz():
    start = time.time()
    system = ExponentSystem(2, (2.0, 2.0), 1.0, 2)
    w1 = Weight.one(E1)
    sampler = BallSampler(dim=1, count=12, r_min=0.25, r_max=4.0)
    scheme = QuadratureScheme(samples=1024, seed=SEED)
    ratios = []
    for i in range(50):
        rng = stream(SEED, f"acc8/{i}")
        f = random_bump(E1, rng)
        g = random_bump(E1, rng)
        report = leibniz_test(
            E1, f, g, w1, w1, w1, system, 1.0, 1.0, 1.0, sampler, scheme,
            op_id=f"acc8/{i}",
        )
        assert math.isfinite(report.ratio)
        ratios.append(report.ratio)

    # fg a polynomial of degree < k: lhs = 0 to optimizer tolerance
    fp = HomogeneousPolynomial(E1, {(0,): 1.0, (1,): 0.5})
    gp = HomogeneousPolynomial(E1, {(0,): 2.0})
    zero_report = leibniz_test(
        E1, fp, gp, w1, w1, w1, system, 1.0, 1.0, 1.0, sampler, scheme, op_id="acc8/zero"
    )
    assert zero_report.lhs.value <= 1e-8
    _report(
        8,
        time.time() - start,
        600,
        f"50 configs, max ratio {max(ratios):.4f}, polynomial lhs "
        f"{zero_report.lhs.value:.2e} (<= 1e-8)",
    )


# -- criterion 9: determinism -------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "samples": 1024}))
    outs = []
    for name, threads in (("a", "1"), ("b", "7"), ("c", "1")):
        out = tmp_path / name
        code = cli_main(
            ["poincare", "--config", str(cfg), "--out", str(out), "--seed", str(SEED),
             "--threads", threads]
        )
        assert code == 0
        outs.append(out)
    payloads = []
    for out in outs:
        data = json.loads((out / "poincare.json").read_text())
        data.pop("meta")  # timestamp lives here, excluded by the criterion
        payloads.append(json.dumps(data, sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]
    csvs = [(out / "poincare.csv").read_bytes() for out in outs]
    assert csvs[0] == csvs[1] == csvs[2]
    _report(
        9,
        time.time() - start,
        120,
        "byte-identical JSON (ex. timestamp) and CSV across reruns and thread counts",
    )

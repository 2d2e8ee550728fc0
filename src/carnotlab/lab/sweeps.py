"""Randomized trial sweeps over (function tuple, ball) configurations.

Each trial derives its own stream from (master seed, trial index), so
sweeps are reproducible and individual trials can be re-run in isolation.
The sweep maximum ratio is the empirical inequality constant for the
sampled configurations.
"""

from __future__ import annotations

import math

import numpy as np

from ..carnot.functions import random_bump
from ..carnot.group import GaugeBall
from ..errors import ConditioningError, IntegrationError
from ..rng import stream
from ..weights import BallSampler, weight_condition_sup
from .inequalities import (
    poincare_test,
    representation_check,
    sobolev_sublaplacian_test,
    sobolev_test,
)
from .spaces import leibniz_test


def _random_trial_ball(rng, group):
    """Center uniform in [-0.5, 0.5]^n, radius log-uniform in [0.5, 2]."""
    center = rng.uniform(-0.5, 0.5, size=group.n)
    radius = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return GaugeBall(center, radius)


def check_weight_condition(group, u, vs, system, scheme):
    """One verdict for the sweep's weight configuration (existential in t),
    from 24 balls with radii in [1/4, 4] on the default t grid."""
    sampler = BallSampler(dim=group.n, center_box=1.0, r_min=0.25, r_max=4.0, count=24)
    report = weight_condition_sup(group, u, vs, system, sampler, scheme)
    verdicts = report.verdicts()
    finite = [row["t"] for row, v in zip(report.per_t, verdicts) if v == "finite-at-sampled-scales"]
    return {
        "verdict": "finite-at-sampled-scales" if finite else verdicts[0],
        "witness_t": finite[0] if finite else None,
        "exponent": report.exponent,
    }


def _run_trials(trials, run):
    """[run(i) for i < trials]; a numerical error raised by trial i leaves
    with `exc.trial = i`, so a partial report can name it."""
    reports = []
    for i in range(trials):
        try:
            reports.append(run(i))
        except (IntegrationError, ConditioningError) as exc:
            exc.trial = i
            raise
    return reports


def poincare_sweep(group, system, u, vs, scheme, *, trials=100, seed=0, weight_check=None):
    """Randomized (f_vec, B) trials of the local inequality."""
    if weight_check is None:
        weight_check = check_weight_condition(group, u, vs, system, scheme)

    def trial(i):
        rng = stream(seed, f"poincare-sweep/{i}")
        fs = [random_bump(group, rng) for _ in range(system.m)]
        ball = _random_trial_ball(rng, group)
        return poincare_test(
            group,
            fs,
            u,
            vs,
            system,
            ball,
            scheme,
            weight_verdict=weight_check["verdict"],
            op_id=f"poincare-sweep/{i}",
        )

    return _run_trials(trials, trial)


def sobolev_sweep(group, system, u, vs, scheme, *, trials=50, seed=0, weight_check=None, sublaplacian=False):
    """Randomized compactly supported tuples for the global inequality."""
    if weight_check is None:
        weight_check = check_weight_condition(group, u, vs, system, scheme)
    test = sobolev_sublaplacian_test if sublaplacian else sobolev_test

    def trial(i):
        rng = stream(seed, f"sobolev-sweep/{i}")
        fs = [random_bump(group, rng) for _ in range(system.m)]
        return test(
            group,
            fs,
            u,
            vs,
            system,
            scheme,
            weight_verdict=weight_check["verdict"],
            op_id=f"sobolev-sweep/{i}",
        )

    return _run_trials(trials, trial)


def repformula_sweep(group, k, m, scheme, *, pairs=10, points=50, seed=0, ball=None):
    """Pointwise representation-bound ratios over random function tuples."""
    ball = ball if ball is not None else GaugeBall(group.identity(), 1.0)

    def pair(i):
        rng = stream(seed, f"repformula-sweep/{i}")
        fs = [
            random_bump(group, rng, center_box=0.4, radius_range=(0.8, 1.6))
            for _ in range(m)
        ]
        records, summary = representation_check(
            group, fs, ball, k, points, scheme, op_id=f"repformula-sweep/{i}"
        )
        summary["pair"] = i
        return records, summary

    results = _run_trials(pairs, pair)
    return [r for r, _ in results], [s for _, s in results]


def leibniz_sweep(
    group, system, u, v1, v2, lam, lam1, lam2, sampler, scheme, *, configs=50, seed=0
):
    """Randomized bilinear Campanato-Morrey Leibniz trials."""

    def config(i):
        rng = stream(seed, f"leibniz-sweep/{i}")
        f = random_bump(group, rng)
        g = random_bump(group, rng)
        return leibniz_test(
            group, f, g, u, v1, v2, system, lam, lam1, lam2, sampler, scheme,
            op_id=f"leibniz-sweep/{i}",
        )

    return _run_trials(configs, config)


def sweep_summary(reports):
    ratios = [r.ratio for r in reports if np.isfinite(r.ratio)]
    flags = [flag for r in reports for flag in r.flags]
    return {
        "trials": len(reports),
        "max_ratio": max(ratios) if ratios else float("nan"),
        "mean_ratio": float(np.mean(ratios)) if ratios else float("nan"),
        "finite_ratios": len(ratios),
        "flags": flags,
    }

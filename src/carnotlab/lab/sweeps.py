"""Randomized trial sweeps over (function tuple, ball) configurations.

Each trial derives its own stream from (master seed, trial index), so
sweeps are reproducible and individual trials can be re-run in isolation.
The sweep maximum ratio is the empirical inequality constant for the
sampled configurations.
"""

from __future__ import annotations

import math

import numpy as np

from ..carnot.functions import GaugeBump, random_bump
from ..carnot.group import GaugeBall
from ..errors import ConditioningError, DomainError, IntegrationError
from ..quad import sample_ball
from ..rng import stream
from ..weights import VERDICT_FINITE, BallSampler, weight_condition_sup
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
    from 24 balls with radii in [1/4, 4] on the default t grid, with the
    number of (ball, t) terms that overflowed or were otherwise flagged."""
    sampler = BallSampler(dim=group.n, center_box=1.0, r_min=0.25, r_max=4.0, count=24)
    report = weight_condition_sup(group, u, vs, system, sampler, scheme)
    verdicts = report.verdicts()
    finite = [row["t"] for row, v in zip(report.per_t, verdicts) if v == VERDICT_FINITE]
    return {
        "verdict": VERDICT_FINITE if finite else verdicts[0],
        "witness_t": finite[0] if finite else None,
        "exponent": report.exponent,
        "flagged_count": report.flagged_count,
    }


def _run_trials(name, count, seed, trial):
    """[trial(rng, op_id) for the trial indices i < count], where trial i
    draws from stream(seed, op_id) with op_id = f"{name}-sweep/{i}".  A
    numerical error raised by trial i leaves with `exc.trial = i`, so a
    partial report can name it."""
    if count < 0:
        raise DomainError(f"a {name} sweep needs a count >= 0, got {count}")
    reports = []
    for i in range(count):
        op_id = f"{name}-sweep/{i}"
        try:
            reports.append(trial(stream(seed, op_id), op_id))
        except (IntegrationError, ConditioningError) as exc:
            exc.trial = i
            raise
    return reports


def poincare_sweep(group, system, u, vs, scheme, *, trials=100, seed=0, weight_verdict=None):
    """Randomized (f_vec, B) trials of the local inequality."""

    def trial(rng, op_id):
        fs = [random_bump(group, rng) for _ in range(system.m)]
        ball = _random_trial_ball(rng, group)
        return poincare_test(
            group, fs, u, vs, system, ball, scheme, weight_verdict=weight_verdict, op_id=op_id
        )

    return _run_trials("poincare", trials, seed, trial)


def sobolev_sweep(
    group, system, u, vs, scheme, *, trials=50, seed=0, weight_verdict=None, sublaplacian=False
):
    """Randomized compactly supported tuples for the global inequality."""
    test = sobolev_sublaplacian_test if sublaplacian else sobolev_test

    def trial(rng, op_id):
        fs = [random_bump(group, rng) for _ in range(system.m)]
        return test(group, fs, u, vs, system, scheme, weight_verdict=weight_verdict, op_id=op_id)

    return _run_trials("sobolev", trials, seed, trial)


def repformula_sweep(group, k, m, scheme, *, pairs=10, points=50, seed=0, ball=None):
    """Pointwise representation-bound ratios over random function tuples."""
    ball = ball if ball is not None else GaugeBall(group.identity(), 1.0)

    def pair(rng, op_id):
        fs = [random_bump(group, rng, center_box=0.4, radius_range=(0.8, 1.6)) for _ in range(m)]
        return representation_check(group, fs, ball, k, points, scheme, op_id=op_id)

    results = _run_trials("repformula", pairs, seed, pair)
    for i, (_, summary) in enumerate(results):
        summary["pair"] = i
    return [r for r, _ in results], [s for _, s in results]


def leibniz_sweep(
    group, system, u, v1, v2, lam, lam1, lam2, sampler, scheme, *, configs=50, seed=0
):
    """Randomized bilinear Campanato-Morrey Leibniz trials.

    f and g are random bumps whose product is not identically 0: g keeps
    the radius and height `random_bump` draws, and its centre is drawn
    uniformly in the ball about f's centre of half f's radius, all from
    the trial's stream.  There u < (1/2)^(2s!) <= 1/4, so f is at least
    its height times e^(-1/3) at g's centre."""

    def config(rng, op_id):
        f, g = random_bump(group, rng), random_bump(group, rng)
        core = GaugeBall(f.support.center, 0.5 * f.support.radius)
        centre = sample_ball(group, core, 1, rng)[0]
        g = GaugeBump(group, centre, g.support.radius, g.height)
        return leibniz_test(
            group, f, g, u, v1, v2, system, lam, lam1, lam2, sampler, scheme, op_id=op_id
        )

    return _run_trials("leibniz", configs, seed, config)


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

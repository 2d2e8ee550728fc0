"""Weighted Morrey and Campanato norms and the Leibniz-rule experiment.

Both norms are one sup over sampled balls (drawn under f"{op_id}-balls",
ball b estimated under f"{op_id}/b{b}") of estimates scaled by
|B|^(-lambda/(dim p)), and return (sup, per-ball details).  A sampled sup
is a lower estimate of the true sup.  dim is the ambient n as written, or
the homogeneous dimension Q for exploration.  Each norm takes all its balls
in one call on the ball list (`lp_norm_ball` for Morrey, `best_polynomial`
for Campanato), which samples them together and evaluates the integrand
and the weight once on the nodes of all of them; each ball's value equals
its one-ball call.  A Morrey integrand may return A rows: each ball then
takes all A norms from one node set, and each row of the sup equals the
single-row call with the same op_id bit for bit.  A ball whose box misses
the function's declared support draws no nodes and contributes an exact
0 (a Campanato ball fits the zero polynomial); for the Leibniz lhs the
product's support box is the intersection of the boxes of f's and g's.
Campanato passes each ball's scale to `best_polynomial` (`sup_scales`),
so at q >= 1 only the balls that can attain the sup are solved: the ball
of largest scaled start value first, then every ball whose scaled start
value, times 1 + 1e-9, still reaches the largest scaled value solved so
far.  Every other ball reports its start, an upper bound below the sup,
noted "upper-bound-pruned"; the sup and its ball are those of solving
every ball, bit for bit.  `leibniz_test`'s three norms share each ball's
nodes through the unit node sets of one `quad.UnitNodeBalls` list.
"""

from __future__ import annotations

from dataclasses import replace

from ..carnot.constants import ball_volume
from ..carnot.functions import ProductFunction
from ..errors import DomainError, HypothesisError, ValidationError
from ..operators import tuple_rhs
from ..quad import Estimate, UnitNodeBalls, lp_norm_ball
from .bestpoly import best_polynomial
from .reports import trial_config, trial_report

_SUP_NOTE = "sup over sampled balls: lower estimate at sampled scales"


def _norm_dimension(group, normalization):
    if normalization == "ambient":
        return group.n
    if normalization == "homogeneous":
        return group.homogeneous_dimension
    raise DomainError(f"unknown normalization {normalization!r}")


def _sup_over_balls(group, p, lam, sampler, scheme, normalization, op_id, estimate):
    """Per-row sup of |B|^(-lam/(dim p)) * estimate over the balls that
    `sampler` draws under f"{op_id}-balls".

    `estimate(balls, op_id, scales)` returns one output per ball, ball b
    estimated under f"{op_id}/b{b}" and scaled into the sup by scales[b]:
    an Estimate, or a list of A Estimates (rows).  Returns the sup (same
    shape) and per-ball details, whose "value" and "note" (the ball's own,
    e.g. its solver's) are a float and a string or lists of A of them.
    """
    dim = _norm_dimension(group, normalization)
    balls = sampler.generate(scheme.seed, label=f"{op_id}-balls")
    scales = [ball_volume(group, ball.radius) ** (-lam / (dim * p)) for ball in balls]
    best = None
    details = []
    for ball, scale, out in zip(balls, scales, estimate(balls, op_id, scales)):
        rows = isinstance(out, list)
        ests = [e.scaled(scale) for e in (out if rows else [out])]
        values, notes = [e.value for e in ests], [e.note for e in ests]
        details.append(
            {"radius": ball.radius, "center": ball.center.tolist(),
             "value": values if rows else values[0], "note": notes if rows else notes[0]}
        )
        best = ests if best is None else [e if e.value > b.value else b for e, b in zip(ests, best)]
    best = [replace(e, note=_SUP_NOTE) for e in best]
    return (best if rows else best[0]), details


def morrey_norm(group, f, w, p, lam, sampler, scheme, *, normalization="ambient", op_id="morrey"):
    """sup_B (|B|^(-lambda/n) int_B (|f| w)^p)^(1/p) over sampled balls.

    Returns (sup, details).  One `lp_norm_ball` call takes every ball.  If
    `f` returns A rows, the sup is a list of A Estimates, all taken per ball
    from one node set.
    """
    if not (p > 0 and lam > 0):
        raise DomainError("Morrey norms need p > 0 and lambda > 0")

    def norms(balls, norm_id, scales):
        outs = lp_norm_ball(group, f, w, p, balls, scheme, op_id=norm_id)
        return [out if isinstance(out, Estimate) else out[0] for out in outs]

    return _sup_over_balls(group, p, lam, sampler, scheme, normalization, op_id, norms)


def campanato_norm(
    group, f, w, p, lam, k, sampler, scheme, *, normalization="ambient", op_id="campanato"
):
    """Like Morrey but measuring the best-polynomial distance of degree < k.

    Returns (sup, details).
    """
    if not (p > 0 and lam > 0):
        raise DomainError("Campanato norms need p > 0 and lambda > 0")
    if k < 1:
        raise DomainError("Campanato order k must be >= 1")

    def distances(balls, norm_id, scales):
        fits = best_polynomial(group, f, w, p, balls, k, scheme, op_id=norm_id, sup_scales=scales)
        return [est for _, est in fits]

    return _sup_over_balls(group, p, lam, sampler, scheme, normalization, op_id, distances)


def leibniz_test(
    group, f, g, u, v1, v2, system, lam, lam1, lam2, sampler, scheme, *, op_id="leibniz"
):
    """Campanato norm of fg against sums of Morrey-norm products.

    The lhs Campanato norm and both slots' Morrey norms are sups over one
    ball list, drawn once under f"{op_id}-balls", on one node set per ball
    (common random numbers): the list (`quad.UnitNodeBalls`) carries ball
    b's unit node set, drawn under f"{op_id}/b{b}" when a norm first needs
    the ball live, and each norm maps it onto the ball.  So a ball live for
    f or for g is sampled once and a ball dead for both never, and each
    norm equals its own call with this op_id and ball list bit for bit.
    The lhs's per-ball details, with each ball's note (its solver's, or
    "upper-bound-pruned"), are the report's `lhs_per_ball`.  The rhs comes
    from `tuple_rhs`, the builder of every inequality's rhs, with Morrey
    sups as the slot norms: each slot makes one Morrey call whose rows are
    the slot's distinct derivative keys, so the slot's jets are evaluated
    once, on the nodes of all its balls; each term is a product of those
    memoised sups.  The slots share their nodes, so a term's standard error
    is the first-order bound M_g sigma_f + M_f sigma_g, and the rhs's the
    sum of the terms' errors, upper bounds under any correlation; the rhs
    `samples` counts each shared node once, so it is N.  Balls are
    normalized by the ambient dimension n.

    Requires q > 0 and each p_i > 0 (every violation listed in one
    ValidationError), the scaling relation lambda/q = lambda_1/p_1 +
    lambda_2/p_2 and k <= 2Q.
    """
    if system.m != 2 or len(system.p_list) != 2:
        raise ValidationError(["the Leibniz experiment is bilinear: m = 2, two p_list entries"])
    violations = [f"q = {system.q} must be positive"] if not system.q > 0.0 else []
    violations += [
        f"p_{i + 1} = {p} must be positive" for i, p in enumerate(system.p_list) if not p > 0.0
    ]
    if violations:
        raise ValidationError(violations)
    k = system.k
    p1, p2 = system.p_list
    relation = lam / system.q - (lam1 / p1 + lam2 / p2)
    if abs(relation) > 1e-12:
        raise ValidationError(
            [f"scaling relation lambda/q = lambda1/p1 + lambda2/p2 violated by {relation:g}"]
        )
    if k > 2 * group.homogeneous_dimension:
        raise HypothesisError(f"needs k <= 2Q = {2 * group.homogeneous_dimension}, got k = {k}")
    product = ProductFunction(group, [f, g])
    slots = ((v1, p1, lam1), (v2, p2, lam2))
    drawn = sampler.generate(scheme.seed, label=f"{op_id}-balls")
    balls = UnitNodeBalls(group, drawn, scheme, op_id)

    def sups(i, rows):
        v, p, lam_i = slots[i]
        ests, _ = morrey_norm(group, rows, v, p, lam_i, balls, scheme, op_id=op_id)
        return ests, None

    lhs, lhs_balls = campanato_norm(group, product, u, system.q, lam, k, balls, scheme, op_id=op_id)
    rhs, breakdown = tuple_rhs(group, [f, g], [p1, p2], k, sups, scheme.seed)
    config = trial_config(
        group,
        system,
        u,
        [v1, v2],
        scheme,
        kind="leibniz",
        k=k,
        lambdas={"lhs": lam, "f": lam1, "g": lam2},
        sampler=sampler.to_dict(),
        normalization="ambient",
    )
    return replace(trial_report(lhs, rhs, config, breakdown), lhs_per_ball=lhs_balls)

"""Exact covariance of the ball estimators under common random numbers.

A ball's uniform nodes are c o delta_r(V), where V, the unit-ball nodes of
the ball's stream, does not depend on (c, r) (`quad.sample_ball`).  So a
left translation by g of the functions and the ball, or a dilation by lam,
moves every node exactly, and an estimator returns the same value, or
lam^(Q/q) times it for an L^q quantity, up to rounding.  These tests allow
1e-12 relative, where the standard-error tests elsewhere allow noise.

Left out, because their values move by more than rounding: fits at q < 1
(the path of Nelder-Mead), Newton fits at 1 < q != 2 (they stop anywhere
within their certified gap), jets of order 3 (finite differences) and the
annuli scheme (its shells are cut to coordinate boxes).
"""

import numpy as np
import pytest

from carnotlab.carnot import GaugeBall, GaugeBump, ProductFunction
from carnotlab.lab import best_polynomial
from carnotlab.quad import QuadratureScheme, lp_norm_ball
from carnotlab.weights import Weight

G = (0.6, -0.4, 0.3)  # the translation, cut to the group's dimension
LAM = 1.7
SCHEME = QuadratureScheme(samples=4096, seed=37)
BUMPS = (((0.1, 0.0, 0.1), 0.8, 1.3), ((-0.1, -0.3, 0.0), 0.9, 0.7))  # (center, radius, height)
BALL = ((0.1, -0.2, 0.05), 1.0)


def _setting(group, move):
    """The product of the two bumps and the ball, every (center, radius)
    carried by `move`."""
    fs = [GaugeBump(group, *move(np.array(c[: group.n]), r), h) for c, r, h in BUMPS]
    return ProductFunction(group, fs), GaugeBall(*move(np.array(BALL[0][: group.n]), BALL[1]))


def _norm(group, F, ball, q):
    return lp_norm_ball(group, F, Weight.one(group), q, ball, SCHEME).value


def _fit(group, F, ball, q):
    return best_polynomial(group, F, Weight.one(group), q, ball, 2, SCHEME)[1].value


@pytest.mark.parametrize("gid", ["e1", "h1"])
@pytest.mark.parametrize("transform", ["translation", "dilation"])
@pytest.mark.parametrize(
    "estimator, q", [(_norm, 2.0), (_fit, 2.0), (_fit, 1.0)], ids=["lp-norm", "fit-q2", "fit-q1"]
)
def test_ball_estimator_is_covariant_to_rounding(gid, transform, estimator, q, request):
    group = request.getfixturevalue(gid)
    if transform == "translation":
        g = np.array(G[: group.n])
        move, factor = (lambda c, r: (group.compose(g, c), r)), 1.0
    else:
        move = lambda c, r: (group.dilate(LAM, c), LAM * r)
        factor = LAM ** (group.homogeneous_dimension / q)
    base = estimator(group, *_setting(group, lambda c, r: (c, r)), q)
    moved = estimator(group, *_setting(group, move), q)
    assert base > 0.0
    assert abs(moved / factor - base) <= 1e-12 * base

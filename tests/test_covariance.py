"""Exact covariance of the ball estimators under common random numbers.

A ball's uniform nodes are c o delta_r(V), where V, the unit-ball nodes of
the ball's stream, does not depend on (c, r) (`quad.sample_ball`).  So a
left translation by g of the functions and the ball, or a dilation by lam,
moves every node exactly, and an estimator returns the same value, or
lam^(Q/q) times it for an L^q quantity, up to rounding.  These tests allow
1e-12 relative, where the standard-error tests elsewhere allow noise.

The Leibniz rule's sups move too when their ball list is translated with
f and g: the list is handed over explicitly, since `BallSampler` draws its
centres in a fixed coordinate box.

Left out, because their values move by more than rounding, each with the
ROADMAP item that mends it:
* fits at q < 1, which follow the path of Nelder-Mead (item 5);
* Newton fits at 1 < q != 2, which stop anywhere within their certified
  1e-9 gap: a q = 1.5 Campanato sup on H^1 moved by 2.9e-12 under left
  translation (item 7);
* jets of order 3, by finite differences (item 6);
* the annuli scheme, whose shells are cut to coordinate boxes (item 8).
"""

import numpy as np
import pytest

from bruteforce_helpers import ListedBalls
from carnotlab.carnot import GaugeBall, GaugeBump, ProductFunction
from carnotlab.lab import best_polynomial, leibniz_test
from carnotlab.quad import QuadratureScheme, lp_norm_ball
from carnotlab.weights import ExponentSystem, Weight

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


# (center, radius): balls that cover, cut and miss the bumps' supports
LEIBNIZ_BALLS = (
    ((0.0, -0.1, 0.05), 0.3), ((0.2, 0.1, -0.1), 0.6), ((-0.3, -0.2, 0.0), 1.1),
    ((0.5, 0.4, 0.2), 0.5), ((0.1, -0.2, 0.0), 2.5), ((2.5, 2.0, 0.0), 0.4),
)


def test_leibniz_is_left_translation_covariant_to_rounding(h1):
    # H^1, k = 2, q = 1: translating f, g and the ball list moves every node
    # of the lhs and of both Morrey slots exactly
    g = np.array(G)
    one = Weight.one(h1)
    system = ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=2)

    def report(move):
        f, h = (GaugeBump(h1, *move(np.array(c), r), height) for c, r, height in BUMPS)
        balls = ListedBalls(GaugeBall(*move(np.array(c), r)) for c, r in LEIBNIZ_BALLS)
        return leibniz_test(h1, f, h, one, one, one, system, 1.0, 1.0, 1.0, balls, SCHEME)

    base = report(lambda c, r: (c, r))
    moved = report(lambda c, r: (h1.compose(g, c), r))
    pairs = [(base.lhs.value, moved.lhs.value), (base.rhs.value, moved.rhs.value),
             (base.ratio, moved.ratio)]
    for b, m in pairs:
        assert b > 0.0
        assert abs(m - b) <= 1e-12 * b

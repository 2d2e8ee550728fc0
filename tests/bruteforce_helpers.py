"""Test-only oracles shared by the unit tests and the acceptance suite:

* `exact_best_value`: the best-polynomial value on the same quadrature
  nodes the solver uses, solved exactly: normal equations for q = 2 and the
  dual linear program for q = 1 (`exact_l1_value`, on the (A, y, w) that
  `best_value_system` builds).
* `holder_lower_bound`: for q > 1, a lower bound on that value from the
  residuals of any candidate polynomial, by Hoelder's inequality;
  `newton_dual_lower_bound` builds its dual point from a Newton step.
* `dilated_bump`: x -> f(delta_lam x) for a gauge bump f, in closed form.
* `gauge_bump_jets_longdouble`: a gauge bump's value, gradient and Hessian
  in np.longdouble, from the group's forms and the closed-form derivatives
  of the layered gauge; `horizontal_jets_longdouble` contracts them with
  the generator coefficients to [f, X_a f, X_a X_b f].
* `mc_ball_volume`: an independent Monte Carlo ball volume by box rejection.
* `radial_bump_integral`: int f(y) d(c, y)^(tau - Q) dy for a gauge bump f
  centred at c, by the polar decomposition of Haar measure and a 1-D
  Gauss-Legendre rule.
* `quadrature_nodes`: the uniform nodes a scheme draws on one ball.
* `poly_eval_by_powers` and `vandermonde_by_powers`: monomials by one array
  power per term and coordinate, the reference for the power-table kernels.
* `three_piece_nodes` and `all_lines_brute_force`: the counterexample's
  node set built independently, and the least sum_i w_i |f_i - a x_i - b|^q
  over the lines through every pair of its nodes.
* `gauss_second_derivative_lp`: the counterexample's R(eps) on a Gauss
  rule over [-eps, eps], and `mpmath_ramp_integrals`: R(eps) and, for
  q in {1, 2}, L(eps) with its offset b, by 30-digit mpmath quadrature.
* `support_mix`: balls that miss, touch, graze, cut and cover the boxes of
  a bump's and a product's supports, on the groups of `DEAD_BALL_GROUPS`;
  `Spiky` is a bump with NaN on part of its support.
* `ListedBalls`: a ball sampler that hands out one given ball list.
"""

import math

import numpy as np
from scipy.optimize import linprog

from carnotlab.carnot import (
    GaugeBall,
    GaugeBump,
    ProductFunction,
    euclidean_group,
    heisenberg_group,
    monomial_basis,
    step_two_group,
    vandermonde,
)
from carnotlab.carnot.constants import ball_volume
from carnotlab.carnot.group import centered_box_extents
from carnotlab.errors import DomainError
from carnotlab.quad import Estimate, sample_ball
from carnotlab.rng import stream


def quadrature_nodes(group, ball, scheme, op_id):
    """Uniform MC nodes on a ball for a given scheme; reproducible by op_id."""
    scheme.validate()
    rng = stream(scheme.seed, op_id)
    return sample_ball(group, ball, scheme.samples, rng)


def dilated_bump(bump, lam):
    """x -> bump(delta_lam x): by homogeneity of the gauge, the bump of the
    same height on B(delta_{1/lam} c, R / lam)."""
    group, ball = bump.group, bump.support
    return GaugeBump(group, group.dilate(1.0 / lam, ball.center), ball.radius / lam, bump.height)


def gauge_bump_jets_longdouble(group, bump, pts):
    """[value, gradient, Hessian] of a gauge bump at pts in np.longdouble.

    w = c^-1 o y = M y - c, M = [[I, 0], [T, I]] with T[j, b] the
    (1/2) (-c^(1) . B_j)_b of the forms; u0(w) = sum_i S_i^m_i, S_i =
    |w^(i)|^2 and m_i = s!/i, differentiated by hand per layer; u = u0 / r^(2s!)
    for the radius r, and f = height exp(-u/(1-u)) inside the ball, 0 outside."""
    ld = np.longdouble
    n, n1 = group.n, group.n1
    c, h = bump.support.center.astype(ld), ld(bump.height)
    scale = ld(1) / ld(bump.support.radius) ** group.gauge_order
    M = np.eye(n, dtype=ld)
    if group.n2:
        M[n1:, :n1] = np.einsum("a,jab->jb", -c[:n1], group.forms.astype(ld) / 2)
    y = np.asarray(pts, dtype=ld)
    w = y @ M.T - c
    u0 = np.zeros(len(y), dtype=ld)
    grad0 = np.zeros((len(y), n), dtype=ld)
    hess0 = np.zeros((len(y), n, n), dtype=ld)
    for i in range(1, group.step + 1):
        sl = group.layer_slice(i)
        m = group.gauge_order // (2 * i)
        wi = w[:, sl]
        S = np.sum(wi * wi, axis=1)
        u0 += S**m
        grad0[:, sl] = (2 * m) * S[:, None] ** (m - 1) * wi
        block = (2 * m) * S[:, None, None] ** (m - 1) * np.eye(wi.shape[1], dtype=ld)
        if m > 1:
            outer = wi[:, :, None] * wi[:, None, :]
            block += (4 * m * (m - 1)) * S[:, None, None] ** (m - 2) * outer
        hess0[:, sl, sl] = block
    u = u0 * scale
    grad_u = grad0 @ M * scale
    hess_u = np.swapaxes(M, 0, 1) @ hess0 @ M * scale
    inside = u < 1
    om = np.where(inside, 1 - u, ld(1))
    pro = np.where(inside, np.exp(-u / om), ld(0))
    d1, d2 = -pro / om**2, pro * (1 - 2 * om) / om**4
    value = h * pro
    grad = (h * d1)[:, None] * grad_u
    hess = (h * d2)[:, None, None] * grad_u[:, :, None] * grad_u[:, None, :]
    hess += (h * d1)[:, None, None] * hess_u
    return [value, grad, hess]


def horizontal_jets_longdouble(group, bump, pts):
    """[f, Xf, XXf] of a gauge bump at pts in np.longdouble: Xf[:, a] = X_a f
    and XXf[:, a, b] = X_a X_b f, from `gauge_bump_jets_longdouble` and the
    generator coefficients X_a = d_a + sum_j C[a, j](y) d_{z_j}, C[a, j](y) =
    (1/2) (y^(1) . B_j)_a, whose Jacobian is dC[a, j] / dy_v = (1/2) B_j[v, a]:
    X_a X_b f = c^a . (hess c^b) + sum_j c^a_v (d_v C[b, j]) d_{z_j} f."""
    ld = np.longdouble
    n, n1 = group.n, group.n1
    value, grad, hess = gauge_bump_jets_longdouble(group, bump, pts)
    y = np.asarray(pts, dtype=ld)
    coef = np.zeros((len(y), n1, n), dtype=ld)
    coef[:, np.arange(n1), np.arange(n1)] = 1
    jac = np.zeros((n1, n, n), dtype=ld)  # jac[b, u, v] = d c^b_u / d y_v
    if group.n2:
        half = group.forms.astype(ld) / 2  # (n2, n1, n1)
        coef[:, :, n1:] = np.einsum("Nv,jva->Naj", y[:, :n1], half)
        jac[:, n1:, :n1] = np.einsum("jva->ajv", half)
    first = np.einsum("Nau,Nu->Na", coef, grad)
    second = np.einsum("Nav,Nbu,Nuv->Nab", coef, coef, hess)
    second += np.einsum("Nav,buv,Nu->Nab", coef, jac, grad)
    return [value, first, second]


def mc_ball_volume(group, r, samples, seed, op_id="mc-ball-volume"):
    """Independent MC volume of B(0, r) by box rejection (no volume law used)."""
    if not r > 0:
        raise DomainError("radius must be positive")
    rng = stream(seed, f"{op_id}/{r!r}")
    ext = centered_box_extents(group, r)
    box_volume = float(np.prod(2.0 * ext))
    accepted = 0
    remaining = int(samples)
    while remaining > 0:
        take = min(1_000_000, remaining)
        pts = (rng.random((take, group.n)) * 2.0 - 1.0) * ext
        accepted += int(np.count_nonzero(group.gauge_norm(pts) < r))
        remaining -= take
    phat = accepted / samples
    return Estimate(
        value=box_volume * phat,
        std_error=box_volume * math.sqrt(max(phat * (1.0 - phat), 0.0) / samples),
        samples=int(samples),
        seed=seed,
    )


def radial_bump_integral(group, bump, tau, nodes=200):
    """int f(y) d(c, y)^(tau - Q) dy for the gauge bump f on B(c, R), tau >= 1.

    By left invariance it is int f(c o z) |z|^(tau - Q) dz, and f(c o z) is
    the profile h exp(-u / (1 - u)), u = (|z| / R)^(2 s!), of |z| alone.
    The polar decomposition of Haar measure (Folland and Stein, Hardy
    Spaces on Homogeneous Groups, Prop. 1.15), d|B(0, s)| = Q |B_1| s^(Q-1)
    ds, leaves Q |B_1| int_0^R profile(s) s^(tau - 1) ds, which the
    Gauss-Legendre rule takes to rounding: the profile is smooth and
    vanishes to every order at R."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    R = bump.support.radius
    s = 0.5 * R * (x + 1.0)
    u = (s / R) ** group.gauge_order
    profile = bump.height * np.exp(-u / (1.0 - u))
    Q = group.homogeneous_dimension
    return Q * ball_volume(group, 1.0) * 0.5 * R * float(np.sum(wts * profile * s ** (tau - 1.0)))


def poly_eval_by_powers(poly, pts):
    """sum_alpha c * prod_i x_i ** a_i on an (N, n) batch, one array power per
    term and coordinate, and sum_alpha |c * x^alpha| for the error scale."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    scale = np.zeros(pts.shape[0])
    for alpha, c in poly.terms.items():
        mono = np.full(pts.shape[0], c)
        for i, a in enumerate(alpha):
            if a:
                mono *= pts[:, i] ** a
        out += mono
        scale += np.abs(mono)
    return out, scale


def vandermonde_by_powers(basis, pts):
    """Design matrix with column x^alpha = prod_i x_i ** a_i."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    cols = []
    for alpha in basis:
        col = np.ones(pts.shape[0])
        for i, a in enumerate(alpha):
            if a:
                col = col * pts[:, i] ** a
        cols.append(col)
    return np.column_stack(cols)


def best_value_system(group, F, u, q, ball, k, scheme, op_id):
    """(A, y, w) of the best-polynomial problem on the solver's nodes: the
    Vandermonde matrix in the ball's zeta coordinates, the F values and the
    node weights |B| u^q / N, so the value is (sum_i w_i |y_i - (A c)_i|^q)^(1/q)."""
    basis = monomial_basis(group, k)
    nodes = quadrature_nodes(group, ball, scheme, op_id)
    zeta = group.dilate(1.0 / ball.radius, group.compose(group.inverse(ball.center), nodes))
    y = np.asarray(F(nodes), dtype=float).reshape(-1)
    u_q = np.asarray(u(nodes), dtype=float).reshape(-1) ** q
    return vandermonde(group, basis, zeta), y, ball_volume(group, ball.radius) / len(y) * u_q


def holder_lower_bound(group, F, u, q, ball, k, scheme, op_id, poly):
    """For q > 1, min over c of ||D (y - A c)||_q, D = diag(w^(1/q)), is at
    least lam . D y / ||lam||_q' for any lam with (D A)^T lam = 0 (Hoelder).
    Here lam is sign(r) |D r|^(q-1) for poly's residuals r, less its
    least-squares fit by the columns of D A; at the minimizer it is exact."""
    A, y, w = best_value_system(group, F, u, q, ball, k, scheme, op_id)
    r = y - poly(quadrature_nodes(group, ball, scheme, op_id))
    DA, Dr = w[:, None] ** (1.0 / q) * A, w ** (1.0 / q) * r
    lam = np.sign(r) * np.abs(Dr) ** (q - 1.0)
    lam -= DA @ np.linalg.lstsq(DA, lam, rcond=None)[0]
    norm = float(np.sum(np.abs(lam) ** (q / (q - 1.0)))) ** (1.0 - 1.0 / q)
    return float(lam @ (w ** (1.0 / q) * y)) / norm


def newton_dual_lower_bound(group, F, u, q, ball, k, scheme, op_id, poly):
    """Hoelder's bound `holder_lower_bound` takes, from the dual point of a
    Newton step at poly instead: with Hessian weights h = |r|^(q-2) (kept off
    0), the step s solves the weighted normal equations A^T W A s = A^T W r,
    W = w h, so lam = D^(q-1) h (r - A s) has (D A)^T lam = 0.  What rounding
    leaves of (D A)^T lam is removed by an orthonormal basis of range(D A)
    from the SVD.  Near the minimizer its gap is second order in s.  The
    bound is taken as lam . D r, which equals lam . D y for this lam but
    does not cancel terms of size max |y| down to the value."""
    A, y, w = best_value_system(group, F, u, q, ball, k, scheme, op_id)
    r = y - poly(quadrature_nodes(group, ball, scheme, op_id))
    D = w ** (1.0 / q)
    a = np.abs(r) + 1e-12 * float(np.max(np.abs(y)))
    h = (a / np.max(a)) ** (q - 2.0)
    sq = np.sqrt(w * h)
    s = np.linalg.lstsq(sq[:, None] * A, sq * r, rcond=None)[0]
    lam = D ** (q - 1.0) * h * (r - A @ s)
    U = np.linalg.svd(D[:, None] * A, full_matrices=False)[0]
    lam -= U @ (U.T @ lam)
    lam /= np.max(np.abs(lam))
    norm = float(np.sum(np.abs(lam) ** (q / (q - 1.0)))) ** (1.0 - 1.0 / q)
    return float(lam @ (D * r)) / norm


def exact_l1_value(A, y, w):
    """min over c of sum_i w_i |y_i - (A c)_i| by the dual linear program
    max lam . (w y) subject to (w A)^T lam = 0 and |lam_i| <= 1.

    HiGHS's tolerances are absolute, so the objective is rescaled to unit
    max and each equality row to unit max before the solve.  Its dual value
    is still only as good as those tolerances (1e-12 relative off on some
    balls), so the value returned is the exact objective at the LP's optimal
    vertex, the c read from the equality multipliers; the dual value is a
    cross-check."""
    b = w * y
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return 0.0
    rows = (w[:, None] * A).T
    row_scale = np.max(np.abs(rows), axis=1)
    res = linprog(
        -b / scale, A_eq=rows / row_scale[:, None], b_eq=np.zeros(A.shape[1]), bounds=(-1, 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    c = -res.eqlin.marginals / row_scale * scale
    value = float(np.sum(w * np.abs(y - A @ c)))
    assert abs(value - scale * -res.fun) <= 1e-9 * value + 1e-15 * float(np.sum(np.abs(b)))
    return value


def exact_best_value(group, F, u, q, ball, k, scheme, op_id):
    """min over c of (sum_i v (u_i |y_i - (A c)_i|)^q)^(1/q), v the node
    weight, for q in {1, 2}: the normal equations for q = 2, `exact_l1_value`
    for q = 1."""
    A, y, w = best_value_system(group, F, u, q, ball, k, scheme, op_id)
    if q == 2.0:
        c = np.linalg.solve(A.T @ (w[:, None] * A), A.T @ (w * y))
        return math.sqrt(float(np.sum(w * (y - A @ c) ** 2)))
    if q == 1.0:
        return exact_l1_value(A, y, w)
    raise DomainError(f"exact oracle needs q in {{1, 2}}, got {q}")


def three_piece_nodes(eps, n):
    """The n-point Gauss rule on [-1, -eps], [-eps, eps] and [eps, 1],
    concatenated: the node set of `affine_infimum`, built independently."""
    t, w = np.polynomial.legendre.leggauss(n)
    pieces = [(-1.0, -eps), (-eps, eps), (eps, 1.0)]
    x = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * t for a, b in pieces])
    return x, np.concatenate([0.5 * (b - a) * w for a, b in pieces])


def gauss_second_derivative_lp(fam, p, n):
    """R(eps) = int |f_eps''|^p dx on the n-point Gauss rule moved to
    [-eps, eps], where the integrand lives."""
    t, w = np.polynomial.legendre.leggauss(n)
    return float(np.dot(fam.eps * w, np.abs(fam.second(fam.eps * t)) ** p))


def mpmath_ramp_integrals(eps, p):
    """(R, {q: (L, b)}) for q in {1, 2}, by 30-digit tanh-sinh quadrature
    of f_eps rebuilt from Psi, rounded to floats at the end.  The integrals
    are split where the integrands have kinks: at +-1 and +-eps, and at
    +-1/2, where g = f_eps - x/2 crosses the q = 1 offset.  a = 1/2 for
    both q, as g is even; b is the median of g (q = 1), which is g(1/2) as
    g increases on [0, 1], and its mean (q = 2)."""
    import mpmath as mp

    with mp.workdps(30):
        eps, p = mp.mpf(eps), mp.mpf(p)
        half = mp.mpf(1) / 2

        def f(x):
            if x <= -eps:
                return mp.mpf(0)
            if x >= eps:
                return x
            t = x / eps + 1
            return eps * (t**3 / 4 - t**4 / 16)

        def g(x):
            return f(x) - x / 2

        cuts = [-1, -half, -eps, eps, half, 1]
        r = mp.quad(lambda x: (mp.mpf(3) / 4 * (1 - (x / eps) ** 2) / eps) ** p, [-eps, eps])
        mean = mp.quad(g, cuts) / 2
        median = g(half)
        l1 = mp.quad(lambda x: abs(g(x) - median), cuts)
        l2 = mp.quad(lambda x: (g(x) - mean) ** 2, cuts)
        return float(r), {1.0: (float(l1), float(median)), 2.0: (float(l2), float(mean))}


def all_lines_brute_force(fam, q, n):
    """The least sum_i w_i |f_i - a x_i - b|^q over the line through every
    pair of the 3 n nodes, each line's own two residuals set to 0, as
    (value, (i, j)) for the best line, through the nodes i < j."""
    x, w = three_piece_nodes(fam.eps, n)
    f = fam.value(x)
    i, j = np.triu_indices(x.size, k=1)
    a = (f[i] - f[j]) / (x[i] - x[j])
    b = f[i] - a * x[i]
    resid = f - a[:, None] * x - b[:, None]
    resid[np.arange(i.size), i] = 0.0
    resid[np.arange(i.size), j] = 0.0
    values = np.abs(resid) ** q @ w
    k = int(np.argmin(values))
    return float(values[k]), (int(i[k]), int(j[k]))


def _step_two_3x2():
    a = stream(7, "dead-balls/forms").standard_normal((2, 3, 3))
    return step_two_group(a - np.transpose(a, (0, 2, 1)))


DEAD_BALL_GROUPS = {
    "e1": euclidean_group(1), "h1": heisenberg_group(1), "step2:3x2": _step_two_3x2(),
}


def support_mix(group):
    """The unit bump at the origin (height 1.5), a product of it with the
    bump B(1.5 e_0, 1.25), and balls along e_0 around them: far off,
    box-tangent (its box ends where the unit bump's begins), barely
    overlapping, half in, inside both, covering, and one that meets the
    unit bump's box but misses the other factor's.  Returns the bump, the
    product, the balls, and the indices of the balls dead for each."""
    e0 = np.eye(group.n)[0]
    bump = GaugeBump(group, np.zeros(group.n), 1.0, height=1.5)
    product = ProductFunction(group, [bump, GaugeBump(group, 1.5 * e0, 1.25)])
    balls = [
        GaugeBall(x * e0, r)
        for x, r in [(5.0, 0.5), (1.5, 0.5), (1.5 - 2.0**-10, 0.5), (1.0, 0.5), (0.4, 0.3),
                     (0.0, 3.0), (-0.6, 0.3)]
    ]
    return bump, product, balls, {0, 1}, {0, 1, 6}


class Spiky:
    """`bump` with NaN where it is non-zero and the first coordinate
    exceeds 0.6; it declares the bump's support."""

    def __init__(self, bump):
        self.bump, self.support = bump, bump.support

    def __call__(self, pts):
        vals = self.bump(pts)
        vals[(pts[:, 0] > 0.6) & (vals > 0.0)] = np.nan
        return vals


class ListedBalls:
    """A ball sampler that hands out one given ball list, whatever the seed
    and label, and describes itself by that list."""

    def __init__(self, balls):
        self.balls = list(balls)

    def generate(self, seed, label=None):
        return self.balls

    def to_dict(self):
        return {"balls": [ball.to_dict() for ball in self.balls]}

import math
import re
from pathlib import Path

import numpy as np
import pytest

import carnotlab

from carnotlab.carnot import (
    GaugeBall,
    GaugeBump,
    HomogeneousPolynomial,
    JetTable,
    ball_volume,
    euclidean_group,
    heisenberg_group,
    horizontal_derivative,
    monomial_basis,
    random_bump,
    step_two_group,
    sub_laplacian,
    vandermonde,
    volume_constant,
)
from carnotlab.carnot.derivatives import (
    _second_order_jet,
    coefficient_jacobian,
    generator_coefficients,
)
from carnotlab.carnot.group import ball_box
from carnotlab.carnot.polynomials import left_translation_polys
from carnotlab.errors import DomainError, StructureError
from carnotlab.operators import jet_rows
from carnotlab.quad import sample_ball
from carnotlab.rng import stream

from bruteforce_helpers import mc_ball_volume, poly_eval_by_powers, vandermonde_by_powers


# -- group law and dilations ---------------------------------------------------


def test_heisenberg_law_example(h1):
    out = h1.compose([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(out, [1.0, 1.0, 0.5])


def test_euclidean_law_example(e2):
    assert np.allclose(e2.compose([1.0, 2.0], [3.0, 4.0]), [4.0, 6.0])


def test_inverse_gives_origin(h1):
    rng = stream(11, "inverse")
    for _ in range(20):
        g = rng.uniform(-3, 3, size=3)
        assert np.allclose(h1.compose(g, h1.inverse(g)), 0.0, atol=1e-15)
        assert np.allclose(h1.compose(h1.inverse(g), g), 0.0, atol=1e-15)


@pytest.mark.parametrize("ident", ["euclidean:2", "heisenberg:1", "heisenberg:2"])
def test_group_axioms_random_triples(ident):
    group = {"euclidean:2": euclidean_group(2)}.get(ident)
    if group is None:
        group = heisenberg_group(int(ident.split(":")[1]))
    rng = stream(5, f"axioms/{ident}")
    g, h, k = rng.uniform(-2, 2, size=(3, 1200, group.n))
    left = group.compose(group.compose(g, h), k)
    right = group.compose(g, group.compose(h, k))
    assert np.max(np.abs(left - right)) < 1e-12
    e = group.identity()
    assert np.max(np.abs(group.compose(g, e) - g)) < 1e-12
    assert np.max(np.abs(group.compose(e, g) - g)) < 1e-12


def test_dilation_is_automorphism(h1, h2):
    for group in (h1, h2):
        rng = stream(6, f"automorphism/{group.ident}")
        g, h = rng.uniform(-2, 2, size=(2, 1000, group.n))
        for lam in (0.3, 1.7, 4.0):
            a = group.dilate(lam, group.compose(g, h))
            b = group.compose(group.dilate(lam, g), group.dilate(lam, h))
            assert np.max(np.abs(a - b)) < 1e-12


def test_dilate_examples(h1, e3):
    assert np.allclose(h1.dilate(2.0, [1.0, 1.0, 1.0]), [2.0, 2.0, 4.0])
    assert np.allclose(h1.dilate(1.0, [0.3, -0.4, 0.9]), [0.3, -0.4, 0.9])
    assert np.allclose(e3.dilate(2.0, [1.0, 1.0, 1.0]), [2.0, 2.0, 2.0])
    with pytest.raises(DomainError):
        h1.dilate(0.0, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        h1.dilate(-1.0, [1.0, 0.0, 0.0])


def test_dilation_composition(h1):
    x = np.array([0.7, -0.3, 0.2])
    assert np.allclose(h1.dilate(2.0, h1.dilate(3.0, x)), h1.dilate(6.0, x))


def test_homogeneous_dimension(e2, e3, h1, h2):
    assert h1.homogeneous_dimension == 4
    assert h2.homogeneous_dimension == 6
    assert e2.homogeneous_dimension == 2
    assert e3.homogeneous_dimension == 3
    assert euclidean_group(1).homogeneous_dimension == 1


def test_dimension_mismatch_raises(h1):
    with pytest.raises(StructureError):
        h1.compose([1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(StructureError):
        h1.distance([0.0, 0.0], [0.0, 0.0, 0.0])


def test_step_two_requires_skew():
    good = np.zeros((1, 2, 2))
    good[0] = [[0.0, 1.0], [-1.0, 0.0]]
    step_two_group(good)
    bad = np.zeros((1, 2, 2))
    bad[0] = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(StructureError):
        step_two_group(bad)


def _random_step_two():
    a = stream(7, "translation-rows/forms").standard_normal((2, 3, 3))
    return step_two_group(a - np.transpose(a, (0, 2, 1)))


_LAW_GROUPS = [_random_step_two(), heisenberg_group(1), heisenberg_group(2), euclidean_group(2)]
_LAW_IDS = ["step2:3x2", "heisenberg:1", "heisenberg:2", "euclidean:2"]


@pytest.mark.parametrize("group", _LAW_GROUPS, ids=_LAW_IDS)
def test_translation_rows_carry_the_second_layer_of_the_law(group):
    # R[j, b] = (1/2) (g^(1) . B_j)_b, and (g o h)^(2) = g^(2) + h^(2) + R(g) h^(1)
    rng = stream(8, f"translation-rows/{group.ident}")
    g, h = rng.uniform(-2, 2, size=(2, 64, group.n))
    n1 = group.n1
    rows = group.translation_rows(g)
    assert rows.shape == (64, group.n2, n1)
    assert group.translation_rows(g[0]).shape == (group.n2, n1)
    if group.n2:
        want = np.einsum("na,jab->njb", g[:, :n1], 0.5 * group.forms)
        np.testing.assert_array_equal(rows, want)
    out = group.compose(g, h)
    np.testing.assert_array_equal(out[:, :n1], g[:, :n1] + h[:, :n1])
    want = g[:, n1:] + h[:, n1:] + np.einsum("njb,nb->nj", rows, h[:, :n1])
    np.testing.assert_allclose(out[:, n1:], want, rtol=0.0, atol=1e-14)
    # the cross terms of g o y as polynomials in y are the rows of R(g)
    comps = left_translation_polys(group, g[0])
    got = np.stack([c(h) for c in comps], axis=-1)
    np.testing.assert_allclose(got, group.compose(g[0], h), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("group", _LAW_GROUPS + [euclidean_group(1)], ids=_LAW_IDS + ["euclidean:1"])
def test_compose_of_one_point_and_a_batch_matches_the_row_aligned_product(group):
    # the point-and-batch sum runs in another iteration order, not another arithmetic
    rng = stream(9, f"compose-point-batch/{group.ident}")
    g, h = rng.uniform(-3, 3, size=(2, 4096, group.n))
    copies = np.broadcast_to(g[0], h.shape).copy()
    for got, want in ((group.compose(g[0], h), group.compose(copies, h)),
                      (group.compose(h, g[0]), group.compose(h, copies))):
        assert got.shape == h.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", ["(N,n)o(N,n)", "(n,)o(N,n)", "(N,n)o(n,)", "(1,1,n)o(1,N,n)"])
def test_heisenberg_compose_is_the_explicit_commutator_bitwise(h1, shape):
    rng = stream(9, f"compose-shapes/{shape}")
    g, h = rng.uniform(-3, 3, size=(2, 4096, 3))
    g, h = {
        "(N,n)o(N,n)": (g, h), "(n,)o(N,n)": (g[0], h), "(N,n)o(n,)": (g, h[0]),
        "(1,1,n)o(1,N,n)": (g[:1, None], h[None]),
    }[shape]
    (x, y, t), (x2, y2, t2) = np.moveaxis(g, -1, 0), np.moveaxis(h, -1, 0)
    want = np.stack(np.broadcast_arrays(x + x2, y + y2, t + t2 + 0.5 * (x * y2 - y * x2)), axis=-1)
    np.testing.assert_array_equal(h1.compose(g, h), want)


@pytest.mark.parametrize("group", _LAW_GROUPS, ids=_LAW_IDS)
def test_coefficient_jacobian_is_half_the_transposed_forms(group):
    n1 = group.n1
    want = np.zeros((n1, group.n, group.n))
    for j in range(group.n2):
        want[:, n1 + j, :n1] = 0.5 * group.forms[j].T
    np.testing.assert_array_equal(coefficient_jacobian(group), want)


@pytest.mark.parametrize("group", _LAW_GROUPS, ids=_LAW_IDS)
def test_ball_box_contains_the_ball(group):
    rng = stream(10, f"ball-box/{group.ident}")
    for i in range(6):
        ball = GaugeBall(rng.uniform(-2, 2, size=group.n), rng.uniform(0.2, 1.5))
        pts = sample_ball(group, ball, 2000, stream(10, f"ball-box/{group.ident}/{i}"))
        lo, hi = ball_box(group, ball)
        assert np.all((lo <= pts) & (pts <= hi))


def test_only_the_group_module_reads_the_forms():
    # the step-2 law is decided in carnot/group.py; every other module asks
    # the group (compose, translation_rows) instead of contracting its forms
    root = Path(carnotlab.__file__).resolve().parent
    pattern = re.compile(r"\.forms\b|\bstep\s*==\s*2\b")
    offenders = [
        f"{path.relative_to(root)}:{number}"
        for path in sorted(root.rglob("*.py"))
        if path != root / "carnot" / "group.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


# -- gauge and distance ----------------------------------------------------------


def test_gauge_examples(h1, e2):
    assert h1.gauge_norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)
    assert e2.gauge_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert h1.gauge_norm(np.array([0.0, 0.0, 9.0])) == pytest.approx(3.0)


def test_gauge_koranyi_form(h1):
    pt = np.array([1.2, -0.5, 0.8])
    expected = ((1.2**2 + 0.5**2) ** 2 + 0.8**2) ** 0.25
    assert h1.gauge_norm(pt) == pytest.approx(expected, rel=1e-14)


def test_gauge_homogeneity_exact(h1, h2, e3):
    for group in (h1, h2, e3):
        rng = stream(8, f"gauge/{group.ident}")
        pts = rng.uniform(-2, 2, size=(500, group.n))
        base = group.gauge_norm(pts)
        for lam in (0.25, 3.0):
            scaled = group.gauge_norm(group.dilate(lam, pts))
            assert np.max(np.abs(scaled - lam * base) / np.maximum(base, 1e-12)) < 1e-12


def test_distance_examples(h1, e1=None):
    e1 = euclidean_group(1)
    x = np.array([0.4, 0.5, -0.2])
    assert h1.distance(x, x) == 0.0
    assert e1.distance([0.0], [3.0]) == pytest.approx(3.0)
    assert h1.distance([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == pytest.approx(1.0)


def test_distance_left_invariant_and_symmetric(h1):
    rng = stream(9, "left-invariance")
    g, x, y = rng.uniform(-2, 2, size=(3, 400, 3))
    d0 = h1.distance(x, y)
    d1 = h1.distance(h1.compose(g, x), h1.compose(g, y))
    assert np.max(np.abs(d0 - d1)) < 1e-11
    assert np.max(np.abs(h1.distance(x, y) - h1.distance(y, x))) < 1e-14


# -- volumes ---------------------------------------------------------------------


def test_ball_volume_euclidean(e3):
    assert ball_volume(e3, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert ball_volume(euclidean_group(2), 2.0) == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_ball_volume_doubling(h1, e2):
    for group in (h1, e2):
        Q = group.homogeneous_dimension
        assert ball_volume(group, 2.0) / ball_volume(group, 1.0) == pytest.approx(2.0**Q)
    with pytest.raises(DomainError):
        ball_volume(h1, 0.0)


def test_heisenberg_volume_constant_vs_mc_oracle(h1):
    # closed form pi^2/2 checked against a 1e7-sample MC oracle
    exact = math.pi**2 / 2.0
    assert volume_constant(h1) == pytest.approx(exact, rel=1e-12)
    est = mc_ball_volume(h1, 1.0, 10_000_000, seed=77)
    assert abs(est.value - exact) < 4.0 * est.std_error
    assert est.value - 1.96 * est.std_error < exact < est.value + 1.96 * est.std_error


def test_h2_volume_constant_closed_form(h2):
    assert volume_constant(h2) == pytest.approx(2.0 * math.pi**2 / 3.0, rel=1e-12)


@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (4, 3)])
def test_step2_volume_constant_vs_mc_oracle(shape):
    # the closed form holds whatever the forms: random skew forms, 2e6-sample oracle
    n1, n2 = shape
    a = stream(3, f"random-forms/{n1}x{n2}").normal(size=(n2, n1, n1))
    group = step_two_group(a - np.transpose(a, (0, 2, 1)))
    est = mc_ball_volume(group, 1.0, 2_000_000, seed=19)
    assert abs(est.value - volume_constant(group)) < 4.0 * est.std_error


def test_volume_exponent_fit(h1, e2):
    for group, tol in ((h1, 0.04), (e2, 0.02)):
        radii = [0.5, 1.0, 2.0, 4.0]
        logs = []
        for r in radii:
            est = mc_ball_volume(group, r, 200_000, seed=31)
            logs.append(math.log(est.value))
        x = np.log(radii)
        slope = np.polyfit(x, logs, 1)[0]
        assert abs(slope - group.homogeneous_dimension) < max(
            tol, 0.01 * group.homogeneous_dimension
        )


def test_reverse_doubling(h1):
    # nested balls: |B(x, r1)| / |B(x2, r2)| >= (r1/r2)^Q from the volume law
    Q = h1.homogeneous_dimension
    for r1, r2 in ((2.0, 1.0), (1.0, 0.25), (8.0, 0.5)):
        ratio = ball_volume(h1, r1) / ball_volume(h1, r2)
        assert ratio >= (r1 / r2) ** Q * (1.0 - 1e-12)


# -- monomial bases ---------------------------------------------------------------


def test_monomial_basis_h1_k2(h1):
    assert monomial_basis(h1, 2) == [(0, 0, 0), (1, 0, 0), (0, 1, 0)]


def test_monomial_basis_k1(h1, e3):
    assert monomial_basis(h1, 1) == [(0, 0, 0)]
    assert monomial_basis(e3, 1) == [(0, 0, 0)]


def test_monomial_basis_e2_k3(e2):
    assert monomial_basis(e2, 3) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_monomial_basis_grading_excludes_t(h1):
    # |e_3|_G = 2, so t only appears once k exceeds 2
    assert (0, 0, 1) not in monomial_basis(h1, 2)
    assert (0, 0, 1) in monomial_basis(h1, 3)


# -- monomial kernels ----------------------------------------------------------------


def _random_poly(group, rng, top, terms):
    """`terms` random monomials of homogeneous degree <= 8, every exponent <= top."""
    alphas = [a for a in monomial_basis(group, 9) if max(a) <= top]
    picks = rng.choice(len(alphas), size=min(terms, len(alphas)), replace=False)
    return HomogeneousPolynomial(group, {alphas[j]: rng.normal() for j in picks})


@pytest.mark.parametrize("group", ["e1", "h1", "h2"])
def test_polynomial_matches_array_power_oracle(group, request):
    # power tables: x^a by repeated multiplication, within (a - 1) u of pow
    group = request.getfixturevalue(group)
    rng = stream(21, f"poly-oracle/{group.ident}")
    pts = 1.5 * rng.standard_normal((512, group.n))
    for _ in range(20):
        poly = _random_poly(group, rng, 8, 24)
        want, scale = poly_eval_by_powers(poly, pts)
        assert np.all(np.abs(poly(pts) - want) <= 1e-13 * scale)


@pytest.mark.parametrize("group", ["e1", "h1", "h2"])
def test_polynomial_is_bitwise_the_oracle_for_exponents_up_to_two(group, request):
    # numpy forms x**2 as x*x, so low exponents give the oracle's bits
    group = request.getfixturevalue(group)
    rng = stream(22, f"poly-bits/{group.ident}")
    pts = 1.5 * rng.standard_normal((512, group.n))
    for _ in range(20):
        poly = _random_poly(group, rng, 2, 24)
        np.testing.assert_array_equal(poly(pts), poly_eval_by_powers(poly, pts)[0])


def test_polynomial_call_shapes_and_dimension(h1):
    poly = HomogeneousPolynomial(h1, {(3, 0, 1): 2.0, (0, 0, 0): -1.0})
    value = poly(np.array([1.0, 2.0, 0.5]))
    assert np.ndim(value) == 0 and value == 0.0
    np.testing.assert_array_equal(HomogeneousPolynomial.zero(h1)(np.ones((4, 3))), np.zeros(4))
    with pytest.raises(StructureError, match="point dimension mismatch"):
        poly(np.ones((4, 2)))


@pytest.mark.parametrize("group", ["e1", "e2", "h1", "h2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_vandermonde_is_bitwise_the_oracle(group, k, request):
    group = request.getfixturevalue(group)
    basis = monomial_basis(group, k)
    pts = stream(23, f"vander/{group.ident}/{k}").standard_normal((256, group.n))
    np.testing.assert_array_equal(vandermonde(group, basis, pts), vandermonde_by_powers(basis, pts))


@pytest.mark.parametrize("group", ["h1", "h2"])
def test_second_order_jet_matches_three_operand_einsum(group, request):
    group = request.getfixturevalue(group)
    rng = stream(24, f"second-jet/{group.ident}")
    pts = rng.standard_normal((256, group.n))
    coef, jac = generator_coefficients(group, pts), coefficient_jacobian(group)
    grad = rng.standard_normal((256, group.n))
    hess = rng.standard_normal((256, group.n, group.n))
    hess = hess + np.transpose(hess, (0, 2, 1))
    for a in range(group.n1):
        for b in range(group.n1):
            want = np.einsum("nv,uv,nu->n", coef[:, a, :], jac[b], grad) + np.einsum(
                "nv,nu,nvu->n", coef[:, a, :], coef[:, b, :], hess
            )
            got = _second_order_jet(coef, jac, grad, hess, a, b)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


# -- horizontal derivatives --------------------------------------------------------


def test_euclidean_second_derivative():
    e1 = euclidean_group(1)
    f = HomogeneousPolynomial(e1, {(2,): 1.0})
    assert horizontal_derivative(e1, f, (2,), np.array([0.7])) == pytest.approx(2.0)


def test_heisenberg_field_on_t(h1):
    f = HomogeneousPolynomial(h1, {(0, 0, 1): 1.0})
    pts = np.array([[0.3, -0.7, 0.1], [1.0, 2.0, -0.4]])
    vals = horizontal_derivative(h1, f, (1, 0), pts)
    assert np.allclose(vals, -pts[:, 1] / 2.0)
    vals = horizontal_derivative(h1, f, (0, 1), pts)
    assert np.allclose(vals, pts[:, 0] / 2.0)


def test_commutator_relation(h1):
    # (X1 X2 - X2 X1) t = 1 everywhere; FD oracle confirms the symbolic path
    f_poly = HomogeneousPolynomial(h1, {(0, 0, 1): 1.0})
    f_fd = lambda p: p[:, 2]
    pts = stream(3, "commutator").uniform(-2, 2, size=(10, 3))
    x1x2 = horizontal_derivative(h1, f_poly, (1, 1), pts)
    # X2 X1 via explicit nesting: apply X1 first, then X2
    inner = lambda p: horizontal_derivative(h1, f_poly, (1, 0), p)
    x2x1 = horizontal_derivative(h1, inner, (0, 1), pts)
    assert np.allclose(x1x2 - x2x1, 1.0, atol=1e-7)
    fd = horizontal_derivative(h1, f_fd, (1, 1), pts)
    assert np.allclose(fd, x1x2, atol=1e-8)


def test_sub_laplacian_examples(h1, e2):
    f = HomogeneousPolynomial(h1, {(2, 0, 0): 1.0})
    pts = stream(4, "sublap").uniform(-1, 1, size=(6, 3))
    assert np.allclose(sub_laplacian(h1, f, pts), 2.0)
    g = HomogeneousPolynomial(e2, {(2, 0): 1.0, (0, 2): 1.0})
    pts2 = stream(4, "sublap-e2").uniform(-1, 1, size=(6, 2))
    assert np.allclose(sub_laplacian(e2, g, pts2), 4.0)


def test_sub_laplacian_t_squared(h1):
    # L(t^2) = (x^2 + y^2)/2; zero at (0, 0, 1); FD oracle agrees
    f = HomogeneousPolynomial(h1, {(0, 0, 2): 1.0})
    x0 = np.array([[0.0, 0.0, 1.0]])
    assert sub_laplacian(h1, f, x0)[0] == pytest.approx(0.0, abs=1e-12)
    pts = np.array([[1.0, 2.0, 0.3], [0.5, -0.5, 1.0]])
    symbolic = sub_laplacian(h1, f, pts)
    expected = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 2.0
    assert np.allclose(symbolic, expected, atol=1e-12)
    fd = sub_laplacian(h1, lambda p: p[:, 2] ** 2, pts)
    assert np.allclose(fd, expected, atol=1e-6)


def test_analytic_vs_fd_on_catalog(h1, e2):
    # catalog invariant: analytic jets within 1e-6 relative of the FD path
    for group in (h1, e2):
        rng = stream(10, f"catalog/{group.ident}")
        bump = random_bump(group, rng, center_box=0.3, radius_range=(0.8, 1.2))
        pts = bump.support.center + 0.2 * rng.standard_normal((8, group.n))
        alphas = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)] if group.n1 == 2 else [(1,), (2,)]
        for alpha in alphas:
            an = horizontal_derivative(group, bump, alpha, pts)
            fd = horizontal_derivative(group, bump.__call__, alpha, pts)
            scale = np.maximum(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(an - fd)) / scale < 1e-6


def test_third_order_fd_path(h1):
    # cubic polynomial: symbolic third derivative vs nested FD
    f = HomogeneousPolynomial(h1, {(3, 0, 0): 1.0})
    pts = np.array([[0.2, 0.4, -0.1]])
    sym = horizontal_derivative(h1, f, (3, 0), pts)
    fd = horizontal_derivative(h1, f.__call__, (3, 0), pts)
    assert sym[0] == pytest.approx(6.0, abs=1e-12)
    assert fd[0] == pytest.approx(6.0, rel=1e-5)


def _jet_table_groups():
    a = stream(12, "jet-table/forms").standard_normal((2, 3, 3))
    return [heisenberg_group(1), step_two_group(a - np.transpose(a, (0, 2, 1)))]


@pytest.mark.parametrize("group", _jet_table_groups(), ids=["heisenberg:1", "step2:3x2"])
def test_jet_table_rows_match_single_key_paths(group):
    # one table serving every key gives the same bits as a fresh evaluation per key
    rng = stream(13, f"jet-table/{group.ident}")
    bump = random_bump(group, rng, center_box=0.3, radius_range=(0.8, 1.2))
    pts = bump.support.center + 0.3 * rng.standard_normal((16, group.n))
    n1 = group.n1
    keys = [(0,) * n1] + [
        tuple(int(i == a) + int(i == b) for i in range(n1))
        for a in range(n1)
        for b in range(a, n1)
    ]
    keys += [tuple(int(i == a) for i in range(n1)) for a in range(n1)]
    third = (2, 1) + (0,) * (n1 - 2)  # |alpha| = 3: finite differences over the jets
    table = JetTable(group, bump, pts, 3)
    for alpha in keys + [third]:
        np.testing.assert_array_equal(table[alpha], horizontal_derivative(group, bump, alpha, pts))
    np.testing.assert_array_equal(table["L"], sub_laplacian(group, bump, pts))


_ORDER_TWO_KEYS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_gauge_bump_jets_evaluate_each_polynomial_once(h1, count_calls):
    # H^1: u, its 3 partials and its 6 distinct second partials, each once
    bump = GaugeBump(h1, [0.1, -0.2, 0.3], 1.0)
    pts = bump.support.center + 0.2 * stream(14, "jets/h1").standard_normal((32, 3))
    calls = count_calls(HomogeneousPolynomial, "__call__")
    jet_rows(h1, bump, _ORDER_TWO_KEYS)(pts)
    assert len(calls) == 10
    calls.clear()
    jet_rows(h1, bump, _ORDER_TWO_KEYS[:3])(pts)
    assert len(calls) == 4


@pytest.mark.parametrize("group_id", ["h1", "h2"])
def test_gauge_bump_hessian_in_place_matches_the_expression(group_id, request):
    # the order-2 jet is formed in place; its bits are those of
    # height * (d2pro * grad u grad u^T + dpro * hess u) with temporaries
    from carnotlab.carnot.functions import _polynomial_hessian

    group = request.getfixturevalue(group_id)
    bump = GaugeBump(group, np.linspace(-0.3, 0.2, group.n), 0.9, height=1.7)
    pts = bump.support.center + 0.4 * stream(16, "jets/inplace").standard_normal((64, group.n))
    u = bump._u(pts)
    live = u < 1.0 - 1e-3
    assert live.any() and not live.all()  # points inside and outside the support
    g = np.zeros_like(u)
    np.exp(np.divide(-u, 1.0 - u, out=np.zeros_like(u), where=live), out=g, where=live)
    om = np.ones_like(u)
    om[live] = 1.0 - u[live]
    dpro = np.where(live, -g / om**2, 0.0)
    d2pro = np.where(live, g / om**4 - 2.0 * g / om**3, 0.0)
    grad_u = np.stack([p(pts) for p in bump._grad_u], axis=-1)
    expected = bump.height * (
        d2pro[:, None, None] * np.einsum("ni,nj->nij", grad_u, grad_u)
        + dpro[:, None, None] * _polynomial_hessian(bump._hess_u, pts)
    )
    np.testing.assert_array_equal(bump.jets(pts, 2)[2], expected)


# -- test functions ----------------------------------------------------------------


def test_bump_center_must_have_the_group_dimension(e1, h1):
    # the center has shape (n,): longer, shorter and (1, n) centers are refused
    for group, center in ((e1, [0.5, 7.0]), (h1, [0.1, 0.2]), (h1, [[0.1, 0.2, 0.3]])):
        with pytest.raises(StructureError):
            GaugeBump(group, center, 1.0)


def test_bump_supported_on_declared_ball(h1):
    bump = GaugeBump(h1, [0.2, -0.1, 0.3], 0.8, height=1.5)
    sup = bump.support
    rng = stream(12, "support")
    pts = rng.uniform(-3, 3, size=(4000, 3))
    outside = ~sup.contains(h1, pts)
    assert np.all(bump(pts[outside]) == 0.0)
    assert bump(sup.center) == pytest.approx(1.5)
    inside = sup.contains(h1, pts)
    assert np.all(bump(pts[inside]) >= 0.0)


def test_bump_gradient_matches_euclidean_formula():
    e1 = euclidean_group(1)
    bump = GaugeBump(e1, [0.0], 1.0)
    x = np.array([[0.3]])
    u = 0.3**2
    expected = math.exp(-u / (1 - u)) * (-1.0 / (1 - u) ** 2) * 2 * 0.3
    assert bump.jets(x, 1)[1][0, 0] == pytest.approx(expected, rel=1e-12)


# -- group identity and ids ---------------------------------------------------


def test_q_at_least_n_with_equality_iff_euclidean(e2, e3, h1, h2):
    for group in (e2, e3):
        assert group.homogeneous_dimension == group.n
    for group in (h1, h2):
        assert group.homogeneous_dimension > group.n


def test_group_from_id(tmp_path):
    import json

    from carnotlab.carnot import group_from_id

    assert group_from_id("euclidean:3").n == 3
    assert group_from_id("heisenberg:2").layers == (4, 1)
    spec = tmp_path / "forms.json"
    spec.write_text(json.dumps({"forms": [[[0.0, 2.0], [-2.0, 0.0]]]}))
    group = group_from_id(f"step2:{spec}")
    assert group.layers == (2, 1)
    assert group.homogeneous_dimension == 4
    with pytest.raises(StructureError):
        group_from_id("octonion:1")


def test_group_identity_is_structure(h1):
    form = np.array([[[0.0, 1.0], [-1.0, 0.0]]])
    g, g3 = step_two_group(form), step_two_group(3.0 * form)
    assert g.ident == g3.ident
    assert np.allclose(g.compose([1, 0, 0], [0, 1, 0]), [1.0, 1.0, 0.5])
    assert np.allclose(g3.compose([1, 0, 0], [0, 1, 0]), [1.0, 1.0, 1.5])
    assert g != g3
    with pytest.raises(StructureError):
        HomogeneousPolynomial.constant(g, 1.0) + HomogeneousPolynomial.constant(g3, 1.0)
    assert h1 == g and hash(h1) == hash(g)
    assert euclidean_group(3) != h1

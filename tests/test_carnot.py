import itertools
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
from carnotlab.carnot.derivatives import coefficient_jacobian
from carnotlab.carnot.group import CarnotGroup, ball_box
from carnotlab.errors import DomainError, StructureError
from carnotlab.operators import jet_rows
from carnotlab.quad import sample_ball
from carnotlab.rng import stream

from bruteforce_helpers import (
    horizontal_jets_longdouble,
    mc_ball_volume,
    poly_eval_by_powers,
    vandermonde_by_powers,
)


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
    # and the boxes of a ball list are the one-ball boxes bit for bit
    rng = stream(10, f"ball-box/{group.ident}")
    balls = []
    for i in range(6):
        ball = GaugeBall(rng.uniform(-2, 2, size=group.n), rng.uniform(0.2, 1.5))
        pts = sample_ball(group, ball, 2000, stream(10, f"ball-box/{group.ident}/{i}"))
        lo, hi = ball_box(group, [ball])
        assert np.all((lo[0] <= pts) & (pts <= hi[0]))
        balls.append(ball)
    boxes = ball_box(group, balls)
    for b, ball in enumerate(balls):
        assert all(x[b].tobytes() == y[0].tobytes() for x, y in zip(boxes, ball_box(group, [ball])))


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


def test_gauge_norm_sums_each_layer_in_coordinate_order():
    # bit for bit the former np.sum(x[..., layer] ** 2, axis=-1), which adds
    # in coordinate order for layers of fewer than 8 coordinates
    rng = stream(8, "gauge/column-order")
    forms = rng.normal(size=(2, 3, 3))
    groups = [euclidean_group(1), euclidean_group(3), heisenberg_group(1), heisenberg_group(2),
              step_two_group(forms - np.transpose(forms, (0, 2, 1)))]
    for group in groups:
        order = group.gauge_order
        for shape in ((group.n,), (4096, group.n), (3, 5, group.n)):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            total = 0.0
            for i in range(1, group.step + 1):
                sq = np.sum(x[..., group.layer_slice(i)] ** 2, axis=-1)
                total = total + sq ** (order / (2.0 * i))
            assert np.array_equal(group.gauge_norm(x), total ** (1.0 / order))


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
    # H^1: u0, its 2 first X_a u0 and its 4 second X_a X_b u0, each once
    bump = GaugeBump(h1, [0.1, -0.2, 0.3], 1.0)
    pts = bump.support.center + 0.2 * stream(14, "jets/h1").standard_normal((32, 3))
    calls = count_calls(HomogeneousPolynomial, "__call__")
    jet_rows(h1, bump, _ORDER_TWO_KEYS)(pts)
    assert len(calls) == 1 + 2 + 4
    calls.clear()
    jet_rows(h1, bump, _ORDER_TWO_KEYS[:3])(pts)
    assert len(calls) == 1 + 2


def _dense_bump_jets(bump, pts):
    """The bump's live set and horizontal jets from expressions with
    temporaries on every node: the value, dpro Xu0 and d2pro Xu0 Xu0^T +
    dpro XXu0, with Xu0 and XXu0 the unit polynomials at w."""
    u0, first, second = bump._unit
    w = bump._unit_point(pts)
    u = u0(w) * bump._scale
    live = u < 1.0 - 1e-3
    om = np.where(live, 1.0 - u, 1.0)
    value = np.exp(np.where(live, -u / om, -np.inf)) * bump.height
    dpro = np.where(live, value / -(om * om), 0.0) * bump._scale
    d2pro = np.where(live, value * (1.0 - 2.0 * om) / (om * om) ** 2, 0.0) * (
        bump._scale * bump._scale
    )
    n1 = bump.group.n1
    xu = np.stack([p(w) for p in first], axis=-1)
    xxu = np.stack([p(w) for p in second], axis=-1).reshape(-1, n1, n1)
    xxf = d2pro[:, None, None] * (xu[:, :, None] * xu[:, None, :]) + dpro[:, None, None] * xxu
    return live, [value, dpro[:, None] * xu, xxf]


def _nodes_at_levels(group, bump, rng, levels):
    """Nodes center o delta_lam(w0), w0 random, with u = levels[k] up to rounding."""
    w0 = rng.standard_normal((len(levels), group.n))
    lam = (np.asarray(levels) / (bump._unit[0](w0) * bump._scale)) ** (1.0 / group.gauge_order)
    return group.compose(bump.support.center, w0 * lam[:, None] ** group.weights)


_SHELL = (1.0 - 1e-3 + 1e-5, 1.0 - 1e-5)  # u here: inside the support, yet not live


def _live_node_sets(group, bump, rng):
    inside, shell = rng.uniform(0.0, 0.99, 40), rng.uniform(*_SHELL, 12)
    outside = rng.uniform(1.0, 3.0, 30)
    mixed = rng.permutation(np.concatenate([inside, shell, outside]))
    return {
        "mixed": mixed,
        "inside": inside,
        "outside": outside,
        "shell": shell,
        "one-live": rng.permutation(np.concatenate([inside[:1], shell, outside])),
        "empty": np.zeros(0),
    }


@pytest.mark.parametrize("group", [euclidean_group(1), heisenberg_group(1), heisenberg_group(2),
                                   _random_step_two()], ids=["e1", "h1", "h2", "step2:3x2"])
def test_jet_table_on_live_nodes_matches_the_dense_jets(group):
    # the table evaluates the bump's horizontal jets on the live nodes only;
    # every row equals the dense evaluation on all nodes bit for bit, also on
    # the shell 1 - 1e-3 <= u < 1 and on node sets that are all live, all
    # dead, empty or live at one node
    rng = stream(21, f"live-jets/{group.ident}")
    bump = random_bump(group, rng)
    n1 = group.n1
    keys = [alpha for order in range(3) for alpha in itertools.product(range(3), repeat=n1)
            if sum(alpha) == order]
    for name, levels in _live_node_sets(group, bump, rng).items():
        pts = _nodes_at_levels(group, bump, rng, levels).reshape(-1, group.n)
        live, expected = _dense_bump_jets(bump, pts)
        assert np.array_equal(live, levels < 1.0 - 1e-3), name  # the levels came out as drawn
        value, xf, xxf = bump.jets(pts, 2)
        for got, want in zip((value, xf, xxf), expected):
            np.testing.assert_array_equal(got, want, err_msg=name)
        # X^alpha applies X_a before X_b for a > b: (1, 1) is X_1 X_2 f, XXf[:, 0, 1]
        dense = {(0,) * n1: value, "L": np.zeros(len(pts))}
        for a in range(n1):
            dense[tuple(int(i == a) for i in range(n1))] = xf[:, a]
            for b in range(a, n1):
                dense[tuple(int(i == a) + int(i == b) for i in range(n1))] = xxf[:, a, b]
            dense["L"] += xxf[:, a, a]
        table = JetTable(group, bump, pts, 2)
        rows = table.rows(keys + ["L"])
        for key, row in zip(keys + ["L"], rows):
            np.testing.assert_array_equal(row, dense[key], err_msg=f"{name} {key}")
            np.testing.assert_array_equal(table[key], dense[key], err_msg=f"{name} {key}")
            assert not row[~live].any()
        np.testing.assert_array_equal(jet_rows(group, bump, keys + ["L"])(pts), np.abs(rows))


@pytest.mark.parametrize("group_id", ["e1", "h1", "h2"])
def test_gauge_bump_hessian_in_place_matches_the_expression(group_id, request):
    # the jets are formed in place; their bits are those of the expressions
    # with temporaries: the value, dpro Xu0 and d2pro Xu0 Xu0^T + dpro XXu0
    group = request.getfixturevalue(group_id)
    center = np.linspace(-0.3, 0.2, group.n)
    bump = GaugeBump(group, center, 0.9, height=1.7)
    pts = center + 0.4 * stream(16, "jets/inplace").standard_normal((64, group.n))
    live, (value, xf, expected) = _dense_bump_jets(bump, pts)
    assert live.any() and not live.all()  # points inside and outside the support
    got = bump.jets(pts, 2)
    np.testing.assert_array_equal(got[0], value)
    np.testing.assert_array_equal(got[1], xf)
    np.testing.assert_array_equal(got[2], expected)


def _unit_step_two():
    # a 3 x 2 step-2 group with random skew forms of unit largest entry
    a = stream(17, "bump-oracle/forms").standard_normal((2, 3, 3))
    forms = a - np.transpose(a, (0, 2, 1))
    return step_two_group(forms / np.abs(forms).max())


_BUMP_GROUPS = [heisenberg_group(1), heisenberg_group(2), _unit_step_two()]
_BUMP_IDS = ["heisenberg:1", "heisenberg:2", "step2:3x2"]
# (|center|, radius): the cross term T w^(1) of w = c^-1 o y, T the
# translation rows of -c, rounds at eps |T| r against |w^(2)| ~ r^2, so the
# error relative to the largest entry grows like |c| / r (1.7e-14 on H^1 at
# |c| = 3, r = 0.1); these cases keep |c| / r <= 10
_BUMP_CASES = [(0.0, 0.1), (1.0, 0.1), (3.0, 0.5), (3.0, 1.5)]


@pytest.mark.parametrize("group", _BUMP_GROUPS, ids=_BUMP_IDS)
def test_gauge_bump_jets_match_the_longdouble_oracle(group):
    # f, X_a f and X_a X_b f within 1e-14 of the largest entry, on nodes
    # filling the support's box (the dilated unit cube about the center)
    rng = stream(18, f"bump-oracle/{group.ident}")
    for norm, radius in _BUMP_CASES:
        for _ in range(3):
            direction = rng.standard_normal(group.n)
            center = norm * direction / np.linalg.norm(direction)
            bump = GaugeBump(group, center, radius, rng.uniform(0.5, 2.0))
            z = rng.uniform(-1.0, 1.0, size=(1024, group.n))
            pts = group.compose(center, group.dilate(radius, z))
            for got, want in zip(bump.jets(pts, 2), horizontal_jets_longdouble(group, bump, pts)):
                peak = float(np.max(np.abs(want)))
                assert float(np.max(np.abs(got - want))) <= 1e-14 * peak, (norm, radius)


@pytest.mark.parametrize("group", _BUMP_GROUPS, ids=_BUMP_IDS)
def test_single_point_derivatives_equal_the_batch_rows(group):
    # X^alpha f (|alpha| <= 2) and L f at one point carry the bits of that
    # point's row in a batch, on and off the bump's live set
    rng = stream(25, f"single-point/{group.ident}")
    bump = random_bump(group, rng)
    z = rng.uniform(-1.0, 1.0, (16, group.n))
    pts = group.compose(bump.support.center, group.dilate(bump.support.radius, z))
    live = bump.live_jets(pts, 0)[0]
    assert 0 < len(live) < len(pts)
    keys = [alpha for order in range(3) for alpha in itertools.product(range(3), repeat=group.n1)
            if sum(alpha) == order]
    for alpha in keys:
        batch = horizontal_derivative(group, bump, alpha, pts)
        singles = [horizontal_derivative(group, bump, alpha, x) for x in pts]
        np.testing.assert_array_equal(singles, batch, err_msg=str(alpha))
    np.testing.assert_array_equal([sub_laplacian(group, bump, x) for x in pts],
                                  sub_laplacian(group, bump, pts))


@pytest.mark.parametrize("group", _BUMP_GROUPS, ids=_BUMP_IDS)
def test_gauge_bump_derivatives_are_left_invariant_and_homogeneous(group):
    # f = f0(delta_{1/r}(c^-1 o y)), f0 the bump of the same height on B(0, 1):
    # X^alpha f(y) = r^-|alpha| (X^alpha f0)(delta_{1/r}(c^-1 o y)), |alpha| <= 2
    rng = stream(19, f"bump-covariance/{group.ident}")
    n1 = group.n1
    keys = [(0,) * n1] + [tuple(int(i == a) for i in range(n1)) for a in range(n1)]
    keys += [
        tuple(int(i == a) + int(i == b) for i in range(n1)) for a in range(n1) for b in range(a, n1)
    ]
    for norm, radius in _BUMP_CASES:
        direction = rng.standard_normal(group.n)
        center = norm * direction / np.linalg.norm(direction)
        bump = GaugeBump(group, center, radius, 1.4)
        unit = GaugeBump(group, np.zeros(group.n), 1.0, 1.4)
        pts = group.compose(center, group.dilate(radius, rng.uniform(-1, 1, (256, group.n))))
        zeta = group.dilate(1.0 / radius, group.compose(-center, pts))
        table, unit_table = JetTable(group, bump, pts, 2), JetTable(group, unit, zeta, 2)
        for alpha in keys:
            want = radius ** -sum(alpha) * unit_table[alpha]
            np.testing.assert_allclose(
                table[alpha], want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)), err_msg=str(alpha)
            )


def test_gauge_bumps_share_the_unit_polynomial_of_their_group(count_calls):
    # after a group's first bump, another bump expands no polynomial
    group = _unit_step_two()
    GaugeBump(group, [0.1, 0.2, 0.3, 0.4, 0.5], 0.7)
    calls = [count_calls(HomogeneousPolynomial, name) for name in ("power", "__init__")]
    bump = GaugeBump(group, [-2.0, 1.0, 0.5, 3.0, -1.0], 1.3)
    assert [len(made) for made in calls] == [0, 0]
    assert bump._unit is GaugeBump(group, np.zeros(5), 1.0)._unit


@pytest.mark.parametrize(
    "group", _BUMP_GROUPS + [euclidean_group(2)], ids=_BUMP_IDS + ["euclidean:2"]
)
def test_gauge_bump_jets_call_neither_compose_nor_gauge_norm(group, count_calls):
    bump = GaugeBump(group, np.linspace(-1.0, 2.0, group.n), 0.8)
    pts = stream(20, f"bump-no-law/{group.ident}").uniform(-2, 2, (64, group.n))
    calls = [count_calls(type(group), name) for name in ("compose", "gauge_norm")]
    bump.jets(pts, 2)
    assert [len(made) for made in calls] == [0, 0]
    # w = c^-1 o y up to the rounding of the cross term
    np.testing.assert_allclose(
        bump._unit_point(pts), group.compose(-bump.support.center, pts), rtol=0.0, atol=1e-14
    )


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


def test_equal_groups_share_one_unit_gauge():
    from carnotlab.carnot.functions import _unit_gauge

    assert _unit_gauge(heisenberg_group(1)) is _unit_gauge(heisenberg_group(1))
    assert _unit_gauge(heisenberg_group(1)) is not _unit_gauge(heisenberg_group(2))


# -- input checks ----------------------------------------------------------------

_H1 = heisenberg_group(1)
_BUMP = GaugeBump(_H1, [0.0, 0.0, 0.0], 1.0)
_POLY = HomogeneousPolynomial(_H1, {(1, 0, 0): 1.0})


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: CarnotGroup("g", ()), StructureError),
        (lambda: CarnotGroup("g", (2, 0)), StructureError),
        (lambda: CarnotGroup("g", (2, 1, 1)), StructureError),
        (lambda: CarnotGroup("g", (2, 1), np.zeros((1, 3, 3))), StructureError),
        (lambda: CarnotGroup("g", (2,), np.zeros((1, 2, 2))), StructureError),
        (lambda: euclidean_group(0), StructureError),
        (lambda: heisenberg_group(0), StructureError),
        (lambda: step_two_group(np.zeros((2, 2))), StructureError),
        (lambda: GaugeBall([0.0], 0.0), DomainError),
        (lambda: GaugeBall([0.0], -1.0), DomainError),
    ],
)
def test_group_input_checks(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: HomogeneousPolynomial(_H1, {(1, 0): 1.0}), StructureError),
        (lambda: HomogeneousPolynomial(_H1, {(1, -1, 0): 1.0}), StructureError),
        (lambda: _POLY.power(-1), DomainError),
        (lambda: monomial_basis(_H1, 0), DomainError),
        (lambda: _POLY * 2.0, TypeError),
        (lambda: _POLY + 1.0, TypeError),
    ],
)
def test_polynomial_input_checks(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "alpha, x, message",
    [
        ((1,), [0.1, 0.2, 0.3], "multi-index length 1"),
        ((1, 0, 0), [0.1, 0.2, 0.3], "multi-index length 3"),
        ((1, -1), [0.1, 0.2, 0.3], "nonnegative"),
        ((1, 0), [0.1, 0.2], "point dimension"),
    ],
)
def test_derivative_input_checks(alpha, x, message):
    with pytest.raises(StructureError, match=message):
        horizontal_derivative(_H1, _BUMP, alpha, x)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: _BUMP([0.1, 0.2]), StructureError),
        (lambda: _BUMP(np.ones((4, 2))), StructureError),
        (lambda: GaugeBump(_H1, [0.0, 0.0, 0.0], 0.0), DomainError),
        (lambda: GaugeBump(_H1, [0.0, 0.0, 0.0], -0.5), DomainError),
    ],
)
def test_function_input_checks(build, error):
    with pytest.raises(error):
        build()

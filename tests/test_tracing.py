"""The benchmark's tracer finds every function it instruments.

`perfbench/spans.py` wraps library functions by their module-global names;
a refactor that renames or inlines one would silently drop its span.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_instrumented_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert tracer.missing_bindings() == []
    finally:
        tracer.uninstall()
    sys.modules.pop("spans", None)


def test_tracer_counts_solver_calls_and_lstsq_on_a_leibniz_test(monkeypatch, e1):
    # the benchmark requires both counters to be non-zero on its Leibniz workload
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from carnotlab.carnot import random_bump
    from carnotlab.quad import QuadratureScheme
    from carnotlab.rng import stream
    from carnotlab.weights import BallSampler, ExponentSystem, Weight

    rng = stream(9, "tracing")
    f, g = random_bump(e1, rng), random_bump(e1, rng)
    one = Weight.one(e1)
    tracer = spans.Tracer()
    try:
        tracer.install()
        from carnotlab import lab

        lab.leibniz_test(
            e1, f, g, one, one, one, ExponentSystem(m=2, p_list=(2.0, 2.0), q=1.0, k=2),
            1.0, 1.0, 1.0, BallSampler(dim=1, count=4, r_min=0.25, r_max=4.0),
            QuadratureScheme(samples=1024, seed=11),
        )
    finally:
        tracer.uninstall()
    sys.modules.pop("spans", None)
    assert tracer.counts["lab.best_polynomial.irls.calls"] > 0
    assert tracer.counts["lab.lstsq.solves"] > 0


def test_tracer_counts_polynomial_evaluations_on_a_poincare_test(monkeypatch, h1):
    # the benchmark requires carnot.poly_eval.calls to be non-zero on its H^1
    # Poincare workload: a gauge bump that stops evaluating polynomials needs
    # that requirement relaxed first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from carnotlab.carnot import GaugeBall, GaugeBump
    from carnotlab.quad import QuadratureScheme
    from carnotlab.weights import ExponentSystem, Weight

    fs = [GaugeBump(h1, [0.1, 0.0, -0.2], 1.0), GaugeBump(h1, [-0.1, 0.2, 0.0], 1.2)]
    tracer = spans.Tracer()
    try:
        tracer.install()
        from carnotlab import lab

        lab.poincare_test(
            h1, fs, Weight.one(h1), [Weight.power(h1, 0.25)] * 2,
            ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 2.0, 1), GaugeBall([0.0, 0.0, 0.0], 1.0),
            QuadratureScheme(samples=1024, seed=5),
        )
    finally:
        tracer.uninstall()
    sys.modules.pop("spans", None)
    assert tracer.counts["carnot.poly_eval.calls"] > 0


def test_tracer_counts_annuli_integrals_on_a_weight_check(monkeypatch, h1):
    # the benchmark requires these counters to be non-zero on its H^1
    # Poincare workload, whose weight checks run the annuli scheme on the
    # singular powers of v = d^(1/4): a refactor that bypasses
    # integrate_ball, ball_term, the integrand or rng.stream drops them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from carnotlab.quad import QuadratureScheme
    from carnotlab.weights import ExponentSystem, Weight

    tracer = spans.Tracer()
    try:
        tracer.install()
        from carnotlab.lab.sweeps import check_weight_condition

        check_weight_condition(
            h1, Weight.one(h1), [Weight.power(h1, 0.25)] * 2,
            ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), 2.0, 1),
            QuadratureScheme(samples=1024, seed=5),
        )
    finally:
        tracer.uninstall()
    sys.modules.pop("spans", None)
    for name in ("quad.integrate_ball.annuli.calls", "weights.ball_term.calls",
                 "quad.integrand.points", "rng.stream.calls"):
        assert tracer.counts[name] > 0, name


def test_tracer_counts_one_mfi_call_on_a_representation_check(monkeypatch, e1):
    # the benchmark requires these counters to be non-zero on its repformula
    # workload, and carnot.fd.calls to be 0 everywhere: the rhs is one MFI
    # call on analytic jets
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from carnotlab.carnot import GaugeBall, GaugeBump
    from carnotlab.quad import QuadratureScheme

    fs = [GaugeBump(e1, [0.1], 1.0), GaugeBump(e1, [-0.2], 1.2)]
    tracer = spans.Tracer()
    try:
        tracer.install()
        from carnotlab import lab

        lab.representation_check(
            e1, fs, GaugeBall([0.0], 1.0), 2, 10, QuadratureScheme(samples=1024, seed=5)
        )
    finally:
        tracer.uninstall()
    sys.modules.pop("spans", None)
    assert tracer.counts["operators.mfi.calls"] == 1
    for name in ("quad.singular_product.calls", "carnot.jet.points"):
        assert tracer.counts[name] > 0, name
    assert tracer.counts["carnot.fd.calls"] == 0


def test_tracer_counts_gauss_rules_and_minima_on_a_counterexample(monkeypatch):
    # the benchmark requires both counters to be non-zero on its
    # counterexample workload, which bypasses the quadrature and group layers
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        from carnotlab import lab

        lab.counterexample_report(0.5, 0.5, [0.25])
    finally:
        tracer.uninstall()
    sys.modules.pop("spans", None)
    assert tracer.counts["lab.leggauss.calls"] > 0
    assert tracer.counts["lab.affine_infimum.calls"] > 0
    assert not [k for k, v in tracer.counts.items() if k.startswith(("quad.", "carnot.")) and v]

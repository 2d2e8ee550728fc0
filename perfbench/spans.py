"""Per-layer tracing of carnotlab from outside the package.

`Tracer.install()` replaces each instrumented function with a wrapper that
records a span (name, start, end, parent) and the layer's counters, and
`uninstall()` puts the originals back.  A wrapper is installed at every
name binding the package looks the function up through: every attribute
of every loaded `carnotlab` module that holds the original object, plus
the defining numpy/scipy module for the library functions.  Spans and
counts stay in memory until the run writes them out.

A layer's self time is its span's duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time

# Bindings the package is known to look each function up through.  The
# installer wraps every binding it finds; these are checked to be among them.
EXPECTED_BINDINGS = {
    ("carnotlab.quad", "sample_ball"): (
        "carnotlab.quad", "carnotlab.lab.bestpoly", "carnotlab.lab.inequalities",
    ),
    ("carnotlab.rng", "stream"): (
        "carnotlab.quad", "carnotlab.weights", "carnotlab.carnot.constants",
        "carnotlab.lab.sweeps", "carnotlab.lab.bestpoly", "carnotlab.lab.inequalities",
    ),
    ("carnotlab.quad", "lp_norm_ball"): ("carnotlab.operators", "carnotlab.lab.spaces"),
    ("scipy.optimize", "minimize"): ("carnotlab.lab.bestpoly",),
    ("numpy.linalg", "lstsq"): ("numpy.linalg",),
    ("numpy.polynomial.legendre", "leggauss"): ("numpy.polynomial.legendre",),
}

_IRLS_MAX_ITER_DEFAULT = 200


def _kw(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _regime(q):
    if q == 2.0:
        return "lsq"
    return "irls" if q >= 1.0 else "nm"


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.bindings = collections.defaultdict(list)
        self.absent = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, after=None, before=None):
        """Wrap fn in a span; `after(args, kwargs, result, snapshot)` updates
        counters, where snapshot is `before()` taken at entry."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            snap = before() if before is not None else None
            idx = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result, snap)
            return result

        return wrapper

    def _counted_integrand(self, f):
        counts = self.counts

        def integrand(pts):
            counts["quad.integrand.points"] += len(pts)
            return f(pts)

        return integrand

    def self_times(self):
        """name -> (inclusive seconds, self seconds) summed over spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = collections.defaultdict(lambda: [0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += end - start
            out[name][1] += end - start - covered[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    # -- instruments ----------------------------------------------------------

    def _instruments(self):
        """(defining module, attribute or Class.method, wrapper factory)."""
        c = self.counts

        def sample_ball(fn):
            def after(args, kwargs, result, drawn_before):
                c["quad.sample_ball.calls"] += 1
                c["quad.sample_ball.nodes"] += len(result)
                c["quad.sample_ball.drawn"] += c["carnot.gauge_norm.points"] - drawn_before

            return self.span("quad.sample_ball", fn, after, lambda: c["carnot.gauge_norm.points"])

        def counting_integrand(name, pos, kwname, count):
            """A span that counts the call and the points its integrand sees."""

            def factory(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    count(args, kwargs)
                    if len(args) > pos:
                        args = (*args[:pos], self._counted_integrand(args[pos]), *args[pos + 1:])
                    else:
                        kwargs[kwname] = self._counted_integrand(kwargs[kwname])
                    return fn(*args, **kwargs)

                return self.span(name, wrapper)

            return factory

        def count_integrate_ball(args, kwargs):
            c[f"quad.integrate_ball.{_kw(args, kwargs, 3, 'scheme').kind}.calls"] += 1

        def count_singular_product(args, kwargs):
            c["quad.singular_product.calls"] += 1

        def rhs(fn):
            def after(args, kwargs, result, norms_before):
                c["operators.rhs.calls"] += 1
                c["operators.rhs.norms"] += c["quad.lp_norm_ball.calls"] - norms_before

            return self.span("operators.rhs", fn, after, lambda: c["quad.lp_norm_ball.calls"])

        def best_polynomial(fn):
            bestpoly = sys.modules.get("carnotlab.lab.bestpoly")
            cap = 1 + getattr(bestpoly, "_IRLS_MAX_ITER", _IRLS_MAX_ITER_DEFAULT)

            def label(args, kwargs):
                return f"lab.best_polynomial.{_regime(float(_kw(args, kwargs, 3, 'q')))}"

            def after(args, kwargs, result, solves_before):
                regime = _regime(float(_kw(args, kwargs, 3, "q")))
                c[f"lab.best_polynomial.{regime}.calls"] += 1
                if regime == "irls" and c["lab.lstsq.solves"] - solves_before >= cap:
                    c["lab.irls.cap_hits"] += 1

            return self.span(label, fn, after, lambda: c["lab.lstsq.solves"])

        def minimize(fn):
            def after(args, kwargs, result, snap):
                c["lab.nelder_mead.nfev"] += int(result.nfev)
                c["lab.nelder_mead.unsuccessful"] += int(not result.success)

            return self.span("lab.nelder_mead", fn, after)

        def affine_infimum(fn):
            def after(args, kwargs, result, snap):
                c["lab.affine_infimum.calls"] += 1
                c["lab.affine_infimum.unconverged"] += int(not result["converged"])

            return self.span("lab.affine_infimum", fn, after)

        def plain(name, key=None, points=False):
            """A span, counting calls (or the points in the result) under key."""

            def after(args, kwargs, result, snap):
                c[key] += result.size if points else 1

            return lambda fn: self.span(name, fn, after if key else None)

        return [
            ("carnotlab.carnot.group", "CarnotGroup.gauge_norm",
             plain("carnot.gauge_norm", "carnot.gauge_norm.points", points=True)),
            ("carnotlab.carnot.polynomials", "HomogeneousPolynomial.__call__",
             plain("carnot.poly_eval", "carnot.poly_eval.calls")),
            ("carnotlab.carnot.derivatives", "_first_order_jet",
             plain("carnot.jet", "carnot.jet.points", points=True)),
            ("carnotlab.carnot.derivatives", "_second_order_jet",
             plain("carnot.jet", "carnot.jet.points", points=True)),
            ("carnotlab.carnot.derivatives", "_fd_along_generator",
             plain("carnot.fd", "carnot.fd.calls")),
            ("carnotlab.quad", "sample_ball", sample_ball),
            ("carnotlab.quad", "lp_norm_ball", plain("quad.lp_norm_ball", "quad.lp_norm_ball.calls")),
            ("carnotlab.quad", "integrate_ball",
             counting_integrand("quad.integrate_ball", 1, "f", count_integrate_ball)),
            ("carnotlab.quad", "integrate_singular_product",
             counting_integrand("quad.singular_product", 2, "integrand", count_singular_product)),
            ("carnotlab.operators", "poincare_rhs", rhs),
            ("carnotlab.operators", "multilinear_fractional_integral",
             plain("operators.mfi", "operators.mfi.calls")),
            ("carnotlab.weights", "ball_term", plain("weights.ball_term", "weights.ball_term.calls")),
            ("carnotlab.weights", "weight_condition_sup", plain("weights.weight_sup")),
            ("carnotlab.lab.bestpoly", "best_polynomial", best_polynomial),
            ("numpy.linalg", "lstsq", plain("lab.lstsq", "lab.lstsq.solves")),
            ("scipy.optimize", "minimize", minimize),
            ("carnotlab.lab.spaces", "campanato_norm", plain("lab.campanato_norm")),
            ("carnotlab.lab.spaces", "morrey_norm", plain("lab.morrey_norm")),
            ("carnotlab.lab.inequalities", "poincare_test", plain("lab.poincare_test")),
            ("carnotlab.lab.inequalities", "representation_check",
             plain("lab.representation_check")),
            ("carnotlab.lab.spaces", "leibniz_test", plain("lab.leibniz_test")),
            ("carnotlab.lab.counterexample", "counterexample_report",
             plain("lab.counterexample_report")),
            ("numpy.polynomial.legendre", "leggauss", plain("lab.leggauss", "lab.leggauss.calls")),
            ("carnotlab.lab.counterexample", "affine_infimum", affine_infimum),
            ("carnotlab.rng", "stream", plain("rng.stream", "rng.stream.calls")),
        ]

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, value, label):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)
        self.bindings[label].append(getattr(owner, "__name__", str(owner)))

    def install(self):
        """Wrap every binding of every instrument; returns self."""
        importlib.import_module("carnotlab.lab")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "carnotlab" or name.startswith("carnotlab."))]
        for mod_name, attr, factory in self._instruments():
            label = f"{mod_name}.{attr}"
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    self.absent.append(label)
                    continue
                self._patch(cls, meth, factory(cls.__dict__[meth]), label)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            wrapper = factory(original)
            owners = [module] + [m for m in modules if m is not module]
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, name, wrapper, label)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def missing_bindings(self):
        """Expected bindings that exist but were left unwrapped."""
        missing = []
        for (mod_name, attr), owners in EXPECTED_BINDINGS.items():
            label = f"{mod_name}.{attr}"
            for owner in owners:
                module = sys.modules.get(owner)
                if hasattr(module, attr) and owner not in self.bindings[label]:
                    missing.append(f"{owner}.{attr}")
        return missing


# -- per-layer metrics ------------------------------------------------------------


def _ratio(a, b):
    return a / b if b else 0.0


# (name, unit, better, value(counts, times, ops_per_round)); counts and times
# are per traced round, times as (inclusive seconds, self seconds)
PER_LAYER = [
    ("carnot.poly_eval.calls", "count", "lower", lambda c, t, ops: c["carnot.poly_eval.calls"]),
    ("carnot.poly_eval.s", "s", "lower", lambda c, t, ops: t["carnot.poly_eval"][0]),
    ("carnot.jet.points", "count", "lower", lambda c, t, ops: c["carnot.jet.points"]),
    ("carnot.jet.s", "s", "lower", lambda c, t, ops: t["carnot.jet"][0]),
    ("carnot.fd.calls", "count", "lower", lambda c, t, ops: c["carnot.fd.calls"]),
    ("carnot.gauge_norm.points", "count", "lower", lambda c, t, ops: c["carnot.gauge_norm.points"]),
    ("carnot.gauge_norm.s", "s", "lower", lambda c, t, ops: t["carnot.gauge_norm"][0]),
    ("quad.sample_ball.calls", "count", "lower", lambda c, t, ops: c["quad.sample_ball.calls"]),
    ("quad.sample_ball.nodes", "count", "lower", lambda c, t, ops: c["quad.sample_ball.nodes"]),
    ("quad.sample_ball.s", "s", "lower", lambda c, t, ops: t["quad.sample_ball"][0]),
    ("quad.sample_ball.accept_ratio", "ratio", "higher",
     lambda c, t, ops: _ratio(c["quad.sample_ball.nodes"], c["quad.sample_ball.drawn"])),
    ("quad.lp_norm_ball.calls", "count", "lower", lambda c, t, ops: c["quad.lp_norm_ball.calls"]),
    ("quad.lp_norm_ball.s", "s", "lower", lambda c, t, ops: t["quad.lp_norm_ball"][0]),
    ("quad.integrate_ball.uniform.calls", "count", "lower",
     lambda c, t, ops: c["quad.integrate_ball.uniform.calls"]),
    ("quad.integrate_ball.annuli.calls", "count", "lower",
     lambda c, t, ops: c["quad.integrate_ball.annuli.calls"]),
    ("quad.integrand.points", "count", "lower", lambda c, t, ops: c["quad.integrand.points"]),
    ("quad.singular_product.calls", "count", "lower",
     lambda c, t, ops: c["quad.singular_product.calls"]),
    ("quad.singular_product.s", "s", "lower", lambda c, t, ops: t["quad.singular_product"][0]),
    ("operators.rhs.calls", "count", "lower", lambda c, t, ops: c["operators.rhs.calls"]),
    ("operators.rhs.s", "s", "lower", lambda c, t, ops: t["operators.rhs"][0]),
    ("operators.norms_per_rhs", "count/call", "lower",
     lambda c, t, ops: _ratio(c["operators.rhs.norms"], c["operators.rhs.calls"])),
    ("operators.mfi.calls", "count", "lower", lambda c, t, ops: c["operators.mfi.calls"]),
    ("operators.mfi.s", "s", "lower", lambda c, t, ops: t["operators.mfi"][0]),
    ("operators.mfi_per_op", "count/op", "lower",
     lambda c, t, ops: _ratio(c["operators.mfi.calls"], ops)),
    ("weights.ball_term.calls", "count", "lower", lambda c, t, ops: c["weights.ball_term.calls"]),
    ("weights.ball_term.s", "s", "lower", lambda c, t, ops: t["weights.ball_term"][0]),
    ("weights.weight_sup.s", "s", "lower", lambda c, t, ops: t["weights.weight_sup"][0]),
    *[
        metric
        for regime in ("lsq", "irls", "nm")
        for metric in (
            (f"lab.best_polynomial.{regime}.calls", "count", "lower",
             lambda c, t, ops, r=regime: c[f"lab.best_polynomial.{r}.calls"]),
            (f"lab.best_polynomial.{regime}.self_s", "s", "lower",
             lambda c, t, ops, r=regime: t[f"lab.best_polynomial.{r}"][1]),
        )
    ],
    ("lab.lstsq.solves", "count", "lower", lambda c, t, ops: c["lab.lstsq.solves"]),
    ("lab.irls.cap_hits", "count", "lower", lambda c, t, ops: c["lab.irls.cap_hits"]),
    ("lab.nelder_mead.nfev", "count", "lower", lambda c, t, ops: c["lab.nelder_mead.nfev"]),
    ("lab.nelder_mead.unsuccessful", "count", "lower",
     lambda c, t, ops: c["lab.nelder_mead.unsuccessful"]),
    ("lab.poincare_test.self_s", "s", "lower", lambda c, t, ops: t["lab.poincare_test"][1]),
    ("lab.representation_check.self_s", "s", "lower",
     lambda c, t, ops: t["lab.representation_check"][1]),
    ("lab.leibniz_test.self_s", "s", "lower", lambda c, t, ops: t["lab.leibniz_test"][1]),
    ("lab.campanato_norm.s", "s", "lower", lambda c, t, ops: t["lab.campanato_norm"][0]),
    ("lab.morrey_norm.s", "s", "lower", lambda c, t, ops: t["lab.morrey_norm"][0]),
    ("lab.leggauss.calls", "count", "lower", lambda c, t, ops: c["lab.leggauss.calls"]),
    ("lab.leggauss.s", "s", "lower", lambda c, t, ops: t["lab.leggauss"][0]),
    ("lab.affine_infimum.calls", "count", "lower", lambda c, t, ops: c["lab.affine_infimum.calls"]),
    ("lab.affine_infimum.s", "s", "lower", lambda c, t, ops: t["lab.affine_infimum"][0]),
    ("lab.affine_infimum.unconverged", "count", "lower",
     lambda c, t, ops: c["lab.affine_infimum.unconverged"]),
    ("rng.stream.calls", "count", "lower", lambda c, t, ops: c["rng.stream.calls"]),
    ("rng.stream.s", "s", "lower", lambda c, t, ops: t["rng.stream"][0]),
]

# Coverage pattern.  Metrics under a prefix must be zero outside the named
# workloads; the listed metrics must be non-zero on their workload.  A
# wrapper missing from a binding shows up as a false zero here.
ZERO_OUTSIDE = {
    "carnot.": ("poincare-h1", "repformula-e1", "leibniz-e1"),
    "quad.": ("poincare-h1", "repformula-e1", "leibniz-e1"),
    "operators.": ("poincare-h1", "repformula-e1"),
    "operators.mfi": ("repformula-e1",),
    "quad.singular_product": ("repformula-e1",),
    "quad.integrate_ball.annuli": ("poincare-h1",),
    "weights.": ("poincare-h1",),
    "carnot.fd": (),
    "lab.best_polynomial.": ("poincare-h1", "repformula-e1", "leibniz-e1"),
    "lab.best_polynomial.nm": ("poincare-h1",),
    "lab.lstsq": ("poincare-h1", "repformula-e1", "leibniz-e1"),
    "lab.irls": ("poincare-h1", "leibniz-e1"),
    "lab.nelder_mead": ("poincare-h1",),
    "lab.poincare_test": ("poincare-h1",),
    "lab.representation_check": ("repformula-e1",),
    "lab.leibniz_test": ("leibniz-e1",),
    "lab.campanato_norm": ("leibniz-e1",),
    "lab.morrey_norm": ("leibniz-e1",),
    "lab.leggauss": ("counterexample",),
    "lab.affine_infimum": ("counterexample",),
}
_SAMPLING = ("carnot.gauge_norm.points", "carnot.jet.points", "quad.sample_ball.calls",
             "quad.integrand.points", "rng.stream.calls")
NONZERO = {
    "poincare-h1": _SAMPLING + (
        "carnot.poly_eval.calls", "quad.lp_norm_ball.calls", "quad.integrate_ball.uniform.calls",
        "quad.integrate_ball.annuli.calls", "operators.rhs.calls", "weights.ball_term.calls",
        "weights.weight_sup.s", "lab.best_polynomial.lsq.calls", "lab.best_polynomial.irls.calls",
        "lab.best_polynomial.nm.calls", "lab.lstsq.solves", "lab.nelder_mead.nfev",
        "lab.poincare_test.self_s",
    ),
    "repformula-e1": _SAMPLING + (
        "operators.mfi.calls", "quad.singular_product.calls", "lab.best_polynomial.lsq.calls",
        "lab.lstsq.solves", "lab.representation_check.self_s",
    ),
    "leibniz-e1": _SAMPLING + (
        "quad.lp_norm_ball.calls", "quad.integrate_ball.uniform.calls",
        "lab.best_polynomial.irls.calls", "lab.lstsq.solves", "lab.campanato_norm.s",
        "lab.morrey_norm.s", "lab.leibniz_test.self_s",
    ),
    "counterexample": ("lab.leggauss.calls", "lab.affine_infimum.calls"),
}


def layer_metrics(tracer, rounds, ops_per_round):
    """Every PER_LAYER metric, per traced round."""
    counts = {k: v / rounds for k, v in tracer.counts.items()}
    times = {k: (v[0] / rounds, v[1] / rounds) for k, v in tracer.self_times().items()}
    c = collections.defaultdict(float, counts)
    t = collections.defaultdict(lambda: (0.0, 0.0), times)
    return {name: (float(fn(c, t, ops_per_round)), unit) for name, unit, _, fn in PER_LAYER}


def coverage_violations(workload, metrics):
    """Messages for every metric that breaks the zero/non-zero pattern."""
    out = []
    for name, (value, _) in metrics.items():
        for prefix, allowed in ZERO_OUTSIDE.items():
            if name.startswith(prefix) and workload not in allowed and value != 0.0:
                out.append(f"{name} = {value:g}, expected 0 on {workload}")
    for name in NONZERO[workload]:
        if metrics[name][0] == 0.0:
            out.append(f"{name} = 0, expected non-zero on {workload}")
    return out

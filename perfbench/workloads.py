"""The four benchmark workloads: input generation, lab calls, checks.

A workload is built in two steps.  `build(name, seed)` imports carnotlab,
constructs the groups and the seeded inputs, and fills the package's lazy
caches; that is the set-up the benchmark times.  The returned object
exposes `steps()`: one round, a fixed sequence of steps, each either an
op (one timed lab call whose results are checked) or work between ops
(timed only as part of the wall time).

`step.run(digest)` feeds every number the step produced to the digest.
The same inputs give the same digest, in any round and any run.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

POINCARE_BLOCKS = ((1.0, 2), (0.8, 1), (2.0, 1))  # (q, k)
POINCARE_TRIALS_PER_BLOCK = 64
REPFORMULA_PAIRS = 72
LEIBNIZ_CONFIGS = 96
COUNTEREXAMPLE_TABLES = ((0.5, 1.0), (0.75, 2.0), (0.5, 0.5))  # (p, q)
COUNTEREXAMPLE_EPS = tuple(2.0**-e for e in range(2, 9))
KNOWN_ANSWER_TOL = 1e-8


class Digest:
    """SHA-256 over the exact bits of every number a step produced."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, str):
                self._h.update(v.encode())
            else:
                self._h.update(struct.pack("<d", float(v)))

    def hexdigest(self):
        return self._h.hexdigest()


class Workload:
    min_rounds = 1  # rounds a run makes even when they overrun --seconds


class Step:
    """One step of a round.  For an op, `run(digest)` returns (results,
    failed) and `results` is how many results it yields: one result is one
    trial report, one representation pair, one Leibniz config or one
    counterexample row.  Work between ops yields none."""

    def __init__(self, label, run, results=1):
        self.label = label
        self.run = run
        self.results = results


def _finite(x):
    return math.isfinite(float(x))


class Strata:
    """Latin-hypercube draws: each call returns n values of one input, one
    in each of n equal strata of its range, in random order.  Every seed
    then covers the input space evenly, so the mix of cheap and costly
    inputs, and with it the run's timings, varies little between seeds."""

    def __init__(self, rng, n):
        self.rng = rng
        self.n = n

    def uniform(self, lo, hi, size=None):
        cols = 1 if size is None else size
        u = np.stack([(self.rng.permutation(self.n) + self.rng.random(self.n)) / self.n
                      for _ in range(cols)], axis=-1)
        u = lo + (hi - lo) * u
        return u[:, 0] if size is None else u

    def log_uniform(self, lo, hi):
        return np.exp(self.uniform(math.log(lo), math.log(hi)))


def _bumps(GaugeBump, group, strata, center_box, radius_range):
    """strata.n gauge bumps with stratified centers, radii and heights."""
    centers = strata.uniform(-center_box, center_box, size=group.n)
    radii = strata.log_uniform(*radius_range)
    heights = strata.uniform(0.5, 2.0)
    return [GaugeBump(group, c, float(r), float(h)) for c, r, h in zip(centers, radii, heights)]


def _scheme(scheme_cls, samples, rng):
    """A uniform scheme with its own seed: every op samples its own nodes
    (and, for the samplers keyed by the scheme seed, its own balls)."""
    return scheme_cls(kind="uniform", samples=samples, seed=int(rng.integers(2**63)))


# -- poincare-h1 ----------------------------------------------------------------


class PoincareH1(Workload):
    """poincare_test on H^1: three (q, k) blocks, each opened by a weight check."""

    name = "poincare-h1"

    def __init__(self, seed):
        from carnotlab.carnot import GaugeBall, GaugeBump, heisenberg_group, volume_constant
        import carnotlab.lab as lab
        from carnotlab.lab.sweeps import check_weight_condition
        from carnotlab.quad import QuadratureScheme
        from carnotlab.weights import ExponentSystem, Weight

        self._lab = lab
        self._check_weight_condition = check_weight_condition
        group = heisenberg_group(1)
        volume_constant(group)
        self.group = group
        self.u = Weight.one(group)
        self.vs = [Weight.power(group, 0.25), Weight.power(group, 0.25)]
        rng = np.random.default_rng([seed, 1])
        self.blocks = []
        for q, k in POINCARE_BLOCKS:
            system = ExponentSystem(2, (4.0 / 3.0, 4.0 / 3.0), q, k)
            check_scheme = _scheme(QuadratureScheme, 4096, rng)
            strata = Strata(rng, POINCARE_TRIALS_PER_BLOCK)
            fs = [_bumps(GaugeBump, group, strata, 1.0, (0.4, 1.5)) for _ in range(2)]
            centers = strata.uniform(-0.5, 0.5, size=group.n)
            radii = strata.log_uniform(0.5, 2.0)
            trials = [
                ((f1, f2), GaugeBall(c, float(r)), _scheme(QuadratureScheme, 4096, rng))
                for f1, f2, c, r in zip(*fs, centers, radii)
            ]
            self.blocks.append((system, check_scheme, trials))

    def steps(self):
        steps = []
        for b_idx, (system, check_scheme, trials) in enumerate(self.blocks):
            state = {}

            def check(digest, system=system, scheme=check_scheme, state=state):
                out = self._check_weight_condition(self.group, self.u, self.vs, system, scheme)
                state["verdict"] = out["verdict"]
                digest.add(out["verdict"], out["exponent"])

            steps.append(Step(f"weight-check/{b_idx}", check, results=0))
            for i, (fs, ball, scheme) in enumerate(trials):

                def trial(digest, system=system, fs=fs, ball=ball, scheme=scheme, state=state,
                          op_id=f"bench/{b_idx}/{i}"):
                    rep = self._lab.poincare_test(
                        self.group, list(fs), self.u, self.vs, system, ball, scheme,
                        weight_verdict=state["verdict"], op_id=op_id,
                    )
                    digest.add(rep.lhs.value, rep.lhs.std_error, rep.rhs.value, rep.rhs.std_error,
                               rep.ratio, *rep.flags)
                    ok = _finite(rep.ratio) and not rep.flags
                    return 1, 0 if ok else 1

                steps.append(Step(f"trial/{b_idx}/{i}", trial))
        return steps


# -- repformula-e1 --------------------------------------------------------------


class RepformulaE1(Workload):
    """representation_check on R^1 with m = 2, k = 2, 50 points per pair."""

    name = "repformula-e1"

    def __init__(self, seed):
        from carnotlab.carnot import GaugeBall, GaugeBump, euclidean_group, volume_constant
        import carnotlab.lab as lab
        from carnotlab.quad import QuadratureScheme

        self._lab = lab
        group = euclidean_group(1)
        volume_constant(group)
        self.group = group
        self.ball = GaugeBall(group.identity(), 1.0)
        rng = np.random.default_rng([seed, 2])
        strata = Strata(rng, REPFORMULA_PAIRS)
        fs = [_bumps(GaugeBump, group, strata, 0.4, (0.8, 1.6)) for _ in range(2)]
        self.pairs = [([f1, f2], _scheme(QuadratureScheme, 4096, rng)) for f1, f2 in zip(*fs)]

    def steps(self):
        steps = []
        for i, (fs, scheme) in enumerate(self.pairs):

            def pair(digest, fs=fs, scheme=scheme, op_id=f"bench/{i}"):
                records, summary = self._lab.representation_check(
                    self.group, fs, self.ball, 2, 50, scheme, op_id=op_id
                )
                ok = _finite(summary["max_ratio"])
                for rec in records:
                    digest.add(rec["lhs"], rec["rhs"], rec["rhs_std_error"], rec["ratio"])
                    ok = ok and (_finite(rec["ratio"]) or rec["lhs"] == 0.0)
                digest.add(summary["max_ratio"])
                return 1, 0 if ok else 1

            steps.append(Step(f"pair/{i}", pair))
        return steps


# -- leibniz-e1 -----------------------------------------------------------------


class LeibnizE1(Workload):
    """leibniz_test on R^1 at the CLI defaults: k = 2, q = 1, p = (2, 2)."""

    name = "leibniz-e1"

    def __init__(self, seed):
        from carnotlab.carnot import GaugeBump, euclidean_group, volume_constant
        import carnotlab.lab as lab
        from carnotlab.quad import QuadratureScheme
        from carnotlab.weights import BallSampler, ExponentSystem, Weight

        self._lab = lab
        group = euclidean_group(1)
        volume_constant(group)
        self.group = group
        self.one = Weight.one(group)
        self.system = ExponentSystem(2, (2.0, 2.0), 1.0, 2)
        self.sampler = BallSampler(dim=1, count=16, r_min=0.25, r_max=4.0)
        rng = np.random.default_rng([seed, 3])
        self.known_scheme = _scheme(QuadratureScheme, 2048, rng)
        strata = Strata(rng, LEIBNIZ_CONFIGS)
        fs = [_bumps(GaugeBump, group, strata, 1.0, (0.4, 1.5)) for _ in range(2)]
        self.configs = [((f, g), _scheme(QuadratureScheme, 2048, rng)) for f, g in zip(*fs)]

    def _call(self, f, g, scheme, op_id):
        return self._lab.leibniz_test(
            self.group, f, g, self.one, self.one, self.one, self.system,
            1.0, 1.0, 1.0, self.sampler, scheme, op_id=op_id,
        )

    def known_answer(self):
        """A product of polynomials of degree < k is its own best polynomial."""
        from carnotlab.carnot import HomogeneousPolynomial

        f = HomogeneousPolynomial.constant(self.group, 1.5)
        g = HomogeneousPolynomial(self.group, {(0,): 1.0, (1,): 0.5})
        rep = self._call(f, g, self.known_scheme, "bench/known-answer")
        return rep.lhs.value <= KNOWN_ANSWER_TOL, f"polynomial product lhs = {rep.lhs.value:.3g}"

    def steps(self):
        steps = []
        for i, ((f, g), scheme) in enumerate(self.configs):

            def config(digest, f=f, g=g, scheme=scheme, op_id=f"bench/{i}"):
                rep = self._call(f, g, scheme, op_id)
                digest.add(rep.lhs.value, rep.lhs.std_error, rep.rhs.value, rep.rhs.std_error,
                           rep.ratio, *rep.flags)
                ok = _finite(rep.ratio) and not rep.flags
                return 1, 0 if ok else 1

            steps.append(Step(f"config/{i}", config))
        return steps


# -- counterexample -------------------------------------------------------------


class Counterexample(Workload):
    """counterexample_report for three (p, q) tables; deterministic, seed ignored."""

    name = "counterexample"
    # three long deterministic ops a round: more rounds give each table a
    # median latency instead of one noisy sample
    min_rounds = 4

    def __init__(self, seed):
        import carnotlab.lab as lab

        self._lab = lab
        self.floors = {q: lab.affine_distance_floor(q) for _, q in COUNTEREXAMPLE_TABLES}

    def steps(self):
        steps = []
        for p, q in COUNTEREXAMPLE_TABLES:

            def table(digest, p=p, q=q):
                rows = self._lab.counterexample_report(p, q, list(COUNTEREXAMPLE_EPS))
                slope = self._lab.fit_scaling_slope(rows)
                slope_ok = abs(slope - (1.0 - p)) <= 0.02 * (1.0 - p)
                failed = 0
                for row in rows:
                    digest.add(row["R"], row["L"], row["a"], row["b"], row["ratio"],
                               float(row["converged"]))
                    if not (slope_ok and row["converged"] and row["L"] >= self.floors[q]):
                        failed += 1
                digest.add(slope)
                return len(rows), failed

            steps.append(Step(f"table/p{p}/q{q}", table, results=len(COUNTEREXAMPLE_EPS)))
        return steps


WORKLOADS = {cls.name: cls for cls in (PoincareH1, RepformulaE1, LeibnizE1, Counterexample)}


def build(name, seed):
    return WORKLOADS[name](seed)

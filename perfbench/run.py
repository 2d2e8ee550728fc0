"""carnotlab benchmark: one closed-loop caller drives one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; carnotlab is imported from its `src/`.
Workloads (see workloads.py): poincare-h1, repformula-e1, leibniz-e1,
counterexample.  The caller makes the lab calls one after another, in
whole rounds over a fixed pool of inputs: the workload's minimum number of
rounds, and more while another fits in `--seconds`.  Every round must
reproduce the first one's output digests; after a single round, its first
steps are run again instead.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 runs one untraced round and one traced round, and prints the
per-layer metrics of the traced round plus the tracing overhead; the spans
go to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat the metrics with
their units, the output digest and the machine.  Exit code 3 means a
benchmark error (no carnotlab tree, a digest mismatch, a broken coverage
pattern); no result is printed then.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("poincare-h1", "repformula-e1", "leibniz-e1", "counterexample")
SETUP_SAMPLES = 5  # set-ups per run: this process plus SETUP_SAMPLES - 1 fresh ones
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# kernel mix: the weights that tracked the workloads' own times best, on a
# shared 2-core VM, were about 30% small-array work and 70% large temporaries
REF_ITERATIONS = 10
REF_GRID_PASSES = 2
REF_NOMINAL_S = 0.008  # reference kernel time at the nominal speed
TICK_INTERVAL_S = 0.2
TICK_WINDOW = 9
SETUP_TICKS = TICK_WINDOW  # kernel runs that gauge the speed a set-up ran at
RECHECK_STEPS = 3  # steps run again after the timed rounds to check determinism


class BenchmarkError(Exception):
    pass


def setup(workload, seed):
    """Import carnotlab from the tree under test and build the workload.

    Returns (set-up seconds at the nominal speed, the built workload)."""
    start = time.perf_counter()
    if not (SRC / "carnotlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no carnotlab source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import carnotlab

    if Path(carnotlab.__file__).resolve().parent != SRC / "carnotlab":
        raise BenchmarkError(f"carnotlab imported from {carnotlab.__file__}, not from {SRC}")
    import workloads

    built = workloads.build(workload, seed)
    end = time.perf_counter()
    speed = Speedometer()
    for _ in range(SETUP_TICKS):
        speed.tick()
    return (end - start) * REF_NOMINAL_S / statistics.median(t for _, t in speed.ticks), built


def setup_in_fresh_process(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Speedometer:
    """Tracks the machine's speed with a fixed reference kernel.

    Shared hosts drift in speed by up to 1.8x over tens of seconds.  The
    kernel (numpy on 2048-point arrays, a small lstsq, a Python loop and
    fresh megabyte-sized temporaries: the mix carnotlab runs) is timed
    before a step whenever TICK_INTERVAL_S has passed since the last run,
    and after the last step.  A step's time is scaled by REF_NOMINAL_S over
    the median of the TICK_WINDOW kernel times nearest to the step, which
    reports it at the nominal speed.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(-1.0, 1.0, 2048)
        self._a = np.vander(self._x, 6)
        self._grid = np.linspace(-2.0, 2.0, 200)
        self._lstsq = np.linalg.lstsq  # bound now, so tracing never counts it
        self.ticks = []  # (start, kernel seconds)

    def _kernel(self):
        np, x = self._np, self._x
        total = 0.0
        for i in range(REF_ITERATIONS):
            y = np.exp(-x * x * (1 + i)) * np.abs(x) ** 1.5
            total += float(np.sort(y)[1000]) + float(self._lstsq(self._a, y, rcond=None)[0][0])
            total += sum({j: 0.5 * j for j in range(200)}.values())
        # fresh multi-megabyte temporaries, as in the counterexample's grid search
        for _ in range(REF_GRID_PASSES):
            total += float(np.sum(np.abs(x[None, :] - self._grid[:, None]) ** 0.5))
        return total

    def tick(self, force=True):
        start = time.perf_counter()
        if force or not self.ticks or start - self.ticks[-1][0] >= TICK_INTERVAL_S:
            self._kernel()
            self.ticks.append((start, time.perf_counter() - start))

    @property
    def spent(self):
        return sum(t for _, t in self.ticks)

    def factor(self, start):
        """Scale for a step that started at `start`: from the TICK_WINDOW
        kernel runs nearest to it, half before and half after."""
        i = bisect.bisect_right([s for s, _ in self.ticks], start)
        half = TICK_WINDOW // 2
        near = [t for _, t in self.ticks[max(0, i - half - 1):i + half]]
        return REF_NOMINAL_S / statistics.median(near)


class Measurement:
    """Latencies, result counts and digests of whole rounds."""

    def __init__(self):
        self.step_times = []  # every step, ops and work between them
        self.step_starts = []  # perf_counter() at the start of every step
        self.op_steps = []  # index into step_times of each op
        self.raw_latencies = []
        self.latencies = []
        self.results = 0
        self.failed_results = 0
        self.errors = 0
        self.step_digests = []  # per round, the digest of each step
        self.raw_wall = 0.0
        self.wall = 0.0

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def rounds(self):
        return len(self.step_digests)

    @property
    def digest(self):
        return hashlib.sha256("".join(self.step_digests[0]).encode()).hexdigest()

    def normalise(self, speed):
        factors = [speed.factor(start) for start in self.step_starts]
        self.latencies = [self.step_times[i] * factors[i] for i in self.op_steps]
        self.wall = sum(t * f for t, f in zip(self.step_times, factors))

    def per_input(self, latencies):
        """Latency of each distinct op: the median over the rounds that ran it."""
        per_round = len(latencies) // self.rounds
        return [statistics.median(latencies[i::per_round]) for i in range(per_round)]


def run_step(step, m):
    import workloads

    digest = workloads.Digest()
    try:
        out = step.run(digest)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        digest.add("error")
        m.errors += 1
        out = (step.results, step.results)
    return out, digest.hexdigest()


def measure(built, seconds, speed, rounds=None):
    """Run whole rounds: `rounds` of them, or else as many as fit in
    `seconds`, at least the workload's minimum.  Every round must give the
    same digests."""
    m = Measurement()
    speed.ticks.clear()
    start = time.perf_counter()
    while True:
        digests = []
        for step in built.steps():
            speed.tick(force=False)
            t0 = time.perf_counter()
            out, digest = run_step(step, m)
            t1 = time.perf_counter()
            digests.append(digest)
            m.step_times.append(t1 - t0)
            m.step_starts.append(t0)
            if step.results:
                m.op_steps.append(len(m.step_times) - 1)
                m.raw_latencies.append(t1 - t0)
                m.results += out[0]
                m.failed_results += out[1]
        m.step_digests.append(digests)
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if m.rounds == rounds:
                break
        elif m.rounds >= built.min_rounds and elapsed * (m.rounds + 1) / m.rounds > seconds:
            break
    speed.tick()
    m.raw_wall = time.perf_counter() - start - speed.spent
    m.normalise(speed)
    if any(d != m.step_digests[0] for d in m.step_digests):
        raise BenchmarkError("output digest differs between rounds")
    return m


def recheck(built, m):
    """Run the first RECHECK_STEPS steps again; they must reproduce their digests."""
    for i, step in enumerate(built.steps()[:RECHECK_STEPS]):
        if run_step(step, m)[1] != m.step_digests[0][i]:
            raise BenchmarkError(f"step {step.label} gave another digest when run again")


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that
    keeps TAIL_BEYOND samples above it, or the maximum if there are fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def machine_info():
    import numpy
    import scipy

    def blas(mod):
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def end_to_end(workload, seed, seconds):
    setups = [setup_in_fresh_process(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    own_setup, built = setup(workload, seed)
    setups.append(own_setup)
    notes = []
    ok = True
    if hasattr(built, "known_answer"):
        try:
            ok, detail = built.known_answer()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, detail = False, "raised"
        notes.append(f"known answer: {'pass' if ok else 'FAIL'} ({detail})")
    m = measure(built, seconds, Speedometer())
    if m.rounds == 1:
        recheck(built, m)
    per_input = m.per_input(m.latencies)
    raw_per_input = m.per_input(m.raw_latencies)
    tail_s, tail_pct, beyond = tail(per_input)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (m.ops / m.wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(per_input), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "pass_fraction": (1.0 - m.failed_results / m.results, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes += [
        f"failed_fraction: {m.failed_results / m.results:.6g} ratio "
        f"({m.failed_results} of {m.results} results failed their check)",
        f"op_p50_ms and op_tail_ms are over {len(per_input)} distinct ops, each the median "
        f"of its {m.rounds} rounds; op_tail_ms is p{tail_pct:.1f}, {beyond} samples beyond it",
        f"rounds: {m.rounds}, op errors: {m.errors}; at nominal speed: wall {m.wall:.3f} s",
        f"as measured: wall {m.raw_wall:.3f} s, ops_per_s {m.ops / m.raw_wall:.6g} 1/s, "
        f"op_p50_ms {1e3 * statistics.median(raw_per_input):.6g} ms, "
        f"op_tail_ms {1e3 * tail(raw_per_input)[0]:.6g} ms",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"digest: {m.digest}",
    ]
    return ok and m.errors == 0, m, metrics, notes


def traced(workload, seed, seconds):
    """One untraced round, then one traced round of the same inputs."""
    import spans

    _, built = setup(workload, seed)
    speed = Speedometer()
    plain = measure(built, seconds, speed, rounds=1)
    tracer = spans.Tracer().install()
    try:
        missing = tracer.missing_bindings()
        if missing:
            raise BenchmarkError(f"bindings left unwrapped: {missing}")
        m = measure(built, seconds, speed, rounds=1)
    finally:
        tracer.uninstall()
    if m.digest != plain.digest:
        raise BenchmarkError("tracing changed the output digest")
    metrics = spans.layer_metrics(tracer, 1, m.ops)
    violations = spans.coverage_violations(workload, metrics)
    if violations:
        raise BenchmarkError("coverage pattern broken:\n  " + "\n  ".join(violations))
    metrics["trace.overhead_s"] = (m.wall - plain.wall, "s")
    metrics["trace.overhead_frac"] = ((m.wall - plain.wall) / plain.wall, "ratio")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(span_file)
    notes = [
        f"round at nominal speed: {plain.wall:.3f} s untraced, {m.wall:.3f} s traced",
        f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}",
        f"wrapped bindings: {sum(len(v) for v in tracer.bindings.values())}; "
        f"absent functions: {tracer.absent or 'none'}",
        f"digest: {m.digest}",
    ]
    plain.latencies += m.latencies
    plain.results += m.results
    plain.failed_results += m.failed_results
    plain.errors += m.errors
    return plain.errors == 0, plain, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
            return 0
        run = traced if args.trace else end_to_end
        correct, m, metrics, notes = run(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"closed loop, 1 caller, {m.ops} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  machine: {json.dumps(machine_info())}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": m.ops,
        "failed": m.errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

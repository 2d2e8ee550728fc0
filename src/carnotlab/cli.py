"""Command-line front end: experiment configuration, execution, and report
emission.

Reports are deterministic: identical config and seed produce byte-identical
JSON apart from the timestamp in the "meta" field.  The --threads flag is
accepted for interface compatibility; execution is sequential vectorized
numpy, so results never depend on it.

Exit codes: 0 success, 1 validation error, 2 numerical failure (flagged
estimates / violation candidates, a non-finite integrand, a rank-deficient
basis), 64 usage error.  A numerical error raised by a computation still
writes <command>.json, with the failure under results.error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys

from . import __version__
from .carnot import GaugeBall, GaugeBump, HomogeneousPolynomial, group_from_id, volume_constant
from .errors import (
    CarnotLabError,
    ConditioningError,
    DomainError,
    IntegrationError,
    ValidationError,
)
from .lab.counterexample import counterexample_report, fit_scaling_slope
from .lab.inequalities import check_sublaplacian_hypotheses
from .lab.reports import dump_json, write_csv
from .lab.sweeps import (
    check_weight_condition,
    leibniz_sweep,
    poincare_sweep,
    repformula_sweep,
    sobolev_sweep,
    sweep_summary,
)
from .lab.spaces import campanato_norm, morrey_norm
from .quad import QuadratureScheme
from .weights import (
    DEFAULT_T_GRID,
    BallSampler,
    ExponentSystem,
    Weight,
    weight_condition_sup,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- config plumbing ----------------------------------------------------------


def _load_config(path, defaults, overrides):
    """Merge defaults <- config file <- CLI flags; unknown keys are rejected.

    A JSON object given for a key whose default is one is merged over that
    default, one level deep, so {"sampler": {"count": 2}} keeps the other
    sampler defaults."""
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise UsageError(f"config {path} must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in data.items():
            default = cfg[key]
            both = isinstance(default, dict) and isinstance(value, dict)
            cfg[key] = {**default, **value} if both else value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _number(value, key, kind=float, finite=True):
    """A config value as `kind` (float or int), else a UsageError naming
    `key`; an int key refuses a non-integral value such as 1.5.  json reads
    NaN and Infinity as numbers, and a `finite` key refuses them; a weight
    spec's numbers are left to `Weight`, which rejects them when it is
    built."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"config key {key!r} must be a number, got {value!r}")
    if finite and not math.isfinite(value):
        raise UsageError(f"config key {key!r} must be finite, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise UsageError(f"config key {key!r} must be an integer, got {value!r}")
    return kind(value)


def _numbers(value, key, finite=True):
    """A config list of numbers as floats, else a UsageError naming `key`."""
    if not isinstance(value, list):
        raise UsageError(f"config key {key!r} must be a list of numbers, got {value!r}")
    return [_number(v, key, finite=finite) for v in value]


def _p_list(cfg):
    return tuple(_numbers(cfg["p_list"], "p_list"))


def _setup(args, defaults):
    """(config, group, uniform scheme) of a sampling command."""
    cfg = _load_config(args.config, defaults, {"samples": args.samples})
    group = group_from_id(cfg["group"])
    samples = _number(cfg["samples"], "samples", int)
    return cfg, group, QuadratureScheme(kind="uniform", samples=samples, seed=args.seed)


def _parse_eps_expr(expr):
    """Expand dyadic ranges like "2^-2..2^-8" (or comma lists of values)."""
    if isinstance(expr, (list, tuple)):
        return [_parse_eps_value(e) for e in expr]
    expr = str(expr)
    if ".." in expr:
        lo, _, hi = expr.partition("..")
        a, b = _dyadic_exponent(lo), _dyadic_exponent(hi)
        step = 1 if b >= a else -1
        return [_power_of_two(e) for e in range(a, b + step, step)]
    return [_parse_eps_value(tok) for tok in expr.split(",")]


def _dyadic_exponent(tok):
    tok = tok.strip()
    if tok.startswith("2^"):
        with contextlib.suppress(ValueError):
            return int(tok[2:])
    raise UsageError(f"dyadic eps values must look like 2^-3, got {tok!r}")


def _parse_eps_value(tok):
    tok = str(tok).strip()
    if tok.startswith("2^"):
        return _power_of_two(_dyadic_exponent(tok))
    try:
        return float(tok)
    except ValueError:
        raise UsageError(f"eps values must be numbers or look like 2^-3, got {tok!r}") from None


def _power_of_two(e):
    try:
        return 2.0**e
    except OverflowError:
        raise UsageError(f"eps = 2^{e} is beyond the floating-point range") from None


def _spec(spec, where, required=(), optional=()):
    """`spec` if it is a JSON object with every required key and no key
    outside required + optional, else a UsageError naming the key."""
    if not isinstance(spec, dict):
        raise UsageError(f"{where} must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - set(required) - set(optional))
    if unknown:
        raise UsageError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = [key for key in required if key not in spec]
    if missing:
        raise UsageError(f"{where} needs the keys {', '.join(missing)}")
    return spec


# (what, kind) -> (required keys, optional keys besides "kind") of a weight or function spec
_SPEC_KEYS = {
    ("weight", "constant"): ((), ("value",)),
    ("weight", "power"): (("beta",), ("pole",)),
    ("weight", "product"): (("factors",), ("constant",)),
    ("function", "bump"): ((), ("center", "radius", "height")),
    ("function", "polynomial"): (("terms",), ()),
}


def _kind_spec(spec, what, default_kind):
    """(kind, spec) for a weight or function spec whose keys fit its kind."""
    kind = spec.get("kind", default_kind) if isinstance(spec, dict) else default_kind
    if (what, kind) not in _SPEC_KEYS:
        raise UsageError(f"unknown {what} kind {kind!r}")
    required, optional = _SPEC_KEYS[what, kind]
    return kind, _spec(spec, f"{kind} {what} spec", required, ("kind",) + optional)


def weight_from_spec(group, spec):
    if spec is None:
        return Weight.one(group)
    kind, spec = _kind_spec(spec, "weight", "constant")
    if kind == "constant":
        return Weight.const(group, _number(spec.get("value", 1.0), "value", finite=False))
    if kind == "power":
        return Weight(group, factors=[_factor(group, spec)])
    factors = [_spec(f, "product weight factor", ("beta",), ("pole",)) for f in spec["factors"]]
    return Weight(
        group,
        constant=_number(spec.get("constant", 1.0), "constant", finite=False),
        factors=[_factor(group, f) for f in factors],
    )


def _factor(group, spec):
    """(pole, beta) of a power weight spec; the pole defaults to the identity."""
    pole = spec.get("pole")
    pole = group.identity() if pole is None else _numbers(pole, "pole", finite=False)
    return pole, _number(spec["beta"], "beta", finite=False)


def function_from_spec(group, spec):
    kind, spec = _kind_spec(spec, "function", "bump")
    if kind == "bump":
        return GaugeBump(
            group,
            _numbers(spec.get("center", [0.0] * group.n), "center"),
            _number(spec.get("radius", 1.0), "radius"),
            _number(spec.get("height", 1.0), "height"),
        )
    if not isinstance(spec["terms"], dict):
        raise UsageError(f"config key 'terms' must be a JSON object, got {spec['terms']!r}")
    terms = {}
    for key, c in spec["terms"].items():
        try:
            alpha = tuple(int(v) for v in key.split(","))
        except ValueError:
            raise UsageError(
                f"config key 'terms' needs comma-separated exponents, got {key!r}"
            ) from None
        terms[alpha] = _number(c, "terms")
    return HomogeneousPolynomial(group, terms)


def _sampler_from_cfg(group, cfg):
    _spec(cfg, "sampler", optional=("center_box", "r_min", "r_max", "count"))
    return BallSampler(
        dim=group.n,
        center_box=_number(cfg.get("center_box", 1.0), "center_box"),
        r_min=_number(cfg.get("r_min", 2.0**-6), "r_min"),
        r_max=_number(cfg.get("r_max", 2.0**6), "r_max"),
        count=_number(cfg.get("count", 32), "count", int),
    )


def _system_from_cfg(cfg):
    system = ExponentSystem(
        m=_number(cfg["m"], "m", int),
        p_list=_p_list(cfg),
        q=_number(cfg["q"], "q"),
        k=_number(cfg["k"], "k", int),
    )
    # p is derived from p_list; an explicit p must satisfy 1/p = sum 1/p_i
    explicit_p = cfg.get("p")
    if explicit_p is not None:
        p = _number(explicit_p, "p")
        if not p > 0:
            raise ValidationError([f"p = {p} must be positive"])
        stated = 1.0 / p
        derived = sum(1.0 / p for p in system.p_list)
        if abs(stated - derived) > 1e-9:
            raise ValidationError(
                [
                    f"1/p = 1/p_1 + ... + 1/p_m violated: 1/p = {stated:g} but "
                    f"sum 1/p_i = {derived:g}"
                ]
            )
    return system


def _write_report(cfg, args, command, results, csv_payload=None):
    os.makedirs(args.out, exist_ok=True)
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "carnotlab",
        "tool_version": __version__,
        "command": command,
        "seed": args.seed,
        "config": cfg,
        "results": results,
        "meta": {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()},
    }
    paths = []
    if args.format in ("json", "both"):
        path = os.path.join(args.out, f"{command}.json")
        with open(path, "w") as fh:
            fh.write(dump_json(report))
        paths.append(path)
    if csv_payload is not None and args.format in ("csv", "both"):
        header, rows = csv_payload
        path = os.path.join(args.out, f"{command}.csv")
        write_csv(path, header, rows)
        paths.append(path)
    for path in paths:
        print(f"wrote {path}")
    return report


@contextlib.contextmanager
def _partial_report(cfg, args, command, stage):
    """On a numerical error, write <command>.json whose results.error names
    the error, the stage, the trial (or pair) index when there is one, the
    sampled point and the seed; the error then propagates (exit 2)."""
    try:
        yield
    except (IntegrationError, ConditioningError) as exc:
        point = getattr(exc, "point", None)
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "stage": stage,
            "trial": getattr(exc, "trial", None),
            "point": None if point is None else point.tolist(),
            "seed": args.seed,
        }
        _write_report(cfg, args, command, {"error": error})
        raise


def _weights(group, cfg, system):
    """u and the v_i of a config: "v" holds one spec per slot, or is null."""
    specs = [None] * system.m if cfg.get("v") is None else cfg["v"]
    if not isinstance(specs, list):
        raise UsageError(f"config key 'v' must be a list of weight specs, got {specs!r}")
    return weight_from_spec(group, cfg.get("u")), [weight_from_spec(group, s) for s in specs]


def _trial_report(cfg, args, command, reports, noun, **results):
    """Write the summary, trials and CSV of a trial command; print its
    summary line; exit 2 when a trial is flagged."""
    summary = sweep_summary(reports)
    results.update(summary=summary, trials=[r.to_dict() for r in reports])
    header = ["trial", "lhs", "rhs", "ratio"]
    csv_rows = [
        [i, r.lhs.value, r.rhs.value, r.ratio if math.isfinite(r.ratio) else ""]
        for i, r in enumerate(reports)
    ]
    _write_report(cfg, args, command, results, (header, csv_rows))
    print(
        f"{command}: {summary['trials']} {noun}, max ratio {summary['max_ratio']:.4g}, "
        f"flags: {len(summary['flags'])}"
    )
    return EXIT_NUMERICAL if summary["flags"] else EXIT_OK


# -- commands -----------------------------------------------------------------


def cmd_group_info(args):
    group = group_from_id(args.group)
    c_d = volume_constant(group)
    print(f"group {group.ident}")
    print(f"n = {group.n}")
    print(f"layers = {group.layers}")
    print(f"step = {group.step}")
    print(f"Q = {group.homogeneous_dimension}")
    print(f"generators = {group.n1}")
    print(f"gauge = layered homogeneous gauge (order {group.gauge_order})")
    print(f"c_d = {c_d!r}")
    return EXIT_OK


def cmd_counterexample(args):
    defaults = {"p": 0.5, "q": 1.0, "eps": "2^-2..2^-8"}
    cfg = _load_config(args.config, defaults, {"p": args.p, "q": args.q, "eps": args.eps})
    eps_list = _parse_eps_expr(cfg["eps"])
    p, q = _number(cfg["p"], "p"), _number(cfg["q"], "q")
    rows = counterexample_report(p, q, eps_list)
    slope = fit_scaling_slope(rows)
    target = 1.0 - p
    results = {"rows": rows, "slope": slope, "slope_target": target}
    header = ["eps", "R", "L", "a", "b", "ratio", "ratio_lower", "converged"]
    csv_rows = [[r[h] for h in header] for r in rows]
    cfg_echo = dict(cfg, eps=eps_list)
    _write_report(cfg_echo, args, "counterexample", results, (header, csv_rows))
    print(f"slope of log R vs log eps: {slope:.4f} (target 1-p = {target:.4f})")
    if rows and rows[0]["ratio"] > 0:
        print(f"ratio growth across eps range: {rows[-1]['ratio'] / rows[0]['ratio']:.2f}x")
    if any(not r["converged"] for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


# command -> (sweep, default group, default k, sub-Laplacian form)
_SWEEPS = {
    "poincare": (poincare_sweep, "euclidean:1", 1, False),
    "sobolev": (sobolev_sweep, "euclidean:1", 1, False),
    "sobolev-sublaplacian": (sobolev_sweep, "euclidean:2", 2, True),
}


def cmd_sweep(args):
    """poincare, sobolev and sobolev-sublaplacian: a weight check, then the trials."""
    command = args.command
    sweep, default_group, default_k, sublaplacian = _SWEEPS[command]
    defaults = {
        "group": default_group,
        "m": 2,
        "k": default_k,
        "p_list": [4.0 / 3.0, 4.0 / 3.0],
        "p": None,
        "q": 2.0,
        "trials": 25,
        "samples": 4096,
        "u": None,
        "v": None,
    }
    cfg, group, scheme = _setup(args, defaults)
    system = _system_from_cfg(cfg)
    if sublaplacian:
        check_sublaplacian_hypotheses(group, system)
    trials = _number(cfg["trials"], "trials", int)
    u, vs = _weights(group, cfg, system)
    with _partial_report(cfg, args, command, "weight-check"):
        check = check_weight_condition(group, u, vs, system, scheme)
    extra = {"sublaplacian": True} if sublaplacian else {}
    with _partial_report(cfg, args, command, "trials"):
        reports = sweep(
            group, system, u, vs, scheme, trials=trials, seed=args.seed,
            weight_verdict=check["verdict"], **extra,
        )
    code = _trial_report(cfg, args, command, reports, "trials", weight_check=check)
    if check["flagged_count"]:
        print(f"{command}: weight check flagged {check['flagged_count']} terms")
        return EXIT_NUMERICAL
    return code


def cmd_weights_check(args):
    defaults = {
        "group": "euclidean:1",
        "m": 1,
        "k": 1,
        "p_list": [2.0],
        "p": None,
        "q": 2.0,
        "t_grid": list(DEFAULT_T_GRID),
        "u": None,
        "v": None,
        "sampler": {},
        "samples": 4096,
    }
    cfg, group, scheme = _setup(args, defaults)
    system = _system_from_cfg(cfg)
    u, vs = _weights(group, cfg, system)
    sampler = _sampler_from_cfg(group, cfg.get("sampler") or {})
    with _partial_report(cfg, args, "weights-check", "weight-check"):
        report = weight_condition_sup(
            group, u, vs, system, sampler, scheme, t_grid=_numbers(cfg["t_grid"], "t_grid")
        )
    results = report.to_dict()
    header = ["t", "sup", "slope", "verdict"]
    csv_rows = [[row["t"], row["sup"], row["slope"], row["verdict"]] for row in report.per_t]
    _write_report(cfg, args, "weights-check", results, (header, csv_rows))
    for row in report.per_t:
        print(f"t = {row['t']:<5g} sup = {row['sup']:.6g}  slope = {row['slope']:+.4f}  {row['verdict']}")
    return EXIT_NUMERICAL if report.flagged_count else EXIT_OK


def cmd_repformula(args):
    defaults = {
        "group": "euclidean:1",
        "m": 2,
        "k": 2,
        "pairs": 10,
        "points": 50,
        "samples": 4096,
        "ball": {"center": None, "radius": 1.0},
    }
    cfg, group, scheme = _setup(args, defaults)
    ball_cfg = _spec(cfg["ball"], "ball", optional=("center", "radius"))
    center = _numbers(ball_cfg.get("center") or [0.0] * group.n, "center")
    ball = GaugeBall(center, _number(ball_cfg.get("radius", 1.0), "radius"))
    with _partial_report(cfg, args, "repformula", "pairs"):
        records, summaries = repformula_sweep(
            group, _number(cfg["k"], "k", int), _number(cfg["m"], "m", int), scheme,
            pairs=_number(cfg["pairs"], "pairs", int),
            points=_number(cfg["points"], "points", int), seed=args.seed, ball=ball,
        )
    max_ratio = max((s["max_ratio"] for s in summaries), default=math.nan)
    results = {"summaries": summaries, "max_ratio": max_ratio, "records": records}
    header = ["pair", "point_index", "lhs", "rhs", "ratio"]
    csv_rows = []
    for pair_idx, recs in enumerate(records):
        for pt_idx, rec in enumerate(recs):
            csv_rows.append([pair_idx, pt_idx, rec["lhs"], rec["rhs"], rec["ratio"]])
    _write_report(cfg, args, "repformula", results, (header, csv_rows))
    print(f"repformula: max pointwise ratio {max_ratio:.4g} over {len(summaries)} pairs")
    return EXIT_OK


# command -> (norm function, its own integer config keys with their defaults,
# passed positionally after p and lam)
_NORMS = {
    "morrey": (morrey_norm, {}),
    "campanato": (campanato_norm, {"k": 2}),
}


def cmd_norm(args):
    """morrey and campanato: a sup over sampled balls of one function's norm."""
    command = args.command
    norm, own = _NORMS[command]
    defaults = {
        "group": "euclidean:1",
        "f": {"kind": "bump"},
        "w": None,
        "p": 2.0,
        "lam": 1.0,
        **own,
        "normalization": "ambient",
        "sampler": {},
        "samples": 4096,
    }
    cfg, group, scheme = _setup(args, defaults)
    f = function_from_spec(group, cfg["f"])
    w = weight_from_spec(group, cfg.get("w"))
    sampler = _sampler_from_cfg(group, cfg.get("sampler") or {})
    with _partial_report(cfg, args, command, "balls"):
        est, details = norm(
            group, f, w, _number(cfg["p"], "p"), _number(cfg["lam"], "lam"),
            *(_number(cfg[key], key, int) for key in own), sampler, scheme,
            normalization=cfg["normalization"],
        )
    results = {"norm": est.to_dict(), "note": est.note, "per_ball": details}
    header = ["radius", "value", "note"]
    csv_rows = [[d["radius"], d["value"], d["note"]] for d in details]
    _write_report(cfg, args, command, results, (header, csv_rows))
    print(f"{command}: {est.value:.6g} ({est.note})")
    return EXIT_OK


def cmd_leibniz(args):
    defaults = {
        "group": "euclidean:1",
        "k": 2,
        "p_list": [2.0, 2.0],
        "q": 1.0,
        "lam": 1.0,
        "lam1": 1.0,
        "lam2": 1.0,
        "configs": 25,
        "samples": 2048,
        "u": None,
        "v1": None,
        "v2": None,
        "sampler": {"count": 16, "r_min": 0.25, "r_max": 4.0},
    }
    cfg, group, scheme = _setup(args, defaults)
    system = ExponentSystem(
        m=2, p_list=_p_list(cfg), q=_number(cfg["q"], "q"), k=_number(cfg["k"], "k", int)
    )
    lams = [_number(cfg[key], key) for key in ("lam", "lam1", "lam2")]
    configs = _number(cfg["configs"], "configs", int)
    u = weight_from_spec(group, cfg.get("u"))
    v1 = weight_from_spec(group, cfg.get("v1"))
    v2 = weight_from_spec(group, cfg.get("v2"))
    sampler = _sampler_from_cfg(group, cfg.get("sampler") or {})
    with _partial_report(cfg, args, "leibniz", "trials"):
        reports = leibniz_sweep(
            group, system, u, v1, v2, *lams, sampler, scheme, configs=configs, seed=args.seed
        )
    return _trial_report(cfg, args, "leibniz", reports, "configs")


# -- entry point ---------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="carnotlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=20240801, help="master seed (u64)")
        p.add_argument("--samples", type=int, default=None, help="MC samples per estimate")
        p.add_argument("--out", default="reports", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="accepted; never changes results")
        p.add_argument("--format", choices=("json", "csv", "both"), default="both")

    p = sub.add_parser("group-info", help="print group structure")
    p.add_argument("group", help='group id, e.g. "heisenberg:1"')
    common(p)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("counterexample", help="the p < 1 second-order failure family")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--eps", default=None, help='dyadic range, e.g. "2^-2..2^-8"')
    common(p)
    p.set_defaults(func=cmd_counterexample)

    for name, fn in (
        *((name, cmd_sweep) for name in _SWEEPS),
        ("weights-check", cmd_weights_check),
        ("repformula", cmd_repformula),
        *((name, cmd_norm) for name in _NORMS),
        ("leibniz", cmd_leibniz),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.threads is not None and args.threads < 1:
        print("usage error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrationError, ConditioningError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, DomainError, CarnotLabError) as exc:
        kind = "validation error" if isinstance(exc, (ValidationError, DomainError)) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


# mallopt(3) parameters of glibc's malloc
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Under glibc, keep freed heap memory in the process: a trim threshold
    of 256 MiB, and an mmap threshold of 32 MiB (its 64-bit maximum).  At
    glibc's defaults every solver temporary above 128 KiB is mapped and
    unmapped, and each freed heap top returned to the kernel, so the same
    pages fault in again on every ball stack.  Only the console entry point
    calls this; the library and main() leave the allocator alone."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        return
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def entry():
    _keep_freed_heap()
    sys.exit(main())


if __name__ == "__main__":
    entry()

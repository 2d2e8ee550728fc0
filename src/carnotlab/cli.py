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
    """Merge defaults <- config file <- CLI flags; unknown keys are rejected."""
    cfg = dict(defaults)
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(data)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _parse_eps_expr(expr):
    """Expand dyadic ranges like "2^-2..2^-8" (or comma lists of values)."""
    if isinstance(expr, (list, tuple)):
        return [float(e) for e in expr]
    expr = str(expr)
    if "," in expr:
        return [_parse_eps_value(tok) for tok in expr.split(",")]
    if ".." in expr:
        lo, hi = expr.split("..")
        a, b = _dyadic_exponent(lo), _dyadic_exponent(hi)
        step = 1 if b >= a else -1
        return [2.0**e for e in range(a, b + step, step)]
    return [_parse_eps_value(expr)]


def _dyadic_exponent(tok):
    tok = tok.strip()
    if not tok.startswith("2^"):
        raise UsageError(f"dyadic range endpoints must look like 2^-3, got {tok!r}")
    return int(tok[2:])


def _parse_eps_value(tok):
    tok = tok.strip()
    if tok.startswith("2^"):
        return 2.0 ** int(tok[2:])
    return float(tok)


def weight_from_spec(group, spec):
    if spec is None:
        return Weight.one(group)
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return Weight.const(group, spec.get("value", 1.0))
    if kind == "power":
        return Weight.power(group, spec["beta"], spec.get("pole"))
    if kind == "product":
        return Weight(
            group,
            constant=spec.get("constant", 1.0),
            factors=[(f.get("pole", group.identity()), f["beta"]) for f in spec["factors"]],
        )
    raise UsageError(f"unknown weight kind {kind!r}")


def function_from_spec(group, spec):
    kind = spec.get("kind", "bump")
    if kind == "bump":
        return GaugeBump(
            group,
            spec.get("center", [0.0] * group.n),
            spec.get("radius", 1.0),
            spec.get("height", 1.0),
        )
    if kind == "polynomial":
        terms = {tuple(int(v) for v in key.split(",")): c for key, c in spec["terms"].items()}
        return HomogeneousPolynomial(group, terms)
    raise UsageError(f"unknown function kind {kind!r}")


def _sampler_from_cfg(group, cfg):
    return BallSampler(
        dim=group.n,
        center_box=cfg.get("center_box", 1.0),
        r_min=cfg.get("r_min", 2.0**-6),
        r_max=cfg.get("r_max", 2.0**6),
        count=cfg.get("count", 32),
    )


def _system_from_cfg(cfg):
    system = ExponentSystem(
        m=int(cfg["m"]),
        p_list=tuple(cfg["p_list"]),
        q=float(cfg["q"]),
        k=int(cfg["k"]),
        t=float(cfg.get("t", 2.0)),
    )
    # p is derived from p_list; an explicit p must satisfy 1/p = sum 1/p_i
    explicit_p = cfg.get("p")
    if explicit_p is not None:
        stated = 1.0 / float(explicit_p)
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


def _sweep_exit_code(summary):
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
    defaults = {"p": 0.5, "q": 1.0, "eps": "2^-2..2^-8", "tol": 1e-6}
    cfg = _load_config(args.config, defaults, {"p": args.p, "q": args.q, "eps": args.eps})
    eps_list = _parse_eps_expr(cfg["eps"])
    rows = counterexample_report(cfg["p"], cfg["q"], eps_list, tol=float(cfg["tol"]))
    slope = fit_scaling_slope(rows)
    target = 1.0 - cfg["p"]
    results = {"rows": rows, "slope": slope, "slope_target": target}
    header = ["eps", "R", "R_predicted", "L", "a", "b", "ratio", "converged"]
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
        "t": 2.0,
        "trials": 25,
        "samples": 4096,
        "u": None,
        "v": None,
    }
    cfg = _load_config(args.config, defaults, {"samples": args.samples})
    group = group_from_id(cfg["group"])
    system = _system_from_cfg(cfg)
    u = weight_from_spec(group, cfg.get("u"))
    vs = [weight_from_spec(group, spec) for spec in (cfg.get("v") or [None] * system.m)]
    scheme = QuadratureScheme(kind="uniform", samples=int(cfg["samples"]), seed=args.seed)
    with _partial_report(cfg, args, command, "weight-check"):
        check = check_weight_condition(group, u, vs, system, scheme)
    extra = {"sublaplacian": True} if sublaplacian else {}
    with _partial_report(cfg, args, command, "trials"):
        reports = sweep(
            group, system, u, vs, scheme, trials=int(cfg["trials"]), seed=args.seed,
            weight_check=check, **extra,
        )
    summary = sweep_summary(reports)
    results = {
        "summary": summary,
        "trials": [r.to_dict() for r in reports],
        "weight_check": check,
    }
    header = ["trial", "lhs", "rhs", "ratio"]
    csv_rows = [
        [i, r.lhs.value, r.rhs.value, r.ratio if math.isfinite(r.ratio) else ""]
        for i, r in enumerate(reports)
    ]
    _write_report(cfg, args, command, results, (header, csv_rows))
    print(
        f"{command}: {summary['trials']} trials, max ratio {summary['max_ratio']:.4g}, "
        f"flags: {len(summary['flags'])}"
    )
    return _sweep_exit_code(summary)


def cmd_weights_check(args):
    defaults = {
        "group": "euclidean:1",
        "m": 1,
        "k": 1,
        "p_list": [2.0],
        "p": None,
        "q": 2.0,
        "t": 2.0,
        "t_grid": list(DEFAULT_T_GRID),
        "u": None,
        "v": None,
        "sampler": {},
        "samples": 4096,
    }
    cfg = _load_config(args.config, defaults, {"samples": args.samples})
    group = group_from_id(cfg["group"])
    system = _system_from_cfg(cfg)
    u = weight_from_spec(group, cfg.get("u"))
    vs = [weight_from_spec(group, spec) for spec in (cfg.get("v") or [None] * system.m)]
    sampler = _sampler_from_cfg(group, cfg.get("sampler") or {})
    scheme = QuadratureScheme(kind="uniform", samples=int(cfg["samples"]), seed=args.seed)
    with _partial_report(cfg, args, "weights-check", "weight-check"):
        report = weight_condition_sup(
            group, u, vs, system, sampler, scheme, t_grid=tuple(cfg["t_grid"])
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
    cfg = _load_config(args.config, defaults, {"samples": args.samples})
    group = group_from_id(cfg["group"])
    ball_cfg = cfg["ball"]
    center = ball_cfg.get("center") or [0.0] * group.n
    ball = GaugeBall(center, ball_cfg.get("radius", 1.0))
    scheme = QuadratureScheme(kind="uniform", samples=int(cfg["samples"]), seed=args.seed)
    with _partial_report(cfg, args, "repformula", "pairs"):
        records, summaries = repformula_sweep(
            group, int(cfg["k"]), int(cfg["m"]), scheme, pairs=int(cfg["pairs"]),
            points=int(cfg["points"]), seed=args.seed, ball=ball,
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


def _norm_command(args, command, defaults, compute):
    cfg = _load_config(args.config, defaults, {"samples": args.samples})
    group = group_from_id(cfg["group"])
    f = function_from_spec(group, cfg["f"])
    w = weight_from_spec(group, cfg.get("w"))
    sampler = _sampler_from_cfg(group, cfg.get("sampler") or {})
    scheme = QuadratureScheme(kind="uniform", samples=int(cfg["samples"]), seed=args.seed)
    with _partial_report(cfg, args, command, "balls"):
        est, details = compute(group, f, w, sampler, scheme, cfg)
    results = {"norm": est.to_dict(), "note": est.note, "per_ball": details}
    header = ["radius", "value"]
    csv_rows = [[d["radius"], d["value"]] for d in details]
    _write_report(cfg, args, command, results, (header, csv_rows))
    print(f"{command}: {est.value:.6g} ({est.note})")
    return EXIT_OK


def cmd_morrey(args):
    defaults = {
        "group": "euclidean:1",
        "f": {"kind": "bump"},
        "w": None,
        "p": 2.0,
        "lam": 1.0,
        "normalization": "ambient",
        "sampler": {},
        "samples": 4096,
    }

    def compute(group, f, w, sampler, scheme, cfg):
        return morrey_norm(
            group, f, w, float(cfg["p"]), float(cfg["lam"]), sampler, scheme,
            normalization=cfg["normalization"],
        )

    return _norm_command(args, "morrey", defaults, compute)


def cmd_campanato(args):
    defaults = {
        "group": "euclidean:1",
        "f": {"kind": "bump"},
        "w": None,
        "p": 2.0,
        "lam": 1.0,
        "k": 2,
        "normalization": "ambient",
        "sampler": {},
        "samples": 4096,
    }

    def compute(group, f, w, sampler, scheme, cfg):
        return campanato_norm(
            group, f, w, float(cfg["p"]), float(cfg["lam"]), int(cfg["k"]), sampler, scheme,
            normalization=cfg["normalization"],
        )

    return _norm_command(args, "campanato", defaults, compute)


def cmd_leibniz(args):
    defaults = {
        "group": "euclidean:1",
        "k": 2,
        "p_list": [2.0, 2.0],
        "q": 1.0,
        "t": 2.0,
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
    cfg = _load_config(args.config, defaults, {"samples": args.samples})
    group = group_from_id(cfg["group"])
    system = ExponentSystem(
        m=2, p_list=tuple(cfg["p_list"]), q=float(cfg["q"]), k=int(cfg["k"]), t=float(cfg["t"])
    )
    u = weight_from_spec(group, cfg.get("u"))
    v1 = weight_from_spec(group, cfg.get("v1"))
    v2 = weight_from_spec(group, cfg.get("v2"))
    sampler = _sampler_from_cfg(group, cfg.get("sampler") or {})
    scheme = QuadratureScheme(kind="uniform", samples=int(cfg["samples"]), seed=args.seed)
    with _partial_report(cfg, args, "leibniz", "trials"):
        reports = leibniz_sweep(
            group, system, u, v1, v2, float(cfg["lam"]), float(cfg["lam1"]), float(cfg["lam2"]),
            sampler, scheme, configs=int(cfg["configs"]), seed=args.seed,
        )
    summary = sweep_summary(reports)
    results = {"summary": summary, "trials": [r.to_dict() for r in reports]}
    header = ["trial", "lhs", "rhs", "ratio"]
    csv_rows = [
        [i, r.lhs.value, r.rhs.value, r.ratio if math.isfinite(r.ratio) else ""]
        for i, r in enumerate(reports)
    ]
    _write_report(cfg, args, "leibniz", results, (header, csv_rows))
    print(
        f"leibniz: {summary['trials']} configs, max ratio {summary['max_ratio']:.4g}, "
        f"flags: {len(summary['flags'])}"
    )
    return _sweep_exit_code(summary)


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
        ("morrey", cmd_morrey),
        ("campanato", cmd_campanato),
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


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

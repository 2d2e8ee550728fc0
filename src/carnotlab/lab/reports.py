"""Inequality trial reports and deterministic serialization helpers."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, is_dataclass, asdict

import numpy as np

VIOLATION_FLAG = "inequality-violation-candidate"

# below this absolute level an lhs is solver roundoff, not a violation
_ZERO_TOL = 1e-9


@dataclass
class InequalityReport:
    """One inequality trial: both sides, their ratio, and the full config."""

    lhs: object
    rhs: object
    ratio: float
    config: dict
    terms: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    lhs_per_ball: list | None = None  # an lhs that is a sup over balls: its details

    def to_dict(self):
        out = {
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
            "ratio": self.ratio,
            "config": self.config,
            "terms": self.terms,
            "flags": self.flags,
        }
        if self.lhs_per_ball is not None:
            out["lhs_per_ball"] = self.lhs_per_ball
        return out


def trial_config(group, system, u, vs, scheme, **extra):
    """The config of a trial report: group, gauge, exponents, weights and
    scheme, then the trial's own keys."""
    cfg = {
        "group": group.ident,
        "gauge": "layered",
        "system": system.to_dict(),
        "u": u.to_dict(),
        "v": [v.to_dict() for v in vs],
        "scheme": scheme.to_dict(),
    }
    cfg.update(extra)
    return cfg


def trial_report(lhs, rhs, config, terms):
    """The InequalityReport of lhs against rhs; an lhs above its noise over
    a zero rhs is an infinite ratio, flagged as a violation candidate."""
    flags = []
    if lhs.flagged or rhs.flagged:
        flags.append("flagged-estimate")
    lhs_is_zero = lhs.value <= max(3.0 * lhs.std_error, _ZERO_TOL)
    if rhs.value > 0.0:
        ratio = lhs.value / rhs.value
    elif lhs_is_zero:
        ratio = 0.0
    else:
        ratio = float("inf")
        flags.append(VIOLATION_FLAG)
    return InequalityReport(lhs=lhs, rhs=rhs, ratio=ratio, config=config, terms=terms, flags=flags)


def jsonify(obj):
    """Recursively convert to JSON-encodable values; non-finite floats become strings."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return jsonify(float(obj))
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return jsonify(obj.to_dict())
    if is_dataclass(obj):
        return jsonify(asdict(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj):
    """Deterministic JSON text: sorted keys, fixed separators, newline-terminated."""
    return json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.integer, np.floating)):
        return repr(float(v)) if isinstance(v, np.floating) else int(v)
    return v

"""JSON schemas for matrices, gates and left-state tensors.

Matrix schema: {"rows": r, "cols": c, "data": [[re, im], ...]} row-major.
All file I/O lives in the CLI; these helpers only translate objects.
"""
from __future__ import annotations

import numpy as np

from .gates import TwoSiteGate
from .linalg import require_finite
from .mps import Lpdo, MpsTensor, TwoSiteMps


def matrix_to_json(m: np.ndarray) -> dict:
    m = require_finite(np.atleast_2d(np.asarray(m, dtype=complex)))
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {"rows": rows, "cols": cols,
            "data": [[float(z.real), float(z.imag)] for z in flat]}


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != {rows}*{cols}")
    flat = np.array([complex(re, im) for re, im in data])
    return require_finite(flat.reshape(rows, cols))


def _param_to_json(v):
    if isinstance(v, np.ndarray):
        return {"__matrix__": matrix_to_json(v)}
    if isinstance(v, (list, tuple)) and v and isinstance(v[0], np.ndarray):
        return [{"__matrix__": matrix_to_json(m)} for m in v]
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def param_from_json(v):
    """One gate parameter as ``gate_to_json`` writes it, matrices decoded."""
    if isinstance(v, dict) and "__matrix__" in v:
        return matrix_from_json(v["__matrix__"])
    if isinstance(v, list) and v and isinstance(v[0], dict) and "__matrix__" in v[0]:
        return [matrix_from_json(x["__matrix__"]) for x in v]
    return v


def gate_to_json(g: TwoSiteGate) -> dict:
    return {
        "q": g.q,
        "family": g.family,
        "params": {k: _param_to_json(v) for k, v in g.params.items()},
        "seed": g.seed,
        "matrix": matrix_to_json(g.matrix),
    }


def _require_object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")


def gate_from_json(obj: dict) -> TwoSiteGate:
    _require_object(obj, "gate file")
    params = {k: param_from_json(v) for k, v in obj.get("params", {}).items()}
    return TwoSiteGate(int(obj["q"]), matrix_from_json(obj["matrix"]),
                       obj.get("family", "custom"), params, obj.get("seed"))


# kind -> (class, integer fields, {JSON key: matrix-stack attribute}); the
# class takes the integer fields, then the stacks, in this order.
LEFT_STATE_KINDS = {
    "mps": (MpsTensor, ("q", "chi"), {"mats": "mats"}),
    "two_site": (TwoSiteMps, ("q", "chi", "chip"), {"matsA": "mats_a", "matsB": "mats_b"}),
    "lpdo": (Lpdo, ("q", "chi", "d"), {"mats": "mats"}),
}


def _stack_to_json(s: np.ndarray):
    """A stack of matrices as nested lists of matrix objects."""
    return matrix_to_json(s) if s.ndim == 2 else [_stack_to_json(m) for m in s]


def _stack_from_json(obj) -> np.ndarray:
    if isinstance(obj, list):
        return np.stack([_stack_from_json(m) for m in obj])
    return matrix_from_json(obj)


def left_state_to_json(state: MpsTensor | TwoSiteMps | Lpdo) -> dict:
    """The object a config's ``"mps": {"file": ...}`` reads."""
    for kind, (cls, ints, stacks) in LEFT_STATE_KINDS.items():
        if isinstance(state, cls):
            return {"kind": kind, **{f: getattr(state, f) for f in ints},
                    **{k: _stack_to_json(getattr(state, a)) for k, a in stacks.items()}}
    raise TypeError(f"unsupported state type {type(state).__name__}")


def left_state_from_json(obj: dict) -> MpsTensor | TwoSiteMps | Lpdo:
    _require_object(obj, "left-state file")
    kind = obj.get("kind", "mps")
    if not isinstance(kind, str) or kind not in LEFT_STATE_KINDS:
        raise ValueError(f"unknown left-state kind '{kind}'")
    cls, ints, stacks = LEFT_STATE_KINDS[kind]
    return cls(*[int(obj[f]) for f in ints], *[_stack_from_json(obj[k]) for k in stacks])

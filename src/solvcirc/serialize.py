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


def mps_to_json(t: MpsTensor) -> dict:
    return {"q": t.q, "chi": t.chi,
            "mats": [matrix_to_json(t.mats[a]) for a in range(t.q)]}


def mps_from_json(obj: dict) -> MpsTensor:
    mats = np.stack([matrix_from_json(m) for m in obj["mats"]])
    return MpsTensor(int(obj["q"]), int(obj["chi"]), mats)


def two_site_to_json(t: TwoSiteMps) -> dict:
    return {"q": t.q, "chi": t.chi, "chip": t.chip,
            "matsA": [matrix_to_json(t.mats_a[a]) for a in range(t.q)],
            "matsB": [matrix_to_json(t.mats_b[a]) for a in range(t.q)]}


def two_site_from_json(obj: dict) -> TwoSiteMps:
    a = np.stack([matrix_from_json(m) for m in obj["matsA"]])
    b = np.stack([matrix_from_json(m) for m in obj["matsB"]])
    return TwoSiteMps(int(obj["q"]), int(obj["chi"]), int(obj["chip"]), a, b)


def lpdo_to_json(l: Lpdo) -> dict:
    return {"q": l.q, "chi": l.chi, "d": l.d,
            "mats": [[matrix_to_json(l.mats[a, g]) for g in range(l.d)]
                     for a in range(l.q)]}


def lpdo_from_json(obj: dict) -> Lpdo:
    mats = np.stack([np.stack([matrix_from_json(m) for m in row])
                     for row in obj["mats"]])
    return Lpdo(int(obj["q"]), int(obj["chi"]), int(obj["d"]), mats)


def left_state_to_json(state: MpsTensor | TwoSiteMps | Lpdo) -> dict:
    """The object a config's ``"mps": {"file": ...}`` reads."""
    if isinstance(state, MpsTensor):
        return {"kind": "mps", **mps_to_json(state)}
    if isinstance(state, TwoSiteMps):
        return {"kind": "two_site", **two_site_to_json(state)}
    if isinstance(state, Lpdo):
        return {"kind": "lpdo", **lpdo_to_json(state)}
    raise TypeError(f"unsupported state type {type(state).__name__}")


def left_state_from_json(obj: dict) -> MpsTensor | TwoSiteMps | Lpdo:
    _require_object(obj, "left-state file")
    kind = obj.get("kind", "mps")
    if kind == "mps":
        return mps_from_json(obj)
    if kind == "two_site":
        return two_site_from_json(obj)
    if kind == "lpdo":
        return lpdo_from_json(obj)
    raise ValueError(f"unknown left-state kind '{kind}'")

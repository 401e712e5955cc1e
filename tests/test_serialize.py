import json
from pathlib import Path

import pytest

from solvcirc.linalg import make_rng, max_abs
from solvcirc.mps import ghz_cluster_family, random_left_canonical, random_lpdo, two_site_from_pair
from solvcirc.gates import random_gate
from solvcirc import serialize as ser

DATA_DIR = Path(__file__).resolve().parent / "data"


def test_matrix_round_trip():
    rng = make_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    obj = ser.matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 4
    assert len(obj["data"]) == 12
    back = ser.matrix_from_json(json.loads(json.dumps(obj)))
    assert max_abs(back - m) == 0


def test_matrix_bad_length():
    with pytest.raises(ValueError):
        ser.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_gate_round_trip():
    rng = make_rng(1)
    g = random_gate("general", rng, q=4, qt=2, seed=11)
    back = ser.gate_from_json(json.loads(json.dumps(ser.gate_to_json(g))))
    assert back.q == 4 and back.family == "general" and back.seed == 11
    assert max_abs(back.matrix - g.matrix) == 0
    assert back.params["qt"] == 2
    assert max_abs(back.params["v"] - g.params["v"]) == 0
    assert all(max_abs(a - b) == 0 for a, b in zip(back.params["f2"], g.params["f2"]))


def test_mps_round_trip():
    t = ghz_cluster_family(0.6, 4)
    obj = ser.left_state_to_json(t)
    assert obj["kind"] == "mps"
    back = ser.left_state_from_json(json.loads(json.dumps(obj)))
    assert back.q == 4 and back.chi == 2
    assert max_abs(back.mats - t.mats) == 0


def test_two_site_round_trip():
    rng = make_rng(2)
    cell = two_site_from_pair(random_left_canonical(2, 2, rng),
                              random_left_canonical(2, 2, rng))
    obj = ser.left_state_to_json(cell)
    back = ser.left_state_from_json(json.loads(json.dumps(obj)))
    assert max_abs(back.mats_a - cell.mats_a) == 0
    assert max_abs(back.mats_b - cell.mats_b) == 0


def test_lpdo_round_trip():
    l = random_lpdo(2, 2, 3, make_rng(3))
    back = ser.left_state_from_json(json.loads(json.dumps(ser.left_state_to_json(l))))
    assert back.d == 3
    assert max_abs(back.mats - l.mats) == 0


# tests/data/left_state_<kind>.json hold one small fixed tensor of each kind,
# written by ``left_state_to_json`` as ``json.dumps(obj, indent=2)`` plus a
# newline: they pin the file format, key order included.
@pytest.mark.parametrize("kind,shapes", [
    ("mps", {"mats": (2, 2, 2)}),
    ("two_site", {"mats_a": (2, 1, 2), "mats_b": (2, 2, 1)}),
    ("lpdo", {"mats": (2, 2, 1, 1)}),
])
def test_left_state_format_pinned(kind, shapes):
    text = (DATA_DIR / f"left_state_{kind}.json").read_text()
    state = ser.left_state_from_json(json.loads(text))
    assert type(state) is ser.LEFT_STATE_KINDS[kind][0]
    for attr, shape in shapes.items():
        assert getattr(state, attr).shape == shape
    assert json.dumps(ser.left_state_to_json(state), indent=2) + "\n" == text


def test_left_state_kind_defaults_to_mps():
    obj = json.loads((DATA_DIR / "left_state_mps.json").read_text())
    del obj["kind"]
    assert max_abs(ser.left_state_from_json(obj).mats
                   - ser.left_state_from_json({"kind": "mps", **obj}).mats) == 0


@pytest.mark.parametrize("kind", ["tensor", ["mps"], None])
def test_left_state_unknown_kind(kind):
    obj = json.loads((DATA_DIR / "left_state_mps.json").read_text())
    with pytest.raises(ValueError, match="unknown left-state kind"):
        ser.left_state_from_json({**obj, "kind": kind})


@pytest.mark.parametrize("mats", ["ab", 3, None, [[{"rows": 1}]]])
def test_left_state_malformed_stack_is_a_config_error(mats):
    obj = json.loads((DATA_DIR / "left_state_mps.json").read_text())
    with pytest.raises((ValueError, KeyError, TypeError)):
        ser.left_state_from_json({**obj, "mats": mats})

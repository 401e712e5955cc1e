"""In-process fuzzing of the CLI on mutations of the shipped configs.

Each mutation drops one key, gives one field a value of the wrong JSON type,
negates one number or adds an unknown key to one object; the over-cap runs
shrink ``SOLVCIRC_CAP``.  Whatever
the input, a run must end with a documented exit code (0/1/2/3) and at most
one stderr line, never an exception out of ``main`` (a traceback from the
console script).
"""
import copy
import json
from pathlib import Path

import pytest

from solvcirc import serialize as ser
from solvcirc.cli import main
from solvcirc.gates import EXPLICIT_FAMILIES, cartan_gate, random_gate
from solvcirc.linalg import make_rng

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"

# Subcommands run on each shipped config; `check` reads every config.
COMMANDS = {
    "entropy_saturation.json": [["evolve"], ["check"]],
    "fixed_point_q2.json": [["fixed-point"], ["check"]],
    "oracle_q2_dressed_swap.json": [["oracle"], ["check"]],
    "oracle_q4_general.json": [["oracle"], ["check"]],
    "renyi_cluster.json": [["renyi", "--oracle"]],
}


def base_config(name):
    """The shipped config with its run length cut (tmax <= 1, t_list [1])
    so that a mutation which still runs takes a fraction of a second."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["tmax"] = min(cfg["tmax"], 1)
    if "t_list" in cfg:
        cfg["t_list"] = cfg["t_list"][:1]
    return cfg


def paths(node, prefix=()):
    """Every key and list index below ``node``, as paths from the top."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def wrong_types(value):
    """Values of other JSON types that a careless parser might still accept."""
    if isinstance(value, bool):
        return [1, "true", "false"]
    if isinstance(value, int):
        return [value + 0.5, True, str(value)]
    if isinstance(value, float):
        return [str(value), [value]]
    if isinstance(value, str):
        return [1, [value]]
    if isinstance(value, list):
        return ["".join(map(str, value)) or "x", {}]
    return [[], "x"]


def negated(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return []
    return [-value if value else -1]


# Unknown keys added to the top level and to each object below it (gate,
# mps, right_state, observables).
UNKNOWN_KEYS = {"bogus_key": 1, "extra": {"x": 1}}


def unknown_key_mutations(cfg):
    for path in [(), *paths(cfg)]:
        node = cfg
        for key in path:
            node = node[key]
        if not isinstance(node, dict):
            continue
        for key, value in UNKNOWN_KEYS.items():
            mutant = copy.deepcopy(cfg)
            target = mutant
            for k in path:
                target = target[k]
            target[key] = value
            yield f"unknown {'.'.join(map(str, path + (key,)))}", mutant


def mutations(cfg, kind):
    if kind == "unknown_key":
        yield from unknown_key_mutations(cfg)
        return
    for path in paths(cfg):
        *head, last = path
        parent = cfg
        for key in head:
            parent = parent[key]
        if kind == "drop":
            values = [None]
        elif kind == "wrong_type":
            values = wrong_types(parent[last])
        else:
            values = negated(parent[last])
        for value in values:
            mutant = copy.deepcopy(cfg)
            target = mutant
            for key in head:
                target = target[key]
            if kind == "drop":
                del target[last]
            else:
                target[last] = value
            yield f"{kind} {'.'.join(map(str, path))} -> {json.dumps(value)}", mutant


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except Exception as exc:  # the console script would print a traceback
        capsys.readouterr()
        return None, f"{type(exc).__name__}: {exc}"
    return code, capsys.readouterr().err


def faults(name, cases, tmp_path, capsys):
    found = []
    cfg_path, out = tmp_path / "c.json", tmp_path / "out"
    for label, cfg in cases:
        cfg_path.write_text(json.dumps(cfg))
        for command in COMMANDS[name]:
            argv = command + ["--config", str(cfg_path)]
            if command[0] in ("evolve", "oracle", "renyi"):
                argv += ["--out", str(out)]
            code, err = run_cli(argv, capsys)
            if code not in (0, 1, 2, 3) or err.count("\n") > 1 or "Traceback" in err:
                found.append(f"{' '.join(command)} [{label}]: exit {code}, stderr {err!r}")
    return found


@pytest.mark.parametrize("kind", ["drop", "wrong_type", "negative", "unknown_key"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mutated_shipped_config(name, kind, tmp_path, capsys):
    cases = list(mutations(base_config(name), kind))
    assert cases
    assert faults(name, cases, tmp_path, capsys) == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_unknown_keys_refused(name, tmp_path, capsys):
    cases = list(mutations(base_config(name), "unknown_key"))
    labels = {label.rsplit(".", 1)[0] for label, _ in cases}
    assert {"unknown bogus_key", "unknown gate", "unknown mps", "unknown right_state"} <= labels
    cfg_path = tmp_path / "c.json"
    for label, mutant in cases:
        cfg_path.write_text(json.dumps(mutant))
        for command in COMMANDS[name]:
            argv = command + ["--config", str(cfg_path)]
            if command[0] in ("evolve", "oracle", "renyi"):
                argv += ["--out", str(tmp_path / "out")]
            code, err = run_cli(argv, capsys)
            assert code == 2, (command, label, err)
            assert err.startswith("configuration error: unknown key") and err.count("\n") == 1
            assert not (tmp_path / "out").exists()


def test_temporal_t_is_a_known_integer_list(tmp_path, capsys):
    # the benchmark's renyi config carries temporal_t through `solvcirc renyi`
    cfg_path = tmp_path / "c.json"
    argv = ["renyi", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    for value, code in [([1, 2], 0), ("12", 2), ([1.5], 2)]:
        cfg_path.write_text(json.dumps(dict(base_config("renyi_cluster.json"), temporal_t=value)))
        assert run_cli(argv, capsys)[0] == code, value


# Float and bool fields, each with a subcommand that reads it: every wrong
# JSON type must be refused with exit 2, where float() and bool() used to
# accept "0.5" and "false".  ``purify`` is optional, so it is added first.
STRICT_FIELDS = [
    ("entropy_saturation.json", "mps.theta", "evolve"),
    ("oracle_q4_general.json", "mps.theta", "check"),
    ("renyi_cluster.json", "right_state.mps_continuation", "oracle"),
    ("oracle_q2_dressed_swap.json", "purify", "oracle"),
]


@pytest.mark.parametrize("name,path,command", STRICT_FIELDS)
def test_strict_field_refuses_wrong_types(name, path, command, tmp_path, capsys):
    cfg = dict(base_config(name), purify=True)
    cfg_path = tmp_path / "c.json"
    argv = [command, "--config", str(cfg_path)]
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(argv, capsys)[0] == 0
    cases = [(label, mutant) for label, mutant in mutations(cfg, "wrong_type")
             if label.startswith(f"wrong_type {path} ")]
    assert cases
    for label, mutant in cases:
        cfg_path.write_text(json.dumps(mutant))
        code, err = run_cli(argv, capsys)
        assert code == 2, (label, err)
        assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_over_cap_size(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOLVCIRC_CAP", "64")
    cfg = base_config(name)
    grown = dict(cfg, l_r=cfg["l_r"] + 30)
    cases = [("as shipped", cfg), ("l_r + 30", grown)]
    assert faults(name, cases, tmp_path, capsys) == []
    # the commands that honour the cap refuse both sizes with exit 3
    for label, case in cases:
        (tmp_path / "c.json").write_text(json.dumps(case))
        for command in COMMANDS[name]:
            if command[0] in ("evolve", "oracle", "renyi"):
                argv = command + ["--config", str(tmp_path / "c.json"),
                                  "--out", str(tmp_path / "out")]
                assert run_cli(argv, capsys)[0] == 3, (command, label)


@pytest.mark.parametrize("key", ["gate", "mps"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_file_holding_a_non_object(name, key, tmp_path, capsys):
    # a {"file": ...} input is read like an inline section: a JSON
    # non-object in the file is refused with exit 2 and one line
    held, cfg_path = tmp_path / "held.json", tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(base_config(name), **{key: {"file": str(held)}})))
    for text in ["[1]", "1", '"x"', "null", "true"]:
        held.write_text(text)
        for command in COMMANDS[name]:
            argv = command + ["--config", str(cfg_path)]
            if command[0] in ("evolve", "oracle", "renyi"):
                argv += ["--out", str(tmp_path / "out")]
            code, err = run_cli(argv, capsys)
            assert code == 2, (command, text, err)
            assert err.startswith("configuration error: ") and err.count("\n") == 1


def explicit_gate_config(family):
    """A config whose gate is given by explicit params (no shipped config
    has any), copied from ``gate_to_json`` of a drawn member of ``family``."""
    q = 4 if family in ("general", "both_chirality_q4plus") else 2
    gate = cartan_gate(0.3, 0.2, 0.1) if family == "cartan" else \
        random_gate(family, make_rng(5), q=q, qt=2)
    params = json.loads(json.dumps(ser.gate_to_json(gate)["params"]))
    base = base_config("oracle_q4_general.json" if q == 4 else "oracle_q2_dressed_swap.json")
    return dict(base, gate={"family": family, "q": q, "qt": 2, "params": params})


@pytest.mark.parametrize("family", sorted(EXPLICIT_FAMILIES))
def test_non_finite_scalar_params_refused(family, tmp_path, capsys):
    # json.load reads the NaN and Infinity literals; a scalar gate param
    # holding one is refused by every subcommand, where a NaN phi used to
    # pass `check` (left_residual 0.0) and `fixed-point` and fail `evolve`
    # with exit 1
    cfg = explicit_gate_config(family)
    scalars = [k for k, v in cfg["gate"]["params"].items() if not isinstance(v, (dict, list))]
    assert scalars
    cfg_path, out = tmp_path / "c.json", tmp_path / "out"
    for key in scalars:
        for value in (float("nan"), float("inf"), float("-inf")):
            mutant = copy.deepcopy(cfg)
            mutant["gate"]["params"][key] = value
            cfg_path.write_text(json.dumps(mutant))
            assert "NaN" in cfg_path.read_text() or "Infinity" in cfg_path.read_text()
            for argv in (["check"], ["fixed-point"], ["evolve", "--out", str(out)]):
                code, err = run_cli(argv + ["--config", str(cfg_path)], capsys)
                assert code == 2, (argv, key, value, err)
                assert err == f"configuration error: gate param {key} must be a finite number, " \
                              f"got {json.dumps(value)}\n"
                assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8"])
@pytest.mark.parametrize("command", ["check", "oracle", "fixed-point"])
def test_tol_must_be_finite_and_positive(command, tol, tmp_path, capsys):
    name = {"check": "oracle_q4_general.json", "oracle": "oracle_q2_dressed_swap.json",
            "fixed-point": "fixed_point_q2.json"}[command]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(base_config(name)))
    argv = [command, "--config", str(cfg_path)]
    if command == "oracle":
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(argv, capsys)[0] == 0
    code, err = run_cli(argv + [f"--tol={tol}"], capsys)
    assert code == 2
    assert err.startswith("configuration error: --tol must be a finite number > 0")
    assert err.count("\n") == 1


@pytest.mark.parametrize("q", ["-1", "0", "1"])
def test_gen_gate_refuses_a_nonsense_local_dimension(q, tmp_path, capsys):
    out = tmp_path / "gate.json"
    code, err = run_cli(["gen-gate", "--family", "haar", "--q", q, "--out", str(out)], capsys)
    assert code == 2 and err.startswith("configuration error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("family", ["q2_qt1", "q2_qt2", "both_chirality_q2"])
def test_gen_gate_refuses_q_other_than_2_for_a_q2_family(family, tmp_path, capsys):
    # "--family q2_qt1 --q 5" used to write a gate with "q": 2 and exit 0
    out = tmp_path / "gate.json"
    for q in ("3", "4", "5"):
        code, err = run_cli(["gen-gate", "--family", family, "--q", q, "--seed", "1",
                             "--out", str(out)], capsys)
        assert code == 2 and err.startswith("configuration error: ") and err.count("\n") == 1
        assert "q = 2 only" in err and not out.exists()
    for extra in ([], ["--q", "2"]):
        assert run_cli(["gen-gate", "--family", family, "--seed", "1", "--out", str(out)] + extra,
                       capsys)[0] == 0
        assert json.loads(out.read_text())["q"] == 2


def test_negative_horizon_refused(tmp_path, capsys):
    # T < 0 used to print "fixed_point_residual": 0.0 and exit 0
    cfg_path = tmp_path / "c.json"
    argv = ["fixed-point", "--config", str(cfg_path)]
    cases = [(dict(base_config("fixed_point_q2.json"), tmax=-1), []),
             (base_config("fixed_point_q2.json"), ["--tsteps", "-1"])]
    for cfg, extra in cases:
        cfg_path.write_text(json.dumps(cfg))
        code, err = run_cli(argv + extra, capsys)
        assert code == 2, (extra, err)
        assert err == "configuration error: tsteps must be >= 0, got -1\n"


def test_gate_q_must_match_the_left_state(tmp_path, capsys):
    # `renyi --oracle` used to run a q = 2 gate on q = 4 legs, write
    # trace_via_oracle 0.799 next to trace_via_transfer 0.774 and exit 0
    gate, mps = {"family": "haar", "q": 2, "seed": 1}, {"family": "ghz_cluster", "q": 4, "theta": 0.5}
    cases = [("entropy_saturation.json", ["check"]), ("entropy_saturation.json", ["evolve"]),
             ("oracle_q4_general.json", ["oracle"]), ("fixed_point_q2.json", ["fixed-point"]),
             ("renyi_cluster.json", ["renyi", "--oracle"])]
    cfg_path, out = tmp_path / "c.json", tmp_path / "out"
    for name, command in cases:
        cfg_path.write_text(json.dumps(dict(base_config(name), gate=gate, mps=mps)))
        argv = command + ["--config", str(cfg_path)]
        if command[0] in ("evolve", "oracle", "renyi"):
            argv += ["--out", str(out)]
        code, err = run_cli(argv, capsys)
        assert code == 2 and err.startswith("configuration error: ") and err.count("\n") == 1, \
            (command, code, err)
        assert not out.exists()


# The strict fields of a {"file": ...} input: a gate or left-state file's
# integer fields, each matrix's rows and cols, and each [re, im] entry.
FILE_INT_FIELDS = {"q", "chi", "chip", "d", "rows", "cols"}


def file_field_mutations(obj):
    """(label, mutant) for each strict field of a gate or left-state file
    object, given a float, bool or str value in turn."""
    for path in paths(obj):
        *head, last = path
        parent = obj
        for key in head:
            parent = parent[key]
        value = parent[last]
        if last in FILE_INT_FIELDS:
            values = [value + 0.9, float(value), True, str(value)]
        elif len(path) >= 3 and path[-3] == "data":
            values = [True, str(value)]
        else:
            continue
        for bad in values:
            mutant = copy.deepcopy(obj)
            target = mutant
            for key in head:
                target = target[key]
            target[last] = bad
            yield f"{'.'.join(map(str, path))} -> {json.dumps(bad)}", mutant


def file_objects(tmp_path, capsys):
    """(section, file object) pairs: a gen-gate file and the pinned
    left-state files."""
    gate_path = tmp_path / "gate.json"
    assert run_cli(["gen-gate", "--family", "q2_qt2", "--seed", "3", "--out", str(gate_path)],
                   capsys)[0] == 0
    yield "gate", json.loads(gate_path.read_text())
    for kind in ("mps", "two_site", "lpdo"):
        yield "mps", json.loads((DATA_DIR / f"left_state_{kind}.json").read_text())


def test_file_inputs_refuse_lax_scalars(tmp_path, capsys):
    # read by `check` through a q = 2 shipped config: a gate file's
    # "q": 2.9 used to be truncated to 2 and a matrix's "rows": "4" parsed;
    # the files as written still load
    held, cfg_path = tmp_path / "held.json", tmp_path / "c.json"
    argv = ["check", "--config", str(cfg_path)]
    for section, obj in list(file_objects(tmp_path, capsys)):
        cfg_path.write_text(json.dumps(dict(base_config("oracle_q2_dressed_swap.json"),
                                            **{section: {"file": str(held)}})))
        held.write_text(json.dumps(obj))
        assert run_cli(argv, capsys) in ((0, ""), (1, ""))
        cases = list(file_field_mutations(obj))
        fields = {label.split(" ")[0].rsplit(".", 1)[-1] for label, _ in cases}
        assert {"rows", "cols", "0", "1"} <= fields and fields & {"q", "chi"}
        for label, mutant in cases:
            held.write_text(json.dumps(mutant))
            code, err = run_cli(argv, capsys)
            assert code == 2, (section, label, err)
            assert err.startswith("configuration error: ") and err.count("\n") == 1

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

from solvcirc.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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

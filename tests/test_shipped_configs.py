"""End-to-end runs of every shipped config through the CLI."""
import json
from pathlib import Path

import numpy as np
import pytest

from solvcirc.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"


def test_config_dir_present():
    assert CONFIG_DIR.is_dir()
    assert len(list(CONFIG_DIR.glob("*.json"))) >= 6


@pytest.mark.parametrize("name", ["oracle_q2_dressed_swap.json", "oracle_q4_general.json"])
def test_shipped_oracle_configs_agree(name, tmp_path):
    out = tmp_path / "o.csv"
    code = main(["oracle", "--config", str(CONFIG_DIR / name), "--out", str(out)])
    assert code == 0
    for line in out.read_text().strip().split("\n")[1:]:
        assert float(line.split(",")[1]) < 1e-10


def test_shipped_configs_pass_check(tmp_path):
    for name in ("oracle_q2_dressed_swap.json", "oracle_q4_general.json",
                 "entropy_saturation.json", "fixed_point_q2.json",
                 "rank_saturation_q2.json"):
        assert main(["check", "--config", str(CONFIG_DIR / name)]) == 0


def test_saturation_config_reaches_max_entropy(tmp_path):
    out = tmp_path / "saturation.csv"
    code = main(["evolve", "--config", str(CONFIG_DIR / "entropy_saturation.json"),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 42
    final_s = float(lines[-1].split(",")[1])
    assert abs(final_s - 4 * np.log(2)) < 1e-3
    # tests/data/entropy_saturation_evolve.csv is the committed output of
    # `solvcirc evolve --config configs/entropy_saturation.json`.  The S_ent
    # and observable columns are pinned; trace_residual and min_eig are
    # round-off that depends on the BLAS, so they are not.
    pinned = (DATA_DIR / "entropy_saturation_evolve.csv").read_text().strip().split("\n")
    assert lines[0] == pinned[0]
    for line, ref in zip(lines[1:], pinned[1:]):
        got, want = line.split(","), ref.split(",")
        assert got[0] == want[0] and len(got) == len(want)
        for col in (1, *range(4, len(want))):
            assert abs(float(got[col]) - float(want[col])) <= 1e-12


def test_renyi_config_cross_checks(tmp_path):
    out = tmp_path / "renyi.csv"
    code = main(["renyi", "--config", str(CONFIG_DIR / "renyi_cluster.json"),
                 "--oracle", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 6  # n in {2,3} x t in {1,2,3}
    for f in rows:
        assert abs(float(f[2]) - float(f[3])) < 1e-8
        assert 0.0 <= float(f[5]) <= 2.0 + 1e-8


def test_renyi_oracle_output_pinned(tmp_path):
    # tests/data/renyi_cluster_oracle.csv is the committed output of
    # `solvcirc renyi --oracle --config configs/renyi_cluster.json`
    out = tmp_path / "renyi.csv"
    code = main(["renyi", "--config", str(CONFIG_DIR / "renyi_cluster.json"),
                 "--oracle", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA_DIR / "renyi_cluster_oracle.csv").read_bytes()


def test_fixed_point_config(capsys):
    code = main(["fixed-point", "--config", str(CONFIG_DIR / "fixed_point_q2.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fixed_point_residual"] < 1e-10
    assert payload["solvable_left_residual"] < 1e-10

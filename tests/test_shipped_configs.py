"""End-to-end runs of every shipped config through the CLI."""
import json
from pathlib import Path

import numpy as np
import pytest

from solvcirc.cli import build_engine, build_gate, build_mps, main
from solvcirc.evolve import states, subsystem_density
from solvcirc.linalg import von_neumann_entropy

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"


def columns(csv_text: str, *cols: int) -> list[list[str]]:
    """The given columns of every line, header included, as text."""
    return [[line.split(",")[c] for c in cols] for line in csv_text.strip().split("\n")]


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
    # tests/data/<config>.csv is the committed output of `solvcirc oracle`.
    # The t, oracle_entropy and engine_entropy columns are pinned;
    # trace_distance is round-off that depends on the BLAS, so it is not.
    pinned = (DATA_DIR / name.replace(".json", ".csv")).read_text()
    assert columns(out.read_text(), 0, 2, 3) == columns(pinned, 0, 2, 3)


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


def test_rank_saturation_config_pinned(tmp_path):
    # tests/data/rank_saturation_q2_evolve.csv is the committed output of
    # `solvcirc evolve --config configs/rank_saturation_q2.json`, which holds
    # rho(0) as its ket and every later state in the channel's output range.
    # As in the CI step, t, S_ent and the observables are pinned byte for
    # byte; trace_residual and min_eig are BLAS round-off.
    out = tmp_path / "rank.csv"
    code = main(["evolve", "--config", str(CONFIG_DIR / "rank_saturation_q2.json"),
                 "--out", str(out)])
    assert code == 0
    pinned = (DATA_DIR / "rank_saturation_q2_evolve.csv").read_text()
    n_cols = len(pinned.split("\n")[0].split(","))
    keep = (0, 1, *range(4, n_cols))
    assert columns(out.read_text(), *keep) == columns(pinned, *keep)


def product_q4_config() -> dict:
    """The chi = 1 variant of entropy_saturation.json that the CI step runs:
    a product-state MPS, l_r = 5 (D = 1024), stopped at t = 4 (from t = l_r
    on the state is pure and S_ent is round-off)."""
    cfg = json.loads((CONFIG_DIR / "entropy_saturation.json").read_text())
    cfg["mps"] = {"family": "product", "ket": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    cfg["l_r"], cfg["tmax"] = 5, 4
    cfg["right_state"] = {"product": [2, 2, 2, 2, 2]}
    return cfg


def test_product_q4_pinned_and_dense(tmp_path):
    # tests/data/product_q4_evolve.csv is the committed output of `solvcirc
    # evolve` on product_q4_config(): t, S_ent and the observables pinned as
    # for the shipped configs, and each S_ent cell within 1e-12 of the dense
    # eigensolve of rho_R, which at chi = 1 is the D x D joint state
    cfg = product_q4_config()
    path = tmp_path / "product_q4.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "product_q4.csv"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    pinned = (DATA_DIR / "product_q4_evolve.csv").read_text()
    keep = (0, 1, 4, 5)
    assert columns(out.read_text(), *keep) == columns(pinned, *keep)
    econf = build_engine(cfg, build_gate(cfg), build_mps(cfg))
    rows = columns(pinned, 0, 1)[1:]
    assert econf.chi == 1 and len(rows) == cfg["tmax"] + 1
    for (t, s_ent), s in zip(rows, states(econf)):
        assert int(t) == s.t
        want = von_neumann_entropy(subsystem_density(s))
        assert abs(float(s_ent) - want) <= 1e-12


def lpdo_config() -> dict:
    """The LPDO run of the CI step: the q=2, chi=1, d=2 left state of
    tests/data/left_state_lpdo.json, whose channel has r = chi q, so the
    joint state keeps n = D."""
    return {"version": "1", "seed": 3, "gate": {"family": "q2_qt2", "seed": 3},
            "mps": {"file": str(DATA_DIR / "left_state_lpdo.json")},
            "right_state": {"product": [0] * 6}, "l_r": 6, "tmax": 6,
            "observables": [{"site": 0, "op": "pauli:3"}]}


def test_lpdo_left_state_pinned(tmp_path):
    # tests/data/lpdo_evolve.csv is the committed output of `solvcirc evolve`
    # on lpdo_config(): t, S_ent and the observable pinned byte for byte
    path = tmp_path / "lpdo.json"
    path.write_text(json.dumps(lpdo_config()))
    out = tmp_path / "lpdo.csv"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
    pinned = (DATA_DIR / "lpdo_evolve.csv").read_text()
    assert columns(out.read_text(), 0, 1, 4) == columns(pinned, 0, 1, 4)


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


def ket_config(name, kets):
    """The shipped config ``name`` with its right state given as explicit kets."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["right_state"] = {"kets": [[[z.real, z.imag] for z in row] for row in kets]}
    return cfg


def run_csv(command, cfg, tmp_path, capsys):
    """(exit code, CSV text, stderr) of ``command`` on the config dict."""
    path, out = tmp_path / "c.json", tmp_path / "o.csv"
    path.write_text(json.dumps(cfg))
    out.unlink(missing_ok=True)
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, out.read_text() if out.exists() else None, capsys.readouterr().err


KET_RUNS = [("evolve", "rank_saturation_q2.json", (2, 2 ** 8)),
            ("oracle", "oracle_q2_dressed_swap.json", (2, 2 ** 3))]


@pytest.mark.parametrize("command,name,shape", KET_RUNS)
def test_kets_scaled_by_a_power_of_two_give_the_same_csv(command, name, shape, tmp_path, capsys):
    # a ket is defined only up to scale: 2^700 used to overflow the norm and
    # 2^-700 to underflow it, each a configuration error with exit 2
    rng = np.random.default_rng(16)
    kets = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    runs = [run_csv(command, ket_config(name, kets * s), tmp_path, capsys)
            for s in (1.0, 2.0 ** 700, 2.0 ** -700)]
    assert all(code == 0 and err == "" for code, _, err in runs)
    assert runs[0][1] == runs[1][1] == runs[2][1]
    # the product state written as kets, as the CI step runs it
    product = np.zeros(shape, dtype=complex)
    product[:, 0] = 2.0 ** 700
    cfg = json.loads((CONFIG_DIR / name).read_text())
    assert run_csv(command, ket_config(name, product), tmp_path, capsys)[1] == \
        run_csv(command, cfg, tmp_path, capsys)[1]


@pytest.mark.parametrize("command,name,shape", KET_RUNS)
def test_huge_and_tiny_kets_run(command, name, shape, tmp_path, capsys):
    rng = np.random.default_rng(17)
    kets = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = run_csv(command, ket_config(name, kets), tmp_path, capsys)[1]
    for scale in (1e200, 1e-200):
        code, text, err = run_csv(command, ket_config(name, kets * scale), tmp_path, capsys)
        assert code == 0 and err == ""
        for row, want in zip(text.strip().split("\n")[1:], ref.strip().split("\n")[1:]):
            assert np.allclose([float(c) for c in row.split(",")],
                               [float(c) for c in want.split(",")], rtol=0, atol=1e-12)


@pytest.mark.parametrize("command,name,shape", KET_RUNS)
def test_zero_kets_refused(command, name, shape, tmp_path, capsys):
    code, text, err = run_csv(command, ket_config(name, np.zeros(shape)), tmp_path, capsys)
    assert code == 2 and text is None
    assert err.startswith("configuration error: ") and "all entries are zero" in err
    assert err.count("\n") == 1

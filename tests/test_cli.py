import csv
import json
import warnings

import numpy as np
import pytest

from solvcirc import cli
from solvcirc import serialize as ser
from solvcirc import evolve as ev
from solvcirc import renyi as ry
from solvcirc.cli import main
from solvcirc.errors import (CapacityError, DominanceError, NumericalDriftError,
                             PositivityError)
from solvcirc.gates import EXPLICIT_FAMILIES, cartan_gate, random_gate
from solvcirc.linalg import make_rng


def write_config(path, **overrides):
    cfg = {
        "version": "1",
        "seed": 7,
        "gate": {"family": "q2_qt1", "seed": 3},
        "mps": {"family": "product", "ket": [[1, 0], [0, 0]]},
        "right_state": {"product": [0, 0]},
        "l_r": 2,
        "tmax": 2,
        "l_left": 6,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestCheck:
    def test_solvable_gate_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["check", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["left_residual"] < 1e-10
        assert report["soliton_residual"] < 1e-10

    def test_haar_gate_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", gate={"family": "haar", "seed": 5})
        assert main(["check", "--config", str(cfg)]) == 1

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["check", "evolve"])
    @pytest.mark.parametrize("text", ["[1, 2]", "3"])
    def test_non_object_config_exits_two(self, tmp_path, capsys, command, text):
        bad = tmp_path / "c.json"
        bad.write_text(text)
        assert main([command, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config must be a JSON object")
        assert err.count("\n") == 1

    def test_unknown_version_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", version="99")
        assert main(["check", "--config", str(cfg)]) == 2

    def test_require_both_chirality(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           gate={"family": "both_chirality_q2", "seed": 1})
        assert main(["check", "--config", str(cfg), "--require", "left,right"]) == 0
        cfg2 = write_config(tmp_path / "c2.json")  # q2_qt1: right fails
        assert main(["check", "--config", str(cfg2), "--require", "left,right"]) == 1


class TestNonObjectFile:
    @pytest.mark.parametrize("command", ["check", "evolve"])
    @pytest.mark.parametrize("key", ["gate", "mps"])
    @pytest.mark.parametrize("text", ["[1]", "3", '"x"', "null"])
    def test_exits_two_with_one_line(self, tmp_path, capsys, command, key, text):
        held = tmp_path / "held.json"
        held.write_text(text)
        cfg = write_config(tmp_path / "c.json", **{key: {"file": str(held)}})
        assert main([command, "--config", str(cfg), *(["--out", str(tmp_path / "o.csv")]
                                                      if command == "evolve" else [])]) == 2
        err = capsys.readouterr().err
        what = "gate file" if key == "gate" else "left-state file"
        assert err.startswith(f"configuration error: {what} must be a JSON object")
        assert err.count("\n") == 1


class TestGenGate:
    def test_writes_gate_file(self, tmp_path):
        out = tmp_path / "gate.json"
        assert main(["gen-gate", "--family", "general", "--q", "4", "--qt", "2",
                     "--seed", "9", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["q"] == 4
        assert payload["family"] == "general"
        assert payload["matrix"]["rows"] == 16

    def test_gate_file_usable_in_config(self, tmp_path):
        out = tmp_path / "gate.json"
        main(["gen-gate", "--family", "q2_qt2", "--seed", "2", "--out", str(out)])
        cfg = write_config(tmp_path / "c.json",
                           gate={"file": str(out)},
                           mps={"family": "ghz_cluster", "q": 2,
                                "theta": np.pi / 4})
        assert main(["check", "--config", str(cfg)]) == 0


class TestEvolve:
    def test_csv_shape_and_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            gate={"family": "general", "q": 4, "qt": 2, "seed": 4},
            mps={"family": "ghz_cluster", "q": 4, "theta": np.pi / 4},
            right_state={"product": [2, 2]},
            l_r=2, tmax=3,
            observables=[{"site": 0, "op": "proj:2"}],
        )
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "t,S_ent,trace_residual,min_eig,site0:proj:2"
        assert len(lines) == 5  # header + t=0..3

    def test_tmax_zero_single_row(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmax=0)
        out = tmp_path / "r.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) < 1e-12  # S_ent of product start

    def test_negative_tmax_exits_two_without_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", tmax=-3)
        out = tmp_path / "r.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: tmax must be >= 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["evolve", "oracle"])
    def test_capacity_exits_three(self, tmp_path, capsys, monkeypatch, command):
        # D = 2^4 = 16 needs 256 entries; the chain (2^6 amplitudes) fits.
        # The right kets must not be built for a config over the cap.
        def not_reached(*args):
            raise AssertionError("right kets built for an over-cap engine")

        monkeypatch.setenv("SOLVCIRC_CAP", "255")
        monkeypatch.setattr(cli, "build_right_kets", not_reached)
        cfg = write_config(tmp_path / "c.json", l_r=4, tmax=1, l_left=2,
                           right_state={"product": [0, 0, 0, 0]})
        out = tmp_path / "r.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("capacity error: joint density matrix would hold "
                              "16^2 = 256 entries (cap 255)")
        assert err.count("\n") == 1

    def test_capacity_default_is_density_entry_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SOLVCIRC_CAP", raising=False)
        monkeypatch.setattr(ev, "DENSITY_ENTRY_CAP", 255)
        cfg = write_config(tmp_path / "c.json", l_r=4,
                           right_state={"product": [0, 0, 0, 0]})
        assert main(["evolve", "--config", str(cfg)]) == 3
        assert "(cap 255)" in capsys.readouterr().err

    def test_pauli_observable_q2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           observables=[{"site": 1, "op": "pauli:3"}])
        out = tmp_path / "r.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        first = out.read_text().strip().split("\n")[1].split(",")
        assert abs(float(first[4]) - 1.0) < 1e-12  # <Z> of |0>


class TestObservableTags:
    @pytest.mark.parametrize("to_file", [True, False])
    def test_comma_tag_is_quoted(self, tmp_path, capsys, to_file):
        cfg = write_config(tmp_path / "c.json",
                           observables=[{"site": 0, "op": "diag:0.5,1"}])
        argv = ["evolve", "--config", str(cfg)]
        out = tmp_path / "r.csv"
        if to_file:
            argv += ["--out", str(out)]
        assert main(argv) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        table = list(csv.reader(text.splitlines()))
        assert table[0] == ["t", "S_ent", "trace_residual", "min_eig", "site0:diag:0.5,1"]
        assert len(table) == 4 and all(len(row) == len(table[0]) for row in table)
        assert float(table[1][4]) == 0.5  # site 0 starts in |0>

    @pytest.mark.parametrize("arg", ["nan,1", "inf,0", "1,-inf", "NaN,0"])
    def test_non_finite_diag_exits_two(self, tmp_path, capsys, monkeypatch, arg):
        def not_reached(*args):
            raise AssertionError("engine built for a non-finite observable")

        monkeypatch.setattr(cli, "build_engine", not_reached)
        cfg = write_config(tmp_path / "c.json",
                           observables=[{"site": 0, "op": f"diag:{arg}"}])
        out = tmp_path / "r.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"configuration error: diag entries must be finite, got '{arg}'\n"


class TestExplicitParams:
    @pytest.mark.parametrize("family", sorted(EXPLICIT_FAMILIES))
    def test_table_builds_the_direct_gate(self, family):
        q = 4 if family in ("general", "both_chirality_q4plus") else 2
        if family == "cartan":
            direct = cartan_gate(0.3, 0.2, 0.1)
        else:
            direct = random_gate(family, make_rng(5), q=q, qt=2)
        params = json.loads(json.dumps(ser.gate_to_json(direct)["params"]))
        built = cli.build_gate({"gate": {"family": family, "q": q, "qt": 2,
                                         "params": params}})
        assert built.family == family
        assert built.matrix.tobytes() == direct.matrix.tobytes()

    def test_params_copied_from_gen_gate_run_without_warnings(self, tmp_path, capsys):
        # gen-gate writes the real coupling table h as a complex matrix
        out = tmp_path / "gate.json"
        assert main(["gen-gate", "--family", "both_chirality_q4plus", "--q", "4",
                     "--seed", "9", "--out", str(out)]) == 0
        params = json.loads(out.read_text())["params"]

        def config():
            return write_config(tmp_path / "c.json",
                                gate={"family": "both_chirality_q4plus", "q": 4,
                                      "params": params},
                                mps={"family": "ghz_cluster", "q": 4, "theta": np.pi / 4},
                                right_state={"product": [2, 2]})
        cfg = config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", str(cfg)]) == 0
            assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 0
        # an imaginary part is refused, not dropped
        params["h"]["__matrix__"]["data"][-1][1] = 1e-3
        config()
        capsys.readouterr()
        assert main(["check", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "configuration error: h must be real\n"

    @pytest.mark.parametrize("gate,message", [
        ({"family": "haar", "params": {}}, "family 'haar' does not accept explicit params"),
        ({"family": "cartan", "params": [0.1]}, "params must be a JSON object"),
        ({"family": "general", "q": 4.0, "qt": 2, "params": {}}, "gate q must be an integer"),
    ])
    def test_bad_explicit_params_exit_two(self, tmp_path, capsys, gate, message):
        cfg = write_config(tmp_path / "c.json", gate=gate)
        assert main(["check", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")


class TestOracle:
    def test_agreement_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", l_r=3, tmax=3, l_left=8,
                           right_state={"product": [0, 0, 0]})
        out = tmp_path / "o.csv"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,trace_distance,oracle_entropy,engine_entropy"
        assert all(float(l.split(",")[1]) < 1e-10 for l in lines[1:])

    def test_wrong_layer_order_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", l_r=3, tmax=3, l_left=8,
                           right_state={"product": [0, 0, 0]})
        assert main(["oracle", "--config", str(cfg),
                     "--layer-order", "odd_first"]) == 1

    def test_lightcone_violation_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", l_left=3, tmax=3)
        assert main(["oracle", "--config", str(cfg)]) == 2

    def test_negative_tmax_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmax=-3)
        out = tmp_path / "o.csv"
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_capacity_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOLVCIRC_CAP", "64")
        cfg = write_config(tmp_path / "c.json", l_left=6, tmax=2)
        assert main(["oracle", "--config", str(cfg)]) == 3


class TestRenyi:
    def test_product_state_zero_velocity(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           gate={"family": "both_chirality_q2", "seed": 8},
                           n_list=[2, 3], t_list=[1, 2])
        out = tmp_path / "r.csv"
        assert main(["renyi", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,t,trace_via_transfer,trace_via_oracle,lambda_n,v_E"
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[2]) - 1.0) < 1e-10
            assert abs(float(fields[5])) < 1e-10

    def test_oracle_cross_check_column(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           gate={"family": "swap", "seed": 0},
                           mps={"family": "ghz_cluster", "q": 2, "theta": np.pi / 4},
                           n_list=[2], t_list=[1, 2])
        out = tmp_path / "r.csv"
        assert main(["renyi", "--config", str(cfg), "--oracle",
                     "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            f = line.split(",")
            assert abs(float(f[2]) - float(f[3])) < 1e-8
            assert 0.0 <= float(f[5]) <= 2.0

    def test_oracle_without_gate_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                                   if k != "gate"}))
        out = tmp_path / "r.csv"
        assert main(["renyi", "--config", str(cfg), "--oracle", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --oracle requires a gate in the config\n")
        assert not out.exists()

    def test_trace_dominance_error_writes_nan(self, tmp_path, capsys, monkeypatch):
        def ambiguous(mps, n, t):
            raise DominanceError("transfer overlap has imaginary part 1.00e-03")

        monkeypatch.setattr(ry, "renyi_trace_via_transfer", ambiguous)
        cfg = write_config(tmp_path / "c.json",
                           mps={"family": "ghz_cluster", "q": 2, "theta": np.pi / 4},
                           n_list=[2], t_list=[1, 2])
        out = tmp_path / "r.csv"
        assert main(["renyi", "--config", str(cfg), "--out", str(out)]) == 1
        rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
        assert [r[2] for r in rows] == ["nan", "nan"]
        assert all(abs(float(r[4]) - 0.5) < 1e-12 for r in rows)  # lambda_2 kept
        err = capsys.readouterr().err.splitlines()
        assert [e.split(":")[0] for e in err] == ["dominance error at n=2, t=1",
                                                  "dominance error at n=2, t=2"]


class TestExitCodeTable:
    @pytest.mark.parametrize("exc,code,label", [
        (PositivityError("eigenvalue -1e-3\nbelow slack"), 1, "numerical error"),
        (np.linalg.LinAlgError("eigenvalues did not converge"), 1, "numerical error"),
        (NumericalDriftError("trace drifted\nby 1e-6"), 1, "numerical error"),
        (DominanceError("distinct eigenvalues [ 0.5\n -0.5]"), 1, "numerical error"),
        (CapacityError("2^40 amplitudes"), 3, "capacity error"),
        (ValueError("bad level"), 2, "configuration error"),
        (KeyError("gate"), 2, "configuration error"),
        (TypeError("not a dict"), 2, "configuration error"),
        (OSError("no such file"), 2, "configuration error"),
        (json.JSONDecodeError("Expecting value", "{x", 1), 2, "configuration error"),
    ])
    def test_maps_to_exit_code(self, tmp_path, capsys, monkeypatch, exc, code, label):
        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", failing)
        cfg = write_config(tmp_path / "c.json")
        assert main(["check", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{label}: ")
        assert "Traceback" not in err

    def test_unlisted_exception_propagates(self, tmp_path, monkeypatch):
        def failing(args):
            raise RuntimeError("a bug, not an input error")

        monkeypatch.setattr(cli, "cmd_check", failing)
        cfg = write_config(tmp_path / "c.json")
        with pytest.raises(RuntimeError):
            main(["check", "--config", str(cfg)])


class TestFixedPoint:
    def test_solvable_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", tmax=2)
        assert main(["fixed-point", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fixed_point_residual"] < 1e-10

    def test_haar_control_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmax=2,
                           gate={"family": "haar", "seed": 12})
        assert main(["fixed-point", "--config", str(cfg)]) == 1


Q4 = {"gate": {"family": "general", "q": 4, "qt": 2, "seed": 4},
      "mps": {"family": "ghz_cluster", "q": 4, "theta": np.pi / 4},
      "right_state": {"product": [2, 2]}}


class TestStrictIntegers:
    """Integer fields take JSON integers only; bool, float and str used to be
    truncated or parsed by int() and the run went on with exit 0."""

    @pytest.mark.parametrize("command,overrides,field", [
        ("evolve", {"tmax": 2.9}, "tmax"),
        ("evolve", {"tmax": True}, "tmax"),
        ("evolve", {"l_r": "2"}, "l_r"),
        ("oracle", {"l_left": 6.5}, "l_left"),
        ("renyi", {"n_list": "23"}, "n_list"),
        ("renyi", {"n_list": [2.5]}, "n_list entry"),
        ("renyi", {"t_list": [1, True]}, "t_list entry"),
        ("renyi", {"t_list": 2}, "t_list"),
        ("fixed-point", {"tmax": 1.5}, "tmax"),
        ("evolve", {**Q4, "gate": {**Q4["gate"], "q": 4.0}}, "gate q"),
        ("evolve", {**Q4, "gate": {**Q4["gate"], "qt": "2"}}, "gate qt"),
        ("evolve", {**Q4, "mps": {**Q4["mps"], "q": 4.0}}, "mps q"),
        ("evolve", {"right_state": {"product": [0, 0.5]}}, "right_state product entry"),
        ("evolve", {"observables": [{"site": 0.5, "op": "pauli:3"}]}, "observable site"),
        ("evolve", {"observables": [{"site": True, "op": "pauli:3"}]}, "observable site"),
        ("evolve", {"gate": {"family": "q2_qt1", "seed": 3.5}}, "gate seed"),
        ("evolve", {"seed": "7", "gate": {"family": "q2_qt1"}}, "seed"),
    ])
    def test_non_integer_exits_two(self, tmp_path, capsys, command, overrides, field):
        cfg = write_config(tmp_path / "c.json", **overrides)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command != "fixed-point":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} must be ")
        assert err.count("\n") == 1

    def test_observable_site_checked_before_the_engine(self, tmp_path, capsys,
                                                       monkeypatch):
        def not_reached(*args):
            raise AssertionError("engine built for an out-of-range observable")

        monkeypatch.setattr(cli, "build_engine", not_reached)
        cfg = write_config(tmp_path / "c.json",
                           observables=[{"site": 2, "op": "pauli:3"}])
        assert main(["evolve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: observable site 2 out of range for l_r=2\n"

    @pytest.mark.parametrize("overrides,message", [
        ({"right_state": "x"}, "right_state must be a JSON object"),
        ({"mps": [1]}, "mps must be a JSON object"),
        ({"observables": [{"site": 0, "op": 3}]}, "observable op must be a string"),
    ])
    def test_wrong_section_type_exits_two(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main(["evolve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")


class TestStrictFloatsAndBools:
    """Float fields take JSON numbers and bool fields JSON true/false only:
    float() parsed a string theta, and a truthy "false" turned purification
    and the MPS continuation on, all with exit 0."""

    @pytest.mark.parametrize("command,overrides,field", [
        ("evolve", {**Q4, "mps": {**Q4["mps"], "theta": "0.5"}}, "mps theta"),
        ("check", {**Q4, "mps": {**Q4["mps"], "theta": True}}, "mps theta"),
        ("check", {**Q4, "mps": {**Q4["mps"], "theta": float("nan")}}, "mps theta"),
        ("evolve", {"mps": {"family": "product", "ket": [[True, 0], [0, 0]]}},
         "mps ket entry"),
        ("evolve", {"right_state": {"kets": [[[1, 0], ["0", 0], [0, 0], [0, 0]]]}},
         "right_state ket entry"),
        ("evolve", {"right_state": {"mps_continuation": 1}}, "right_state mps_continuation"),
        ("oracle", {"right_state": {"mps_continuation": "true"}},
         "right_state mps_continuation"),
        ("oracle", {"purify": "false"}, "purify"),
        ("oracle", {"purify": 0}, "purify"),
    ])
    def test_wrong_type_exits_two(self, tmp_path, capsys, command, overrides, field):
        cfg = write_config(tmp_path / "c.json", **overrides)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command != "check":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} must be ")
        assert err.count("\n") == 1

    def test_json_numbers_and_bools_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", purify=True,
                           mps={"family": "product", "ket": [[1, 0.0], [0, 0]]},
                           right_state={"kets": [[[1, 0], [0, 0], [0, 0], [0, 0]]]})
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_purify_false_runs_without_purification(self, tmp_path, monkeypatch):
        seen = []
        real = cli.orc.evolve_chain
        monkeypatch.setattr(cli.orc, "evolve_chain",
                            lambda spec: seen.append(spec.purify) or real(spec))
        cfg = write_config(tmp_path / "c.json", purify=False)
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert seen == [False]

"""End-to-end command line tests.

Each test drives ``rbmlogic.cli.main`` in process (one starts a fresh
interpreter to see what happens before numpy loads) with a throwaway
working directory, then checks exit codes, printed summaries, and the
files the command leaves behind (models, CSV reports, manifests).
"""

import json
import os
import random
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import rbmlogic
from rbmlogic.cli import load_model, main, save_model
from rbmlogic.merge import MergedModel, public_terminals
from rbmlogic.model import Rbm
from rbmlogic.synthesis import Unit, build_multiplier, builtin_model
from rbmlogic import training
from rbmlogic.training import generate_dataset


@pytest.fixture(autouse=True)
def _no_outdir(monkeypatch):
    # keep relative output paths rooted in the test cwd
    monkeypatch.delenv("RBMLOGIC_OUTDIR", raising=False)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("models")
    for spec in ["xor", "adder1", "mult2", "fa1"]:
        assert main(["build", spec, "-o", str(path / f"{spec}.json")]) == 0
    assert main(["build", "adder4", "-o", str(path / "adder4.json"),
                 "--base", "adder2"]) == 0
    return path


class TestBuild:
    def test_gate_writes_model_and_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["build", "xor", "-o", "xor.json"]) == 0
        out = capsys.readouterr().out
        assert "built xor: 3 visible, 4 hidden, 3 exported terminals, 0 constants" in out
        assert "wrote xor.json" in out
        model = load_model(tmp_path / "xor.json")
        assert isinstance(model, Rbm)
        assert model.visible_names == ("in1", "in2", "out")
        # plain single units carry no terminal sidecar
        assert not (tmp_path / "xor.terminals.json").exists()
        manifest = json.loads((tmp_path / "xor.manifest.json").read_text())
        assert sorted(manifest) == ["argv", "command", "environment", "outputs", "version"]
        assert manifest["command"] == "build"
        assert manifest["argv"] == ["build", "xor", "-o", "xor.json"]

    def test_merged_model_round_trips_through_sidecar(self, model_dir):
        sidecar = json.loads((model_dir / "fa1.terminals.json").read_text())
        assert sorted(sidecar) == ["constants", "terminal_map"]
        assert len(sidecar["terminal_map"]) == 15
        assert sidecar["constants"] == {}
        model = load_model(model_dir / "fa1.json")
        assert isinstance(model, MergedModel)
        assert sorted(public_terminals(model)) == ["A", "B", "Cin", "Cout", "S"]
        assert model.terminal_map == sidecar["terminal_map"]

    @pytest.mark.parametrize("name, n_constants", [
        ("fa1", 0), ("adder16", 0), ("mult8", 38), ("mult4 --base mult2", 22)])
    def test_composed_model_keeps_its_constants_through_its_files(self, tmp_path, name,
                                                                  n_constants):
        model = (build_multiplier(4, builtin_model("mult2"), builtin_model("adder1"))
                 if name == "mult4 --base mult2" else builtin_model(name))
        back = load_model(save_model(model, tmp_path / "m.json")[0])
        assert isinstance(back, MergedModel)
        for field in ("weights", "visible_bias", "hidden_bias"):
            assert getattr(back.rbm, field).tobytes() == getattr(model.rbm, field).tobytes()
        assert back.rbm.visible_names == model.rbm.visible_names
        assert back.terminal_map == model.terminal_map
        assert back.constants == model.constants
        assert len(back.constants) == n_constants

    def test_sidecar_with_an_old_exports_list_loads(self, tmp_path, model_dir):
        # Sidecars once carried an exports list; it is ignored on load.
        (tmp_path / "fa1.json").write_text((model_dir / "fa1.json").read_text())
        sidecar = json.loads((model_dir / "fa1.terminals.json").read_text())
        (tmp_path / "fa1.terminals.json").write_text(json.dumps(sidecar | {"exports": ["A"]}))
        model = load_model(tmp_path / "fa1.json")
        assert model.terminal_map == sidecar["terminal_map"]
        assert sorted(public_terminals(model)) == ["A", "B", "Cin", "Cout", "S"]

    def test_base_option_stacks_narrow_adders(self, model_dir, capsys):
        main(["inspect", str(model_dir / "adder4.json")])
        out = capsys.readouterr().out
        assert "visible: 17  hidden: 32  parameters: 593" in out
        model = load_model(model_dir / "adder4.json")
        assert len(public_terminals(model)) == 14

    def test_model_file_is_resaved_with_its_sidecar(self, tmp_path, model_dir, capsys):
        # A model JSON, not a netlist, is loaded and written back unchanged.
        assert main(["build", str(model_dir / "fa1.json"), "-o",
                     str(tmp_path / "copy.json")]) == 0
        assert "8 visible, 20 hidden, 5 exported terminals" in capsys.readouterr().out
        for name in ("fa1.json", "fa1.terminals.json"):
            copy = tmp_path / name.replace("fa1", "copy")
            assert copy.read_text() == (model_dir / name).read_text()

    def test_base_option_stacks_multipliers(self, tmp_path, capsys):
        assert main(["build", "mult4", "-o", str(tmp_path / "m.json"),
                     "--base", "mult2"]) == 0
        assert "built mult4: 91 visible, 256 hidden, 16 exported terminals, 22 constants" \
            in capsys.readouterr().out
        model = load_model(tmp_path / "m.json")
        assert sorted(public_terminals(model)) == sorted(Unit("multiplier", 4).terminals)

    def test_one_bit_adder_on_a_one_bit_base_can_be_posed(self, tmp_path, capsys):
        # Its operands are the plain A, B and S that a 1-bit adder exports.
        assert main(["build", "adder1", "--base", "adder1",
                     "-o", str(tmp_path / "a.json")]) == 0
        code = main(["solve", str(tmp_path / "a.json"), "--op", "add",
                     "--clamp", "A=1", "--clamp", "B=1"])
        assert code == 0
        assert "verdict: consistent" in capsys.readouterr().out

    def test_missing_model_file_is_not_a_builtin_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["build", "missing.json", "-o", "x.json"]) == 2
        assert "No such file or directory: 'missing.json'" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_base_option_reads_unit_names_in_any_case(self, tmp_path, capsys):
        for spec in ("adder4", "Adder4"):
            assert main(["build", spec, "--base", "adder1",
                         "-o", str(tmp_path / f"{spec}.json")]) == 0
        assert "built Adder4: 17 visible" in capsys.readouterr().out
        assert (tmp_path / "Adder4.json").read_text() == (tmp_path / "adder4.json").read_text()

    def test_base_option_rejects_plain_gates(self, tmp_path, capsys):
        code = main(["build", "xor", "-o", str(tmp_path / "x.json"),
                     "--base", "adder1"])
        assert code == 2
        assert "--base only applies" in capsys.readouterr().err

    def test_netlist_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        net = {"components": [{"id": "g0", "model": "xor"},
                              {"id": "g1", "model": "xor"}],
               "connections": [["g0.out", "g1.in1"]],
               "exports": {"g0.in1": "X"}}
        (tmp_path / "net.json").write_text(json.dumps(net))
        assert main(["build", "net.json", "-o", "chain.json"]) == 0
        assert "5 visible, 8 hidden, 1 exported terminals" in capsys.readouterr().out
        model = load_model(tmp_path / "chain.json")
        assert public_terminals(model) == ["X"]

    def test_overflowing_sharpness_exits_2_naming_it(self, tmp_path, capsys):
        # 1e308 is finite, but the hidden biases c * (0.5 - ones) overflow.
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["build", "adder2", "--sharpness", "1e308",
                         "-o", str(tmp_path / "m.json")])
        assert code == 2
        assert "sharpness must be" in capsys.readouterr().err
        assert not seen
        assert not (tmp_path / "m.json").exists()

    def test_unknown_model_fails(self, tmp_path, capsys):
        assert main(["build", "wat", "-o", str(tmp_path / "w.json")]) == 2
        assert "unknown builtin model 'wat'" in capsys.readouterr().err

    @pytest.mark.parametrize("change, field", [
        ({"components": {"g0": "xor"}}, "components"),
        ({"components": [["g0", "xor"]]}, "components"),
        ({"components": [{"id": "g0", "model": 5}]}, "components"),
        ({"components": [{"model": "xor"}]}, "components"),
        ({"connections": None}, "connections"),
        ({"connections": [["g0.out", "g1.in1", "g1.in2"]]}, "connections"),
        ({"connections": [["g0.out", 1]]}, "connections"),
        ({"exports": [["g0.in1", "X"]]}, "exports"),
        ({"exports": {"g0.in1": 7}}, "exports"),
    ], ids=["components_object", "component_list", "model_int", "id_missing",
            "connections_missing", "connection_triple", "endpoint_int", "exports_list",
            "export_int"])
    def test_malformed_netlist_is_an_input_error(self, tmp_path, capsys, change, field):
        net = {"components": [{"id": "g0", "model": "xor"}, {"id": "g1", "model": "xor"}],
               "connections": [["g0.out", "g1.in1"]], "exports": {"g0.in1": "X"}}
        (tmp_path / "net.json").write_text(json.dumps(net | change))
        assert main(["build", str(tmp_path / "net.json"), "-o", str(tmp_path / "m.json")]) == 2
        assert f"error: netlist {field} must be " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


    @pytest.mark.parametrize("content, message", [
        ([1, 2], "must be a JSON object, got list"),
        ("x", "must be a JSON object, got str"),
        ({"foo": 1}, "missing visible, hidden_bias, weights"),
        ({"visible": [], "weights": []}, "missing hidden_bias"),
    ], ids=["list", "string", "unrelated_object", "partial_model"])
    def test_json_that_is_neither_model_nor_netlist(self, tmp_path, capsys, content,
                                                     message):
        (tmp_path / "x.json").write_text(json.dumps(content))
        assert main(["build", str(tmp_path / "x.json"), "-o", str(tmp_path / "m.json")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_netlist_is_not_a_model(self, tmp_path, capsys):
        (tmp_path / "net.json").write_text(json.dumps({"components": []}))
        assert main(["inspect", str(tmp_path / "net.json")]) == 2
        assert "is a netlist" in capsys.readouterr().err


class TestTrain:
    @pytest.mark.parametrize("config, field", [
        ({"k_initial": "2"}, "k_initial"),
        ({"epochs_per_stage": 2.5}, "epochs_per_stage"),
        ({"learning_rate": True}, "learning_rate"),
        ({"batch_size": False}, "batch_size"),
        ({"weight_decay": "0"}, "weight_decay"),
        ([1, 2], "train config"),
    ], ids=["k_str", "epochs_float", "rate_bool", "batch_bool", "decay_str", "not_object"])
    def test_config_fields_are_typed(self, tmp_path, capsys, config, field):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = main(["train", "adder1", "-o", str(tmp_path / "t.json"),
                     "--config", str(tmp_path / "cfg.json")])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        # It once reached numpy, whose "expected non-negative integer" names nothing.
        assert main(["train", "adder1", "-o", str(tmp_path / "t.json"), "--seed", "-1"]) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_writes_model_metrics_and_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = {"epochs_per_stage": 2, "k_max": 3, "patience": 2,
               "eval_instances": 8}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = main(["train", "adder1", "-o", "trained.json",
                     "--metrics", "metrics.csv", "--config", "cfg.json",
                     "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trained adder1: best accuracy" in out
        assert "wrote trained.json metrics.csv" in out
        assert (tmp_path / "trained.manifest.json").exists()
        model = load_model(tmp_path / "trained.json")
        assert model.n_visible == 5
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "stage,k,epoch,recon_error,accuracy"
        assert len(lines) > 2
        # stage evaluation rows fill the accuracy column
        assert any(row.rsplit(",", 1)[1] for row in lines[1:])

    def test_cap_samples_the_dataset(self, tmp_path, monkeypatch, capsys):
        caps = []

        def recording(task, cap=None, rng=None):
            caps.append(cap)
            return generate_dataset(task, cap, rng)

        monkeypatch.setattr(training, "generate_dataset", recording)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"epochs_per_stage": 1, "k_max": 2, "copies_per_epoch": 2, "eval_instances": 4}))
        code = main(["train", "mult2", "-o", str(tmp_path / "t.json"), "--cap", "8",
                     "--config", str(tmp_path / "cfg.json")])
        assert code == 0
        assert "trained mult2: best accuracy" in capsys.readouterr().out
        # every epoch draws cap * copies_per_epoch rows; none enumerates the table
        assert caps and set(caps) == {16}

    def test_unit_names_are_read_in_any_case(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"epochs_per_stage": 1, "k_max": 2, "eval_instances": 4}))
        for task in ("mult2", "Mult2"):
            assert main(["train", task, "-o", str(tmp_path / f"{task}.json"),
                         "--config", str(tmp_path / "cfg.json")]) == 0
        assert "trained Mult2: best accuracy" in capsys.readouterr().out
        assert (tmp_path / "Mult2.json").read_text() == (tmp_path / "mult2.json").read_text()

    def test_rejects_unknown_config_keys(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"nope": 1}))
        code = main(["train", "adder1", "-o", str(tmp_path / "t.json"),
                     "--config", str(tmp_path / "cfg.json")])
        assert code == 2
        assert "nope" in capsys.readouterr().err


class TestSolve:
    def test_addition_mode_and_verdict(self, model_dir, capsys):
        code = main(["solve", str(model_dir / "adder1.json"), "--op", "add",
                     "--clamp", "A=1", "--clamp", "B=1",
                     "--chains", "4", "--sweeps", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode: Cout=1, S=0" in out
        assert "verdict: consistent" in out

    def test_sat_on_a_gate_reports_each_terminal(self, model_dir, capsys):
        code = main(["solve", str(model_dir / "xor.json"), "--op", "sat",
                     "--clamp", "out=1", "--chains", "4", "--sweeps", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode: in1=0, in2=1 " in out or "mode: in1=1, in2=0 " in out
        assert "verdict: unchecked" in out

    def test_expected_sum_includes_carry(self, model_dir, capsys):
        argv = ["solve", str(model_dir / "adder1.json"), "--op", "add",
                "--clamp", "A=1", "--clamp", "B=1",
                "--chains", "4", "--sweeps", "400", "--expected"]
        assert main(argv + ["2"]) == 0
        assert "expected 2: match" in capsys.readouterr().out
        assert main(argv + ["3"]) == 0
        assert "expected 3: MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("model, op, clamps, answer", [
        ("adder1", "subtract", ["S=1", "B=0"], 1),
        ("mult2", "multiply", ["A=3", "B=2"], 6),
        ("mult2", "divide", ["P=6", "A=2"], 3),
    ])
    def test_expected_compares_the_answer_integer(self, model_dir, capsys, model, op,
                                                  clamps, answer):
        argv = ["solve", str(model_dir / f"{model}.json"), "--op", op, "--chains", "4",
                "--sweeps", "400", *(x for c in clamps for x in ("--clamp", c)), "--expected"]
        assert main(argv + [str(answer)]) == 0
        assert f"expected {answer}: match" in capsys.readouterr().out
        assert main(argv + [str(answer + 1)]) == 0
        assert f"expected {answer + 1}: MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("model, op, clamps", [
        ("adder1", "reverse_carry", ["S=0", "Cout=1"]),
        ("mult2", "factor", ["P=6"]),
        ("xor", "sat", ["out=1"]),
    ])
    def test_expected_needs_a_single_integer_answer(self, model_dir, capsys, model, op,
                                                    clamps):
        argv = ["solve", str(model_dir / f"{model}.json"), "--op", op, "--chains", "2",
                "--sweeps", "10", *(x for c in clamps for x in ("--clamp", c)),
                "--expected", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"operation {op!r} has no single-integer answer" in captured.err
        assert "mode:" not in captured.out

    def test_negative_expected_exits_2(self, model_dir, capsys):
        argv = ["solve", str(model_dir / "adder1.json"), "--op", "add", "--clamp", "A=1",
                "--clamp", "B=1", "--chains", "2", "--sweeps", "10", "--expected", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "expected must be an integer >= 0, got -1" in captured.err
        assert "mode:" not in captured.out

    def test_subtract_applies_a_cout_clamp(self, tmp_path, capsys):
        assert main(["build", "adder2", "-o", str(tmp_path / "adder2.json")]) == 0
        code = main(["solve", str(tmp_path / "adder2.json"), "--op", "subtract",
                     "--clamp", "S=0", "--clamp", "B=1", "--clamp", "Cout=1",
                     "--chains", "4", "--sweeps", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode: A=3 " in out  # 0 + 4 * 1 - 1
        assert "verdict: consistent" in out

    def test_cout_on_an_operation_other_than_subtract_exits_2(self, tmp_path, capsys):
        assert main(["build", "adder2", "-o", str(tmp_path / "adder2.json")]) == 0
        code = main(["solve", str(tmp_path / "adder2.json"), "--op", "add",
                     "--clamp", "A=1", "--clamp", "B=2", "--cout", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "cout applies to subtract only, not to 'add'" in captured.err
        assert "mode:" not in captured.out

    def test_clamp_the_operation_does_not_read_exits_2(self, tmp_path, capsys):
        assert main(["build", "adder2", "-o", str(tmp_path / "adder2.json")]) == 0
        code = main(["solve", str(tmp_path / "adder2.json"), "--op", "add",
                     "--clamp", "A=1", "--clamp", "B=2", "--clamp", "S=3"])
        assert code == 2
        captured = capsys.readouterr()
        assert "operation 'add' does not read clamps ['S']" in captured.err
        assert "mode:" not in captured.out

    def test_histogram_outputs_and_manifest(self, tmp_path, monkeypatch, model_dir):
        monkeypatch.chdir(tmp_path)
        argv = ["solve", str(model_dir / "adder1.json"), "--op", "add",
                "--clamp", "A=1", "--clamp", "B=1",
                "--chains", "4", "--sweeps", "400", "--hist", "ans.csv"]
        assert main(argv) == 0
        assert (tmp_path / "ans.csv").read_text() == "operand,value\nCout,1\nS,0\n"
        top = (tmp_path / "ans.top.csv").read_text().splitlines()
        assert top[0] == "assignment,count"
        assert '""Cout"": 1' in top[1] and '""S"": 0' in top[1]
        manifest = json.loads((tmp_path / "ans.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["argv"] == argv

    def test_prime_product_is_inconsistent(self, model_dir, capsys):
        code = main(["solve", str(model_dir / "mult2.json"), "--op", "factor",
                     "--clamp", "P=3", "--chains", "4", "--sweeps", "300"])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: INCONSISTENT" in out
        assert "nontrivial factor pairs:" in out

    def test_semiprime_factors(self, model_dir, capsys):
        code = main(["solve", str(model_dir / "mult2.json"), "--op", "factor",
                     "--clamp", "P=9", "--chains", "4", "--sweeps", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode: A=3, B=3" in out
        assert "verdict: consistent" in out

    def test_bad_clamp_is_usage_error(self, model_dir, capsys):
        code = main(["solve", str(model_dir / "adder1.json"), "--op", "add",
                     "--clamp", "A"])
        assert code == 2
        assert "bad clamp 'A'; expected NAME=INTEGER" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar, message", [
        ({"terminal_map": {"A": 99}}, "terminal_map['A'] = 99 is not a visible index in [0, 5)"),
        ({"terminal_map": {"A": -1}}, "terminal_map['A'] = -1 is not a visible index in [0, 5)"),
        ({"terminal_map": ["A", 0]}, "terminal_map must be an object"),
        ({"constants": {}}, "terminal_map must be an object"),
    ], ids=["index_99", "index_minus_1", "not_an_object", "missing"])
    def test_bad_sidecar_terminal_map_is_an_input_error(self, tmp_path, model_dir, capsys,
                                                         sidecar, message):
        (tmp_path / "m.json").write_bytes((model_dir / "adder1.json").read_bytes())
        (tmp_path / "m.terminals.json").write_text(json.dumps(sidecar))
        code = main(["solve", str(tmp_path / "m.json"), "--op", "add",
                     "--clamp", "A=1", "--clamp", "B=1", "--chains", "2", "--sweeps", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'm.terminals.json'}: {message}" in err

    def test_sidecar_terminals_may_share_a_unit(self, tmp_path, model_dir):
        (tmp_path / "m.json").write_bytes((model_dir / "adder1.json").read_bytes())
        (tmp_path / "m.terminals.json").write_text(json.dumps(
            {"terminal_map": {"A": 0, "fa0.A": 0, "B": 1}}))
        assert load_model(tmp_path / "m.json").terminal_map == {"A": 0, "fa0.A": 0, "B": 1}

    def test_missing_model_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json"), "--op", "add",
                     "--clamp", "A=1", "--clamp", "B=1"])
        assert code == 2
        assert "No such file" in capsys.readouterr().err


class TestBench:
    def test_curve_tasks_and_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = {"model": "mult2", "operation": "factor", "count": 3,
               "checkpoints": [200, 1000], "chains": 4, "seed": 0}
        (tmp_path / "bench.json").write_text(json.dumps(cfg))
        assert main(["bench", "bench.json", "-o", "out"]) == 0
        out = capsys.readouterr().out
        assert "200 samples: 1.00 solved" in out
        assert "1000 samples: 1.00 solved" in out
        curve = (tmp_path / "out" / "success_curve.csv").read_text()
        assert curve == "pooled_samples,success_fraction\n200,1.0\n1000,1.0\n"
        tasks = json.loads((tmp_path / "out" / "tasks.json").read_text())
        assert len(tasks) == 3
        assert all(t["operation"] == "factor" for t in tasks)
        assert (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("cfg, field", [
        ({"model": 5, "operation": "add"}, "model"),
        ({"model": "adder2", "operation": "modexp"}, "operation"),
        ({"model": "adder2", "operation": "add", "chains": 0}, "chains"),
        ({"model": "adder2", "operation": "add", "count": 0}, "count"),
        ({"model": "adder2", "operation": "add", "count": 2.5}, "count"),
        ({"model": "adder2", "operation": "add", "chains": True}, "chains"),
        ({"model": "adder2", "operation": "add", "checkpoints": []}, "checkpoints"),
        ({"model": "adder2", "operation": "add", "checkpoints": 100}, "checkpoints"),
        ({"model": "adder2", "operation": "add", "checkpoints": [100, 0]}, "checkpoints entry"),
        ({"model": "adder2", "operation": "add", "seed": -1}, "seed"),
        ({"model": "adder2", "operation": "add", "burn_in": "10"}, "burn_in"),
        ([1, 2], "a bench config"),
        ({"model": "adder2", "operation": "add", "sharpness": "abc"}, "sharpness"),
        ({"model": "adder2", "operation": "add", "sharpness": True}, "sharpness"),
        ({"model": "adder2", "operation": "add", "sharpness": 1e308}, "sharpness"),
    ])
    def test_bad_config_exits_2_naming_the_field(self, tmp_path, capsys, cfg, field):
        (tmp_path / "bench.json").write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = main(["bench", str(tmp_path / "bench.json"), "-o", str(tmp_path / "out")])
        assert code == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not seen
        assert not (tmp_path / "out").exists()

    def test_config_without_model_fails(self, tmp_path, capsys):
        (tmp_path / "bench.json").write_text(json.dumps({"operation": "factor"}))
        code = main(["bench", str(tmp_path / "bench.json"),
                     "-o", str(tmp_path / "out")])
        assert code == 2
        assert "model" in capsys.readouterr().err


class TestDiagnose:
    def test_small_model_gets_exact_curves(self, tmp_path, monkeypatch, model_dir, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["diagnose", str(model_dir / "adder1.json"), "-o", "diag",
                     "--steps", "10", "--sample-sweeps", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_exact: 204.0" in out
        assert "delta_bound: 684.0" in out
        diag = tmp_path / "diag"
        report = json.loads((diag / "diagnose.json").read_text())
        assert report["delta_exact"] == 204.0
        assert report["delta_bound"] == 684.0
        assert report["n_visible"] == 5 and report["n_hidden"] == 8
        assert 0.0 < report["tv_after_steps"] < 1.0
        assert report["free_energy_iact"] >= 1.0
        bound = (diag / "bound.csv").read_text().splitlines()
        assert bound[0] == "sweep,tv_observed,tv_bound"
        assert len(bound) == 12
        first = bound[1].split(",")
        # before any sweep the observed gap equals its own bound
        assert first[1] == first[2]
        dist = (diag / "distribution.csv").read_text().splitlines()
        assert dist[0] == "index,A,B,Cin,S,Cout,probability"
        assert len(dist) == 1 + 2**5
        fe = (diag / "free_energy.csv").read_text().splitlines()
        assert fe[0] == "sweep,free_energy"
        assert len(fe) == 1 + 300
        assert (diag / "manifest.json").exists()

    @pytest.mark.parametrize("gate", ["xor", "and", "or", "nand"])
    def test_sharp_gates_get_exact_curves(self, tmp_path, gate):
        # pi of the all-zero start state is near e^-50, and rounding in pi's
        # sum puts the start's L1 distance a few ulps above its maximum, 2.
        assert main(["build", gate, "--sharpness", "100", "-o", str(tmp_path / "g.json")]) == 0
        assert main(["diagnose", str(tmp_path / "g.json"), "-o", str(tmp_path / "d"),
                     "--steps", "3", "--sample-sweeps", "50"]) == 0
        bound = (tmp_path / "d" / "bound.csv").read_text().splitlines()
        assert len(bound) == 5 and bound[1].endswith(",1.0")
        # pi is normalised by its sum, so no observed TV exceeds its bound.
        rows = [[float(x) for x in row.split(",")] for row in bound[1:]]
        assert all(tv_observed <= tv_bound for _, tv_observed, tv_bound in rows)

    @pytest.mark.parametrize("sharpness", ["1e8", "1e12"])
    def test_very_sharp_gate_gets_exact_curves(self, tmp_path, sharpness):
        # -F is about c/2, so the sum of exact probabilities rounds far past 1e-9.
        assert main(["build", "xor", "--sharpness", sharpness,
                     "-o", str(tmp_path / "g.json")]) == 0
        assert main(["diagnose", str(tmp_path / "g.json"), "-o", str(tmp_path / "d"),
                     "--steps", "3", "--sample-sweeps", "50"]) == 0
        bound = (tmp_path / "d" / "bound.csv").read_text().splitlines()
        rows = [[float(x) for x in row.split(",")] for row in bound[1:]]
        assert len(rows) == 4 and all(observed <= limit for _, observed, limit in rows)

    def test_large_model_skips_exact_curves(self, tmp_path, monkeypatch, model_dir):
        monkeypatch.chdir(tmp_path)
        code = main(["diagnose", str(model_dir / "mult2.json"), "-o", "diag",
                     "--max-joint", "10", "--sample-sweeps", "300"])
        assert code == 0
        diag = tmp_path / "diag"
        report = json.loads((diag / "diagnose.json").read_text())
        assert report["note"] == ("8 free + 16 hidden units exceed "
                                  "--max-joint 10; exact curves skipped")
        assert "delta_exact" not in report
        assert not (diag / "bound.csv").exists()
        assert not (diag / "distribution.csv").exists()
        assert (diag / "free_energy.csv").exists()

    @pytest.mark.parametrize("max_joint", ["300", "-1", "21"])
    def test_max_joint_outside_its_range_exits_2(self, tmp_path, capsys, max_joint):
        # 300 would admit mult4's 16 free + 256 hidden units to a joint grid.
        assert main(["build", "mult4", "-o", str(tmp_path / "mult4.json")]) == 0
        code = main(["diagnose", str(tmp_path / "mult4.json"), "-o", str(tmp_path / "diag"),
                     "--max-joint", max_joint])
        assert code == 2
        assert f"--max-joint must be in [0, 20], got {max_joint}" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

    def test_fully_clamped_model_reports_no_iact(self, tmp_path, monkeypatch, model_dir,
                                                 capsys):
        """A constant free-energy series has no autocorrelation time; the run still reports."""
        monkeypatch.chdir(tmp_path)
        code = main(["diagnose", str(model_dir / "xor.json"), "-o", "diag", "--clamp", "in1=1",
                     "--clamp", "in2=1", "--clamp", "out=0", "--steps", "0",
                     "--sample-sweeps", "2"])
        assert code == 0
        assert "free_energy_iact: None" in capsys.readouterr().out
        diag = tmp_path / "diag"
        report = json.loads((diag / "diagnose.json").read_text())
        assert report["free_energy_iact"] is None
        assert report["free_energy_note"] == ("free energy constant over 2 sweeps; "
                                              "autocorrelation undefined")
        assert sorted(p.name for p in diag.iterdir()) == [
            "bound.csv", "diagnose.json", "distribution.csv", "free_energy.csv",
            "manifest.json"]
        assert len((diag / "bound.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("flag, value", [("--steps", "-1"), ("--sample-sweeps", "1")],
                             ids=["negative_steps", "one_sample_sweep"])
    def test_bad_counts_fail_before_any_file(self, tmp_path, model_dir, capsys, flag, value):
        code = main(["diagnose", str(model_dir / "xor.json"), "-o", str(tmp_path / "out"),
                     flag, value])
        assert code == 2
        low = 0 if flag == "--steps" else 2
        assert f"{flag} must be >= {low}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_sidecar_constant_is_an_input_error(self, tmp_path, capsys):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("x", "y"))
        save_model(rbm, tmp_path / "m.json")
        (tmp_path / "m.terminals.json").write_text(json.dumps(
            {"terminal_map": {"x": 0, "y": 1}, "constants": {"x": 2}}))
        code = main(["diagnose", str(tmp_path / "m.json"), "-o", str(tmp_path / "out")])
        assert code == 2
        assert "must be 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("constants, message", [
        ({"x": 0.5}, "constants['x'] = 0.5 must be 0 or 1"),
        ({"x": "1"}, "constants['x'] = '1' must be 0 or 1"),
        (["x", 0], "constants must be an object"),
        ({"zz": 0}, "constants['zz'] is not a terminal of the model"),
    ], ids=["half", "string", "list", "unknown_terminal"])
    def test_sidecar_constants_are_validated_on_load(self, tmp_path, capsys, constants,
                                                     message):
        rbm = Rbm(np.zeros((2, 1)), np.zeros(2), np.zeros(1), ("x", "y"))
        save_model(rbm, tmp_path / "m.json")
        (tmp_path / "m.terminals.json").write_text(json.dumps(
            {"terminal_map": {"x": 0, "y": 1}, "constants": constants}))
        code = main(["diagnose", str(tmp_path / "m.json"), "-o", str(tmp_path / "out")])
        assert code == 2
        assert f"{tmp_path / 'm.terminals.json'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInspect:
    def test_weight_dump(self, tmp_path, monkeypatch, model_dir, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["inspect", str(model_dir / "adder4.json"),
                     "--weights-csv", "w.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exported terminals (14):" in out
        lines = (tmp_path / "w.csv").read_text().splitlines()
        assert lines[0] == "visible,hidden,weight"
        assert len(lines) == 1 + 17 * 32

    @pytest.mark.parametrize("weights", [[], [[]]], ids=["no_rows", "empty_row"])
    def test_model_without_hidden_units(self, tmp_path, capsys, weights):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"visible": [{"name": "a", "bias": 1}],
                                    "hidden_bias": [], "weights": weights}))
        assert main(["inspect", str(path)]) == 0
        captured = capsys.readouterr()
        assert "visible: 1  hidden: 0  parameters: 1" in captured.out
        assert "weights: none\nhidden bias: none\nvisible bias: min 1.0000" in captured.out
        assert captured.err == ""


GOOD_MODEL = {"visible": [{"name": "a", "bias": 0.5}, {"name": "b", "bias": -1}],
              "hidden_bias": [0.25], "weights": [[1.0], [-2]]}
_SECOND_UNIT = {"name": "b", "bias": -1}
_NUMBER = st.integers() | st.floats() | st.booleans()
_JSON = st.recursive(
    st.none() | _NUMBER | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "bias", "x"]), kids, max_size=3),
    max_leaves=6)


class TestModelEntries:
    def test_integers_and_floats_are_numbers(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text(json.dumps(GOOD_MODEL))
        assert main(["inspect", str(tmp_path / "m.json")]) == 0
        assert "visible: 2  hidden: 1  parameters: 5" in capsys.readouterr().out

    @pytest.mark.parametrize("change, field", [
        ({"visible": 1}, "visible"),
        ({"visible": ["a", "b"]}, "visible"),
        ({"visible": [{"bias": 0.5}, _SECOND_UNIT]}, "visible"),
        ({"visible": [{"name": 3, "bias": 0.5}, _SECOND_UNIT]}, "visible"),
        ({"visible": [{"name": "a"}, _SECOND_UNIT]}, "visible"),
        ({"visible": [{"name": "a", "bias": True}, _SECOND_UNIT]}, "visible"),
        ({"visible": [{"name": "a", "bias": "0.5"}, _SECOND_UNIT]}, "visible"),
        ({"hidden_bias": 0.25}, "hidden_bias"),
        ({"hidden_bias": [None]}, "hidden_bias"),
        ({"hidden_bias": [False]}, "hidden_bias"),
        ({"weights": {"a": [1.0]}}, "weights"),
        ({"weights": [1.0, -2]}, "weights"),
        ({"weights": [[1.0], ["-2"]]}, "weights"),
        ({"weights": [[1.0], [-2, 3]]}, "weights"),
        ({"weights": [[1.0], [10**400]]}, "weights"),
    ], ids=["visible_int", "visible_strings", "nameless", "name_int", "biasless",
            "bias_bool", "bias_str", "hidden_number", "hidden_null", "hidden_bool",
            "weights_object", "weights_flat", "weight_str", "weights_ragged",
            "weight_past_float_range"])
    def test_bad_entries_name_file_and_field(self, tmp_path, capsys, change, field):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(GOOD_MODEL | change))
        assert main(["inspect", str(path)]) == 2
        assert f"error: {path}: model {field} must be " in capsys.readouterr().err

    @settings(max_examples=50, deadline=None)
    @given(visible=_JSON | st.lists(st.fixed_dictionaries(
               {"name": st.text(max_size=2) | _JSON, "bias": _NUMBER | _JSON}), max_size=3),
           hidden_bias=_JSON | st.lists(_NUMBER, max_size=3),
           weights=_JSON | st.lists(st.lists(_NUMBER, max_size=3), max_size=3))
    def test_random_entries_exit_0_or_2(self, tmp_path_factory, visible, hidden_bias,
                                        weights):
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        path.write_text(json.dumps(
            {"visible": visible, "hidden_bias": hidden_bias, "weights": weights}))
        assert main(["inspect", str(path)]) in (0, 2)

    def test_json_strategy_recurses(self):
        # hypothesis reads the extend lambda's source to check that it
        # recurses, and warns when it cannot; nested values must be drawn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _JSON.validate()

        def nested(x):  # a list holding a non-empty list or object
            return isinstance(x, list) and any(isinstance(kid, (list, dict)) and kid
                                               for kid in x)

        # find raises NoSuchExample when no draw is nested
        assert nested(find(_JSON, nested, settings=settings(database=None),
                           random=random.Random(0)))


_ENDPOINT = st.sampled_from(["g0.out", "g0.in1", "g1.in1", "g1.in2", "g2.A", "g0.x", "g1"])
_TERMINAL = st.sampled_from(["A", "B", "S", "Cin", "Cout", "g0.A", "A0", ""])


def _spoiled(data, obj):
    """``obj`` as drawn, or with one value at a drawn depth replaced by random JSON."""
    holder = obj
    while data.draw(st.booleans()):
        keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
        if not keys:
            break
        key = data.draw(st.sampled_from(keys))
        if isinstance(holder[key], (dict, list)) and data.draw(st.booleans()):
            holder = holder[key]
        else:
            holder[key] = data.draw(_JSON)
            break
    return obj


class TestFuzzedInputFiles:
    """Random netlists, sidecars and train configs: exit 0 or 2, never a traceback.

    Each file is drawn valid in shape, then one value at a random depth
    may be replaced by random JSON.  A solve may also exit 1, its verdict
    on the mode it found.
    """

    @settings(max_examples=50, deadline=None)
    @given(net=st.fixed_dictionaries({
               "components": st.lists(st.fixed_dictionaries({
                   "id": st.sampled_from(["g0", "g1", "g2"]),
                   "model": st.sampled_from(["xor", "and", "adder1", "x.json", "nope"])}),
                   max_size=3, unique_by=lambda c: c["id"]),
               "connections": st.lists(st.lists(_ENDPOINT, min_size=2, max_size=2),
                                       max_size=3),
               "exports": st.dictionaries(_ENDPOINT, _TERMINAL, max_size=3)}),
           data=st.data())
    def test_random_netlists_exit_0_or_2(self, tmp_path_factory, net, data):
        path = tmp_path_factory.mktemp("fuzz") / "net.json"
        path.write_text(json.dumps(_spoiled(data, net)))
        assert main(["build", str(path), "-o", str(path.with_name("m.json"))]) in (0, 2)

    @settings(max_examples=50, deadline=None)
    @given(sidecar=st.fixed_dictionaries(
               {"terminal_map": st.fixed_dictionaries(
                   dict.fromkeys(["A", "B", "S"], st.integers(0, 4)),
                   optional=dict.fromkeys(["Cin", "Cout", "g0.A", "A0", ""], st.integers(0, 4)))},
               optional={"constants": st.dictionaries(_TERMINAL, st.integers(0, 1),
                                                      max_size=2),
                         "exports": st.lists(_TERMINAL, max_size=3)}),
           command=st.sampled_from([["inspect"], ["solve", "--op", "add", "--clamp", "A=1",
                                                  "--clamp", "B=0", "--sweeps", "2"]]),
           data=st.data())
    def test_random_sidecars_exit_0_or_2(self, tmp_path_factory, sidecar, command, data):
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        save_model(Rbm(np.ones((5, 2)), np.zeros(5), np.zeros(2),
                       ("A", "B", "Cin", "S", "Cout")), path)
        path.with_name("m.terminals.json").write_text(json.dumps(_spoiled(data, sidecar)))
        codes = (0, 2) if command[0] == "inspect" else (0, 1, 2)
        assert main([command[0], str(path), *command[1:]]) in codes

    @settings(max_examples=50, deadline=None)
    @given(config=st.dictionaries(
        st.sampled_from(["k_initial", "k_max", "learning_rate", "epochs_per_stage",
                         "batch_size", "weight_decay", "dataset_cap", "init_scale", "seed",
                         "eval_sweeps", "x"]),
        st.integers(-1, 3), max_size=4), data=st.data())
    def test_random_train_configs_exit_0_or_2(self, tmp_path_factory, config, data):
        path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        small = {"epochs_per_stage": 1, "k_max": 2, "eval_instances": 4, "eval_sweeps": 5}
        path.write_text(json.dumps(_spoiled(data, small | config)))
        assert main(["train", "adder1", "-o", str(path.with_name("t.json")),
                     "--config", str(path)]) in (0, 2)


class TestReplay:
    def test_reproduces_solve_outputs_byte_for_byte(self, tmp_path, monkeypatch, model_dir):
        monkeypatch.chdir(tmp_path)
        argv = ["solve", str(model_dir / "adder1.json"), "--op", "add",
                "--clamp", "A=1", "--clamp", "B=1",
                "--chains", "4", "--sweeps", "400", "--hist", "ans.csv"]
        assert main(argv) == 0
        originals = {name: (tmp_path / name).read_bytes()
                     for name in ["ans.csv", "ans.top.csv"]}
        for name in originals:
            os.remove(tmp_path / name)
        assert main(["replay", "ans.manifest.json"]) == 0
        for name, payload in originals.items():
            assert (tmp_path / name).read_bytes() == payload

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        """Versions, BLAS and thread settings are recorded; replay reads only argv."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("RBMLOGIC_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["build", "xor", "-o", "xor.json"]) == 0
        env = json.loads(Path("xor.manifest.json").read_text())["environment"]
        assert sorted(env) == ["blas", "numpy", "python", "scipy", "threads"]
        assert env["numpy"] == np.__version__
        assert sorted(env["blas"]) == ["name", "version"]
        assert env["threads"] == {"RBMLOGIC_THREADS": "1", "MKL_NUM_THREADS": "3",
                                  "OMP_NUM_THREADS": None,
                                  "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
        model = Path("xor.json").read_bytes()
        assert main(["replay", "xor.manifest.json"]) == 0
        assert Path("xor.json").read_bytes() == model

    @pytest.mark.parametrize("manifest, message", [
        ({"argv": ["replay", "m.json"]}, "argv must be a list of strings"),
        ({"command": "inspect"}, "argv must be a list of strings"),
        (["inspect", "x.json"], "a manifest must be a JSON object, got list"),
        ({"argv": "inspect"}, "argv must be a list of strings"),
        ({"argv": ["inspect", 3]}, "argv must be a list of strings"),
        ({"argv": []}, "argv must be a list of strings"),
        ({"argv": ["nope"]}, "argv ['nope'] does not parse: argument command: invalid choice"),
        ({"argv": ["inspect", "--bogus"]}, "argv ['inspect', '--bogus'] does not parse"),
    ], ids=["replays_itself", "no_argv", "list", "string_argv", "number_in_argv", "empty_argv",
            "unknown_command", "unknown_option"])
    def test_bad_manifest_is_an_input_error(self, tmp_path, monkeypatch, capsys, manifest,
                                            message):
        monkeypatch.chdir(tmp_path)
        Path("m.json").write_text(json.dumps(manifest))
        assert main(["replay", "m.json"]) == 2
        assert f"m.json: {message}" in capsys.readouterr().err


class TestEnvironment:
    def test_outdir_prefixes_relative_paths(self, tmp_path, monkeypatch, capsys):
        outdir = tmp_path / "collected"
        monkeypatch.setenv("RBMLOGIC_OUTDIR", str(outdir))
        monkeypatch.chdir(tmp_path)
        assert main(["build", "xor", "-o", "sub/x.json"]) == 0
        assert (outdir / "sub" / "x.json").exists()
        assert (outdir / "sub" / "x.manifest.json").exists()
        # absolute outputs are left alone
        absolute = tmp_path / "abs.json"
        assert main(["build", "xor", "-o", str(absolute)]) == 0
        assert absolute.exists()
        capsys.readouterr()

    def test_threads_setting_is_exported_before_numpy_loads(self):
        # In a fresh interpreter a meta-path probe records
        # OPENBLAS_NUM_THREADS at the moment importing the CLI module
        # first imports numpy.
        script = textwrap.dedent("""
            import os, sys
            seen = []

            class Probe:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
                    return None

            assert "numpy" not in sys.modules
            sys.meta_path.insert(0, Probe())
            import rbmlogic.cli
            print(seen)
        """)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["RBMLOGIC_THREADS"] = "1"
        env["PYTHONPATH"] = str(Path(rbmlogic.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "['1']"

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    def test_threads_setting_must_be_a_positive_integer(self, tmp_path, value):
        # The bad value reaches no BLAS variable, and every command exits 2
        # naming it.
        save_model(Rbm(np.zeros((1, 1)), np.zeros(1), np.zeros(1), ("a",)), tmp_path / "m.json")
        script = textwrap.dedent("""
            import os, sys
            from rbmlogic.cli import main
            print(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.exit(main(["inspect", sys.argv[1]]))
        """)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["RBMLOGIC_THREADS"] = value
        env["PYTHONPATH"] = str(Path(rbmlogic.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "m.json")], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 2
        assert out.stdout.strip() == "None"
        assert "RBMLOGIC_THREADS must be a positive integer" in out.stderr

    def test_help_and_missing_command_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        capsys.readouterr()

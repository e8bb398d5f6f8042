"""Task encodings, clamp patterns, answer extraction, and end-to-end solve."""

import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from rbmlogic.merge import MergedModel
from rbmlogic import tasks
from rbmlogic.model import Rbm
from rbmlogic.sampler import Histogram
from rbmlogic.synthesis import bit_names, builtin_model
from rbmlogic.tasks import (
    Posed,
    SolveSettings,
    TaskSpec,
    decode_int,
    encode_int,
    model_interface,
    pose,
    public_terminals,
    random_task,
    solve,
    success_curve,
)


class TestEncoding:
    def test_examples(self):
        assert encode_int(5, 4) == [1, 0, 1, 0]
        assert encode_int(0, 1) == [0]
        assert decode_int([1, 0, 1, 0]) == 5
        assert decode_int([]) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="does not fit"):
            encode_int(4, 2)
        with pytest.raises(ValueError, match="does not fit"):
            encode_int(-1, 4)
        with pytest.raises(ValueError, match="width"):
            encode_int(0, 0)
        with pytest.raises(ValueError, match="bad bit"):
            decode_int([0, 2])

    @pytest.mark.parametrize("value, width, message", [
        (2.7, 2, "2.7 does not fit in 2 bits"), (True, 1, "True does not fit in 1 bits"),
        (1, True, "width must be an integer >= 1, got True"),
        (1, 2.0, "width must be an integer >= 1, got 2.0"),
    ])
    def test_refuses_values_and_widths_that_are_not_integers(self, value, width, message):
        # They were once truncated: encode_int(2.7, 2) gave [0, 1].
        with pytest.raises(ValueError, match=re.escape(message)):
            encode_int(value, width)
        assert encode_int(np.int64(2), np.int64(2)) == [0, 1]

    @given(width=st.integers(1, 16), data=st.data())
    def test_round_trip(self, width, data):
        value = data.draw(st.integers(0, 2**width - 1))
        assert decode_int(encode_int(value, width)) == value


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown operation"):
            TaskSpec("modexp", 2, {})
        with pytest.raises(ValueError, match="cout"):
            TaskSpec("subtract", 2, {"S": 1, "B": 1}, cout="maybe")
        with pytest.raises(ValueError, match="negative"):
            TaskSpec("add", 2, {"A": -1, "B": 0})
        spec = TaskSpec("add", 2, {"A": 1, "B": 2})
        assert spec.cout is None and spec.expected is None

    @pytest.mark.parametrize("operation, clamps", [
        ("multiply", {"A": 1.9, "B": 3}), ("multiply", {"A": "2", "B": 3}),
        ("multiply", {"A": True, "B": 3}), ("sat", {"A0": 1.0}),
    ], ids=["float", "string", "bool", "sat_float"])
    def test_clamps_must_be_integers(self, operation, clamps):
        name = next(iter(clamps))
        with pytest.raises(ValueError, match=f"clamp {name} must be an integer"):
            TaskSpec(operation, 2, clamps)
        assert TaskSpec(operation, 2, clamps | {name: np.int64(1)}).clamps[name] == 1

    @pytest.mark.parametrize("field, value", [
        ("cout", True), ("cout", 1.0), ("expected", 2.5), ("expected", True),
        ("expected", "3"), ("expected", -1), ("bit_width", 2.0), ("bit_width", True),
        ("bit_width", 0),
    ], ids=["cout_bool", "cout_float", "expected_float", "expected_bool", "expected_string",
            "expected_negative", "bit_width_float", "bit_width_bool", "bit_width_zero"])
    def test_fields_must_be_integers(self, field, value):
        fields = {"bit_width": 2, "expected": None, "cout": None}
        with pytest.raises(ValueError, match=f"{field} must be "):
            TaskSpec("subtract", **(fields | {field: value}), clamps={"S": 3, "B": 1})
        accepted = TaskSpec("subtract", **(fields | {field: np.int64(1)}), clamps={"S": 3, "B": 1})
        assert getattr(accepted, field) == 1

    @pytest.mark.parametrize("operation", ["add", "reverse_carry", "multiply", "factor", "sat"])
    def test_cout_is_for_subtract_only(self, operation):
        for cout in (0, 1, "free"):
            with pytest.raises(ValueError, match="cout applies to subtract only"):
                TaskSpec(operation, 2, {}, cout=cout)
        assert TaskSpec("subtract", 2, {"S": 1, "B": 1}, cout=1).cout == 1


class TestModelInterface:
    def test_classification(self):
        adder = model_interface(builtin_model("adder2"))
        assert (adder.kind, adder.width) == ("adder", 2)
        assert adder.bits("S") == ["S0", "S1"]
        assert adder.bits("Cout") == ["Cout"]
        one = model_interface(builtin_model("adder1"))
        assert (one.kind, one.width) == ("adder", 1)
        assert one.bits("A") == ["A"]
        mult = model_interface(builtin_model("mult2"))
        assert (mult.kind, mult.width) == ("multiplier", 2)
        assert mult.bits("P") == ["P0", "P1", "P2", "P3"]

    def test_width_mismatches_rejected(self):
        bad = Rbm(np.zeros((3, 1)), np.zeros(3), np.zeros(1), ("A0", "A1", "B0"))
        with pytest.raises(ValueError, match="different widths"):
            model_interface(bad)
        short = Rbm(np.zeros((3, 1)), np.zeros(3), np.zeros(1), ("A", "B", "P0"))
        with pytest.raises(ValueError, match="twice the input width"):
            model_interface(short)

    def test_public_terminals_skip_internal_and_constant_units(self):
        r = Rbm(np.zeros((3, 1)), np.zeros(3), np.zeros(1), ("A", "g0.t", "pad"))
        mm = MergedModel(r, {n: i for i, n in enumerate(r.visible_names)},
                         constants={"pad": 0})
        assert public_terminals(mm) == ["A"]
        assert public_terminals(r) == ["A", "pad"]


class TestClampAssignments:
    """The clamp bits ``pose`` gives each operation."""

    def test_add(self):
        adder = builtin_model("adder2")
        got = pose(adder, TaskSpec("add", 2, {"A": 2, "B": 1})).clamp
        assert got == {"A0": 0, "A1": 1, "B0": 1, "B1": 0, "Cin": 0}
        with_cin = pose(adder, TaskSpec("add", 2, {"A": 0, "B": 0, "Cin": 1})).clamp
        assert with_cin["Cin"] == 1

    def test_subtract_carry_out_modes(self):
        adder = builtin_model("adder2")
        default = pose(adder, TaskSpec("subtract", 2, {"S": 3, "B": 1})).clamp
        assert default["Cout"] == 0
        assert default["S0"] == 1 and default["S1"] == 1 and default["B0"] == 1
        free = pose(adder, TaskSpec("subtract", 2, {"S": 3, "B": 1}, cout="free")).clamp
        assert "Cout" not in free
        pinned = pose(adder, TaskSpec("subtract", 2, {"S": 3, "B": 1}, cout=1)).clamp
        assert pinned["Cout"] == 1
        for cout in (None, 1):
            clamped = pose(
                adder, TaskSpec("subtract", 2, {"S": 0, "B": 1, "Cout": 1}, cout=cout)).clamp
            assert clamped["Cout"] == 1
        for cout in (0, "free"):
            with pytest.raises(ValueError, match="contradicts clamp Cout=1"):
                pose(adder, TaskSpec("subtract", 2, {"S": 0, "B": 1, "Cout": 1}, cout=cout))

    @pytest.mark.parametrize("model, task, unread", [
        ("adder2", TaskSpec("add", 2, {"A": 1, "B": 2, "S": 3}), ["S"]),
        ("adder2", TaskSpec("reverse_carry", 2, {"S": 1, "Cout": 1, "A": 0}), ["A"]),
        ("mult2", TaskSpec("multiply", 2, {"A": 1, "B": 2, "Cin": 0}), ["Cin"]),
        ("mult2", TaskSpec("factor", 2, {"P": 6, "Q": 1}), ["Q"]),
    ])
    def test_clamps_the_operation_does_not_read_are_rejected(self, model, task, unread):
        with pytest.raises(ValueError, match=re.escape(f"does not read clamps {unread}")):
            pose(builtin_model(model), task)

    def test_reverse_carry(self):
        adder = builtin_model("adder2")
        got = pose(adder, TaskSpec("reverse_carry", 2, {"S": 1, "Cout": 1})).clamp
        assert got == {"S0": 1, "S1": 0, "Cin": 0, "Cout": 1}

    def test_multiplier_operations(self):
        mult = builtin_model("mult2")
        mul = pose(mult, TaskSpec("multiply", 2, {"A": 3, "B": 2})).clamp
        assert mul == {"A0": 1, "A1": 1, "B0": 0, "B1": 1}
        div = pose(mult, TaskSpec("divide", 2, {"P": 6, "A": 2})).clamp
        assert div == {"P0": 0, "P1": 1, "P2": 1, "P3": 0, "A0": 0, "A1": 1}
        fac = pose(mult, TaskSpec("factor", 2, {"P": 9})).clamp
        assert fac == {"P0": 1, "P1": 0, "P2": 0, "P3": 1}

    def test_sat_clamps_raw_terminals(self):
        g = builtin_model("xor")
        got = pose(g, TaskSpec("sat", clamps={"in1": 1, "out": 0})).clamp
        assert got == {"in1": 1, "out": 0}
        with pytest.raises(KeyError, match="unknown terminal"):
            pose(g, TaskSpec("sat", clamps={"zap": 1}))
        with pytest.raises(ValueError, match="bits"):
            pose(g, TaskSpec("sat", clamps={"in1": 2}))

    def test_missing_operand(self):
        with pytest.raises(ValueError, match=r"needs clamps for \['B'\]"):
            pose(builtin_model("adder2"), TaskSpec("add", 2, {"A": 1}))

    def test_task_and_model_must_agree(self):
        with pytest.raises(ValueError, match="4-bit"):
            pose(builtin_model("adder2"), TaskSpec("add", 4, {"A": 1, "B": 1}))
        with pytest.raises(ValueError, match="needs an adder"):
            pose(builtin_model("mult2"), TaskSpec("add", 2, {"A": 1, "B": 1}))
        with pytest.raises(ValueError, match="needs a multiplier"):
            pose(builtin_model("adder2"), TaskSpec("factor", 2, {"P": 9}))

    def test_operand_overflow_is_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pose(builtin_model("adder2"), TaskSpec("add", 2, {"A": 4, "B": 0}))


class TestAnswerTerminals:
    """The answer terminals ``pose`` records, LSB first per operand."""

    def test_per_operation(self):
        adder = builtin_model("adder2")
        mult = builtin_model("mult2")
        assert pose(adder, TaskSpec("add", 2, {"A": 0, "B": 0})).record == (
            "S0", "S1", "Cout")
        assert pose(adder, TaskSpec("subtract", 2, {"S": 0, "B": 0})).record == (
            "A0", "A1")
        assert pose(
            adder, TaskSpec("reverse_carry", 2, {"S": 0, "Cout": 0})
        ).record == ("A0", "A1", "B0", "B1")
        assert pose(mult, TaskSpec("multiply", 2, {"A": 0, "B": 0})).record == (
            "P0", "P1", "P2", "P3")
        assert pose(mult, TaskSpec("divide", 2, {"P": 0, "A": 1})).record == (
            "B0", "B1")
        assert pose(mult, TaskSpec("factor", 2, {"P": 4})).record == (
            "A0", "A1", "B0", "B1")

    def test_sat_answers_are_the_unclamped_publics(self):
        g = builtin_model("xor")
        got = pose(g, TaskSpec("sat", clamps={"in1": 1})).record
        assert got == ("in2", "out")


class TestGroupOperands:
    """``Posed.decode`` groups answer bits, in record order, into operands."""

    def test_grouping(self):
        add = pose(builtin_model("adder2"), TaskSpec("add", 2, {"A": 0, "B": 0}))
        assert add.decode((1, 0, 1)) == {"S": 1, "Cout": 1}
        # one-bit operands come first, then the wider ones
        assert list(add.decode((1, 0, 1))) == ["Cout", "S"]
        split = pose(builtin_model("adder1"), TaskSpec("reverse_carry", 1, {"S": 0, "Cout": 0}))
        assert split.decode((1, 0)) == {"A": 1, "B": 0}
        mul = pose(builtin_model("mult2"), TaskSpec("multiply", 2, {"A": 0, "B": 0}))
        assert mul.decode((0, 0, 1, 1)) == {"P": 12}

    def test_sat_reads_each_free_terminal_as_a_bit(self):
        sat = pose(builtin_model("xor"), TaskSpec("sat", clamps={"in1": 1}))
        assert sat.answer == {"in2": ("in2",), "out": ("out",)}
        assert sat.decode((0, 1)) == {"in2": 0, "out": 1}


class TestAssignmentChecker:
    """``Posed.check`` on decoded answer operands."""

    def test_add(self):
        check = pose(builtin_model("adder2"), TaskSpec("add", 2, {"A": 3, "B": 2})).check
        assert check({"S": 1, "Cout": 1})  # 3 + 2 = 5 = 1 + 4
        assert not check({"S": 0, "Cout": 1})

    def test_subtract_default_requires_no_borrow(self):
        adder = builtin_model("adder2")
        check = pose(adder, TaskSpec("subtract", 2, {"S": 1, "B": 3})).check
        assert not check({"A": 2})  # 1 - 3 < 0: unsatisfiable
        free = pose(adder, TaskSpec("subtract", 2, {"S": 1, "B": 3}, cout="free")).check
        assert free({"A": 2})  # (1 - 3) mod 4 = 2

    def test_reverse_carry_accepts_any_split(self):
        check = pose(builtin_model("adder2"),
                       TaskSpec("reverse_carry", 2, {"S": 1, "Cout": 1})).check
        assert check({"A": 2, "B": 3})  # 2 + 3 = 5
        assert check({"A": 3, "B": 2})  # 3 + 2 = 5
        assert not check({"A": 0, "B": 1})

    def test_multiplier_checks(self):
        mult = builtin_model("mult2")
        mul = pose(mult, TaskSpec("multiply", 2, {"A": 3, "B": 3})).check
        assert mul({"P": 9})
        div = pose(mult, TaskSpec("divide", 2, {"P": 6, "A": 2})).check
        assert div({"B": 3})
        assert not div({"B": 2})
        zero_div = pose(mult, TaskSpec("divide", 2, {"P": 0, "A": 0})).check
        assert not zero_div({"B": 0})
        fac = pose(mult, TaskSpec("factor", 2, {"P": 9})).check
        assert fac({"A": 3, "B": 3})
        assert not fac({"A": 1, "B": 3})  # 1 * 3 is trivial

    def test_sat_accepts_anything(self):
        check = pose(builtin_model("xor"), TaskSpec("sat", clamps={})).check
        assert check({"whatever": 1})


def _semantics_cases():
    """(model name, TaskSpec) for every operation at widths 1 and 2.

    Each clamped operand runs over its whole range plus the first value
    that does not fit; Cin is left out or set to 0, 1 or 2; subtract
    runs under every ``cout``.  Divide covers A = 0 and factor the
    trivial pairs.  Missing operands, the wrong unit kind, a wrong
    bit width and sat clamps (including bad ones) are cases too.
    """
    cases = []
    cins = [{}, {"Cin": 0}, {"Cin": 1}, {"Cin": 2}]
    for w in (1, 2):
        adder, mult = f"adder{w}", f"mult{w}"
        word, product = range(2**w + 1), range(4**w + 1)
        for a, b, cin in itertools.product(word, word, cins):
            cases.append((adder, TaskSpec("add", w, {"A": a, "B": b} | cin)))
        for s, b, cin, cout in itertools.product(word, word, cins, (None, 0, 1, "free")):
            cases.append((adder, TaskSpec("subtract", w, {"S": s, "B": b} | cin, cout=cout)))
        for s, cout, cin in itertools.product(word, (0, 1, 2), cins):
            cases.append((adder, TaskSpec("reverse_carry", w, {"S": s, "Cout": cout} | cin)))
        for a, b in itertools.product(word, word):
            cases.append((mult, TaskSpec("multiply", w, {"A": a, "B": b})))
        for p, a in itertools.product(product, word):
            cases.append((mult, TaskSpec("divide", w, {"P": p, "A": a})))
        for p in product:
            cases.append((mult, TaskSpec("factor", w, {"P": p})))
        full = {"add": (adder, {"A": 1, "B": 1, "Cin": 1}),
                "subtract": (adder, {"S": 1, "B": 1, "Cin": 1, "Cout": 1}),
                "reverse_carry": (adder, {"S": 1, "Cin": 1, "Cout": 1}),
                "multiply": (mult, {"A": 1, "B": 1}),
                "divide": (mult, {"P": 1, "A": 1}),
                "factor": (mult, {"P": 1})}
        for op, (model, clamps) in full.items():
            for name in clamps:
                cases.append((model, TaskSpec(op, w, {k: v for k, v in clamps.items()
                                                      if k != name})))
            other = mult if model == adder else adder
            cases.append((other, TaskSpec(op, w, clamps)))
            cases.append((model, TaskSpec(op, w + 1, clamps)))
            cases.append((model, TaskSpec(op, None, clamps)))
    for model in ("adder1", "mult1"):
        names = public_terminals(builtin_model(model))
        for bits in itertools.product((None, 0, 1), repeat=len(names)):
            clamps = {n: b for n, b in zip(names, bits) if b is not None}
            cases.append((model, TaskSpec("sat", None, clamps)))
        cases.append((model, TaskSpec("sat", None, {"zap": 1})))
        cases.append((model, TaskSpec("sat", None, {names[0]: 2})))
    return cases


def _outcome(fn):
    try:
        return fn()
    except (ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestOperationSemanticsPinned:
    """Clamps, answer terminals and checker verdicts of every operation,
    against a digest first computed when each operation had its own
    branch in three functions: one for the clamps, one for the answer
    terminals and one for the checker.  It was recomputed when subtract
    began to apply a Cout clamp instead of clamping Cout to 0, which
    changed exactly the four subtract cases that clamp Cout=1 with
    ``cout`` None.  It was recomputed again when ``pose`` replaced the
    three: 796 of the 1326 cases are unchanged, and the other 530 are
    exactly the cases whose clamp raises (``add`` on a multiplier, Cin=2,
    ...).  Each keeps its clamp error and its verdict (None), and its
    record now holds the same error instead of the answer terminals the
    old function returned without checking the task."""

    DIGEST = "4ce6721b7cb642d63b1b84c7ef8dc9499fc2a44341278595a8d3ba7ed3c60833"

    def test_every_operation_and_clamp_value(self):
        models = {n: builtin_model(n) for n in ("adder1", "adder2", "mult1", "mult2")}
        out = []
        for name, task in _semantics_cases():
            model = models[name]
            posed = _outcome(lambda: pose(model, task))
            clamp = record = posed
            verdicts = None
            if isinstance(posed, Posed):
                clamp, record = list(posed.clamp.items()), list(posed.record)
                verdicts = "".join(
                    str(int(posed.check(posed.decode(bits))))
                    for bits in itertools.product((0, 1), repeat=len(record)))
            out.append([name, task.operation, task.bit_width, sorted(task.clamps.items()),
                        task.cout, clamp, record, verdicts])
        assert len(out) == 1326
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == self.DIGEST


class TestAnswerMode:
    def test_factor_mode_skips_trivial_pairs(self):
        mult = builtin_model("mult2")
        task = TaskSpec("factor", 2, {"P": 9})
        hist = Histogram(("A0", "A1", "B0", "B1"))
        hist.add((1, 0, 1, 1), weight=10)  # A=1, B=3: trivial
        hist.add((1, 1, 1, 1), weight=4)   # A=3, B=3
        hist.add((0, 1, 0, 1), weight=3)   # A=2, B=2
        bits, count, pairs, solved = tasks._readout(task, pose(mult, task), hist)
        assert bits == (1, 1, 1, 1)
        assert count == 4
        assert pairs == [((3, 3), 4), ((2, 2), 3)] and solved

    def test_factor_mode_falls_back_when_all_counts_trivial(self):
        mult = builtin_model("mult2")
        task = TaskSpec("factor", 2, {"P": 3})
        hist = Histogram(("A0", "A1", "B0", "B1"))
        hist.add((1, 0, 1, 1), weight=7)  # A=1, B=3
        bits, count, pairs, solved = tasks._readout(task, pose(mult, task), hist)
        assert bits == (1, 0, 1, 1)
        assert count == 7
        assert pairs == [] and not solved

    def test_non_factor_operations_use_plain_mode(self):
        adder = builtin_model("adder1")
        task = TaskSpec("add", 1, {"A": 1, "B": 1})
        hist = Histogram(("S", "Cout"))
        hist.add((0, 1), weight=5)
        hist.add((1, 0), weight=2)
        assert tasks._readout(task, pose(adder, task), hist) == ((0, 1), 5, None, True)


def _count_classifications(monkeypatch) -> list:
    """The models ``tasks`` classifies from now on, one entry per call."""
    seen = []

    def counting(model):
        seen.append(model)
        return model_interface(model)

    monkeypatch.setattr(tasks, "model_interface", counting)
    return seen


class TestSolve:
    def test_factor_solve_reads_histogram_arrays_only(self, monkeypatch):
        def refuse(hist):
            raise AssertionError("solve built the counts dict")

        monkeypatch.setattr(Histogram, "counts", property(refuse))
        r = solve(builtin_model("mult2"), TaskSpec("factor", 2, {"P": 6}),
                  SolveSettings(n_chains=4, n_sweeps=200, seed=0))
        assert r.total == 4 * 200
        assert r.factor_pairs

    def test_settings_validation(self):
        with pytest.raises(ValueError, match="bad sampler settings"):
            SolveSettings(n_chains=0)
        with pytest.raises(ValueError, match="bad sampler settings"):
            SolveSettings(burn_in=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_chains", 0), ("n_sweeps", 0), ("thin", 0), ("burn_in", -1), ("top_k", -3),
        # bools and non-integers are refused too, one case per field
        ("n_chains", True), ("n_sweeps", 20.5), ("thin", 2.0), ("burn_in", False),
        ("seed", 1.5), ("top_k", 2.5)])
    def test_settings_validation_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"bad sampler settings: {field} must be"):
            SolveSettings(**{field: value})

    def test_numpy_integer_settings_are_accepted(self):
        fields = ("n_chains", "n_sweeps", "thin", "burn_in", "seed", "top_k")
        settings = SolveSettings(**{f: np.int64(3) for f in fields})
        assert all(getattr(settings, f) == 3 for f in fields)

    @pytest.mark.parametrize("task", [TaskSpec("factor", 2, {"P": 6}),
                                      TaskSpec("multiply", 2, {"A": 2, "B": 3})])
    def test_classifies_the_model_once(self, monkeypatch, task):
        # pose classifies it; the factor mode reads A and B off the posed
        # answer instead of classifying the model again.
        seen = _count_classifications(monkeypatch)
        solve(builtin_model("mult2"), task, SolveSettings(n_chains=2, n_sweeps=20))
        assert len(seen) == 1

    def test_success_curve_classifies_once_per_task(self, monkeypatch):
        seen = _count_classifications(monkeypatch)
        factors = [TaskSpec("factor", 2, {"P": p}) for p in (4, 6)]
        success_curve(builtin_model("mult2"), factors, [2, 8, 40], n_chains=2)
        assert len(seen) == len(factors)

    def test_sat_with_part_of_an_operand_clamped(self):
        # A0 alone is clamped, so the answer holds A1 but not A0: it is read
        # per terminal, not grouped into operands.
        adder = builtin_model("adder2")
        task = TaskSpec("sat", None, {"A0": 1})
        result = solve(adder, task, SolveSettings(n_chains=4, n_sweeps=200))
        record = pose(adder, task).record
        assert result.operands == result.terminals
        assert list(result.terminals) == list(record)
        assert all(list(d) == list(record) for d, _ in result.top)
        v = result.terminals | {"A0": 1}
        assert (v["A0"] + 2 * v["A1"] + v["B0"] + 2 * v["B1"] + v["Cin"]
                == v["S0"] + 2 * v["S1"] + 4 * v["Cout"])

    @pytest.mark.slow
    def test_addition_on_trained_unit(self, trained_adder1):
        model, _ = trained_adder1
        task = TaskSpec("add", 1, {"A": 1, "B": 1})
        result = solve(model, task, SolveSettings(n_chains=4, n_sweeps=500, seed=0))
        assert result.success
        assert result.operands == {"S": 0, "Cout": 1}
        assert result.terminals == {"S": 0, "Cout": 1}
        assert result.total == 4 * 500
        assert result.count == max(c for _, c in result.top)
        assert result.frequency == approx(result.count / result.total)
        assert result.factor_pairs is None

    def test_factoring_a_semiprime(self):
        mult = builtin_model("mult2")
        task = TaskSpec("factor", 2, {"P": 9})
        result = solve(mult, task, SolveSettings(n_chains=8, n_sweeps=500, seed=0))
        assert result.success
        assert result.operands == {"A": 3, "B": 3}
        assert result.factor_pairs[0][0] == (3, 3)

    def test_factoring_a_prime_fails_honestly(self):
        mult = builtin_model("mult2")
        task = TaskSpec("factor", 2, {"P": 3})
        result = solve(mult, task, SolveSettings(n_chains=8, n_sweeps=500, seed=0))
        assert not result.success
        # Junk excursions put stray nontrivial pairs in the histogram, but
        # no reported pair can multiply to a prime.
        assert all(a > 1 and b > 1 and a * b != 3
                   for (a, b), _ in result.factor_pairs)

    @pytest.mark.slow
    def test_subtraction(self, trained_adder1):
        model, _ = trained_adder1
        task = TaskSpec("subtract", 1, {"S": 1, "B": 0})
        result = solve(model, task, SolveSettings(n_chains=4, n_sweeps=500, seed=1))
        assert result.success
        assert result.operands == {"A": 1}


def _random_histogram(names, seed, n_keys):
    """Counts 1..5 on random keys: many ties, duplicates merged."""
    rng = np.random.default_rng(seed)
    hist = Histogram(tuple(names))
    keys = rng.integers(0, 2, size=(n_keys, len(names)))
    for key, count in zip(keys.tolist(), rng.integers(1, 6, size=n_keys).tolist()):
        hist.add(tuple(key), count)
    return hist


class TestSolveResultPinned:
    """solve() read out of a fixed histogram, against digests of the
    output that the per-key decoding and full sort gave before the
    vectorized factor extraction."""

    CASES = {
        "factor": ("mult4", TaskSpec("factor", 4, {"P": 15}),
                   bit_names("A", 4) + bit_names("B", 4), 1, 300,
                   "aa96d168a18264fc016e25da9fd3b6368283dd271dd68dabde0fb1352d68743e"),
        "add": ("adder4", TaskSpec("add", 4, {"A": 3, "B": 9}), bit_names("S", 4) + ["Cout"],
                2, 60, "2997b18cd2f3953a08bb3b2159fd634532cc000c4989bee0e991e21d352f0ae9"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_terminals_count_top_and_factor_pairs(self, case, monkeypatch):
        unit, task, names, seed, n_keys, digest = self.CASES[case]
        hist = _random_histogram(names, seed, n_keys)
        monkeypatch.setattr(tasks, "multistart", lambda *args, **kwargs: hist)
        r = solve(builtin_model(unit), task, SolveSettings(top_k=7))
        out = [sorted(r.terminals.items()), r.count, r.total,
               [[sorted(d.items()), c] for d, c in r.top], r.factor_pairs]
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == digest


class TestRandomTask:
    def test_specs_are_solvable(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            add = random_task("add", 3, rng)
            assert add.expected == add.clamps["A"] + add.clamps["B"] + add.clamps["Cin"]
            sub = random_task("subtract", 3, rng)
            assert sub.clamps["S"] >= sub.clamps["B"]
            assert sub.expected == sub.clamps["S"] - sub.clamps["B"]
            rc = random_task("reverse_carry", 3, rng)
            assert set(rc.clamps) == {"S", "Cout", "Cin"}
            assert rc.clamps["S"] < 8
            mul = random_task("multiply", 3, rng)
            assert mul.expected == mul.clamps["A"] * mul.clamps["B"]
            div = random_task("divide", 3, rng)
            assert div.clamps["A"] >= 1
            assert div.clamps["P"] == div.clamps["A"] * div.expected
            fac = random_task("factor", 3, rng)
            assert fac.clamps["P"] >= 4

    # SHA-256 of 20 tasks per operation drawn from default_rng(width),
    # computed before wide widths were supported: narrow draws are unchanged.
    NARROW_DIGESTS = {
        4: "960909d25afb16f17143a1e1b0a8a4299c4c275f7ebc8d3aa8012f93f91fb38e",
        8: "9456bc2a7e3d75bface4a7f268121cb5202341951696120f8fb91311672e7eff",
        16: "366db41985fa5a91db00bd9d9c6eca2b99ba96509bb8950ac6e52aabdf90b810",
    }

    @pytest.mark.parametrize("width", sorted(NARROW_DIGESTS))
    def test_narrow_draws_are_pinned(self, width):
        rng = np.random.default_rng(width)
        out = []
        for op in ("add", "subtract", "reverse_carry", "multiply", "divide", "factor"):
            for _ in range(20):
                t = random_task(op, width, rng)
                out.append([t.operation, t.bit_width, sorted(t.clamps.items()), t.expected])
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
            self.NARROW_DIGESTS[width]

    @pytest.mark.parametrize("width", [64, 128])
    def test_wide_tasks_are_in_range_and_solvable(self, width):
        top = 2**width

        def model(operands):
            names = [n for op, w in operands for n in bit_names(op, w)]
            return Rbm(np.zeros((len(names), 1)), np.zeros(len(names)), np.zeros(1), names)

        adder = model([("A", width), ("B", width), ("Cin", 1), ("S", width), ("Cout", 1)])
        mult = model([("A", width), ("B", width), ("P", 2 * width)])

        rng = np.random.default_rng(width)
        seen = []
        for _ in range(20):
            add = random_task("add", width, rng)
            total = add.expected
            assert pose(adder, add).check({"S": total % top, "Cout": total >> width})
            sub = random_task("subtract", width, rng)
            assert pose(adder, sub).check({"A": sub.expected})
            rc = random_task("reverse_carry", width, rng)
            rest = rc.clamps["S"] + top * rc.clamps["Cout"] - rc.clamps["Cin"]
            a = min(rest, top - 1)
            assert pose(adder, rc).check({"A": a, "B": rest - a})
            mul = random_task("multiply", width, rng)
            assert pose(mult, mul).check({"P": mul.expected})
            div = random_task("divide", width, rng)
            assert div.clamps["A"] >= 1
            assert pose(mult, div).check({"B": div.expected})
            fac = random_task("factor", width, rng)
            assert 4 <= fac.clamps["P"] < top**2
            for task, model_ in ((add, adder), (sub, adder), (rc, adder),
                                 (mul, mult), (div, mult), (fac, mult)):
                pose(model_, task)  # every operand fits its terminals
            seen += [add.clamps["A"], add.clamps["B"], mul.clamps["A"], div.clamps["A"]]
        assert 0 <= min(seen) and max(seen) < top
        assert max(seen) >= top // 2  # the top word is drawn too

    def test_unknown_operation(self):
        with pytest.raises(ValueError, match="cannot generate"):
            random_task("sat", 2, np.random.default_rng(0))

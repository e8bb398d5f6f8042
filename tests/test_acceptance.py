"""Whole-system acceptance checks.

Each test prints one [PASS]/[FAIL] line carrying the measured numbers and
the pinned threshold it was judged against; a run of every check also
collects the lines into ``acceptance_report.txt`` at the repository root,
a one-page verdict summary that a partial run leaves untouched. Run with
``pytest tests/test_acceptance.py -s`` to see the lines as they are
produced.

The checks exercise the toolkit end to end: exact merge algebra, the
Gibbs contraction bound, synthesized-circuit distribution quality, mixing
speed of trained versus gate-merged units, forward and inverse arithmetic
on merged adders, semiprime factoring on a merged multiplier, contrastive
divergence training targets, KL growth across gate chains, and manifest
replay determinism of the command line tools.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rbmlogic.cli import main
from rbmlogic.exact import (
    ExactDistribution,
    convergence_bound,
    delta_exact,
    exact_joint_distribution,
    exact_visible_distribution,
    gibbs_transition_matrix,
    kl_divergence,
    l1_distance,
    tv_distance,
)
from rbmlogic.merge import Netlist, compose, merge_pair
from rbmlogic.sampler import integrated_autocorrelation_time, run_chain
from rbmlogic.synthesis import (
    build_adder,
    build_multiplier,
    builtin_model,
    gate,
    parse_unit,
    rbm_from_truth_table,
)
from rbmlogic.tasks import SolveSettings, TaskSpec, random_task, solve
from rbmlogic.training import evaluate_accuracy

from .reference import random_rbm

pytestmark = pytest.mark.slow

_LINES: list[str] = []


def _verdict(ok: bool, name: str, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    # Only a run in which every check added its line rewrites the report,
    # so running a subset (``-k test_07``) leaves the committed file alone.
    yield
    checks = [name for name in vars(TestAcceptance) if name.startswith("test_")]
    if len(_LINES) == len(checks):
        path = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
        path.write_text("\n".join(_LINES) + "\n")


def _bit_grid(n: int) -> np.ndarray:
    idx = np.arange(2**n)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(float)


class TestAcceptance:
    def test_01_merge_is_energy_additive_product_of_experts(self):
        # 100 random pairs, arbitrary terminal identifications, checked by
        # exhaustive enumeration of the merged joint state space
        rng = np.random.default_rng(11)
        worst_energy = 0.0
        worst_prob = 0.0
        for _ in range(100):
            nva, nha = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            nvb, nhb = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            a = random_rbm(rng, nva, nha, prefix="a")
            b = random_rbm(rng, nvb, nhb, prefix="b")
            k = int(rng.integers(1, min(nva, nvb) + 1))
            a_terms = list(rng.choice(a.visible_names, size=k, replace=False))
            b_terms = list(rng.choice(b.visible_names, size=k, replace=False))
            merged = merge_pair(a, b, list(zip(a_terms, b_terms)))
            b_to_a = dict(zip(b_terms, a_terms))
            names = merged.visible_names
            col_a = [names.index(n) for n in a.visible_names]
            col_b = [names.index(b_to_a.get(n, n)) for n in b.visible_names]

            V = _bit_grid(merged.n_visible)
            H = _bit_grid(merged.n_hidden)

            def grid_energy(r, Vr, Hr):
                return (-(Vr @ r.weights @ Hr.T)
                        - (Vr @ r.visible_bias)[:, None]
                        - (Hr @ r.hidden_bias)[None, :])

            gap = grid_energy(merged, V, H) - (
                grid_energy(a, V[:, col_a], H[:, :nha])
                + grid_energy(b, V[:, col_b], H[:, nha:]))
            worst_energy = max(worst_energy, float(np.abs(gap).max()))

            pm = exact_visible_distribution(merged).probabilities
            pa = exact_visible_distribution(a).probabilities
            pb = exact_visible_distribution(b).probabilities
            idx_a = (V[:, col_a] @ (2 ** np.arange(nva))).astype(int)
            idx_b = (V[:, col_b] @ (2 ** np.arange(nvb))).astype(int)
            q = pa[idx_a] * pb[idx_b]
            q /= q.sum()
            worst_prob = max(worst_prob, float(np.abs(pm - q).max()))
        _verdict(
            worst_energy <= 1e-10 and worst_prob <= 1e-10,
            "1/10 merge algebra",
            "100 random pairs: max |E_merged - (E_a + E_b)| = "
            f"{worst_energy:.2e}, max |p_merged - p_a*p_b/Z| = "
            f"{worst_prob:.2e} (threshold 1e-10)",
        )

    def test_02_gibbs_convergence_respects_contraction_bound(self):
        # observed TV(mu P^n, pi) must stay below
        # 0.5 * |mu - pi|_1 * (1 - exp(-2 delta))^n for every sweep count
        rng = np.random.default_rng(0)
        worst_margin = np.inf
        checks = 0
        for _ in range(50):
            nv = int(rng.integers(1, 8))
            nh = int(rng.integers(1, min(6, 13 - nv)))
            r = random_rbm(rng, nv, nh)
            P = gibbs_transition_matrix(r)
            grid, _ = exact_joint_distribution(r)
            pi = grid.reshape(-1)
            delta = delta_exact(r)
            for _ in range(5):
                mu = rng.exponential(size=P.shape[0])
                mu /= mu.sum()
                initial_l1 = l1_distance(mu, pi)
                for n in range(1, 51):
                    mu = mu @ P
                    bound = convergence_bound(delta, initial_l1, n)
                    worst_margin = min(worst_margin,
                                       float(bound - tv_distance(mu, pi)))
                    checks += 1
        _verdict(
            worst_margin >= -1e-12,
            "2/10 convergence bound",
            f"{checks} (model, start, sweep) checks: smallest bound - "
            f"observed TV margin = {worst_margin:.3e} (no violations "
            "allowed beyond 1e-12 rounding)",
        )

    def test_03_full_adder_concentrates_on_valid_rows(self):
        def truth_mass(dist):
            idx = [dist.names.index(n) for n in ("A", "B", "Cin", "S", "Cout")]
            mass = 0.0
            for row, p in zip(dist.support, dist.probabilities):
                a, b, cin, s, cout = (int(row[i]) for i in idx)
                if s == (a + b + cin) % 2 and cout == (a + b + cin) // 2:
                    mass += p
            return mass

        merged = truth_mass(exact_visible_distribution(builtin_model("fa1").rbm))
        direct = truth_mass(
            exact_visible_distribution(rbm_from_truth_table(parse_unit(("adder", 1)).table())))
        _verdict(
            merged >= 0.97 and direct > merged,
            "3/10 full-adder valid mass",
            f"gate-merged mass {merged:.6f} (threshold 0.97), direct "
            f"construction {direct:.6f}, strict direct > merged",
        )

    def test_04_trained_unit_mixes_faster_than_gate_merge(self, trained_adder1):
        trained_model, _ = trained_adder1
        gate_model = builtin_model("fa1")
        pairs = []
        ordered = True
        for seed in range(3):
            trace_t, _ = run_chain(trained_model, n_sweeps=10**5, seed=seed)
            trace_g, _ = run_chain(gate_model, n_sweeps=10**5, seed=seed)
            iat_t = integrated_autocorrelation_time(trace_t.free_energy)
            iat_g = integrated_autocorrelation_time(trace_g.free_energy)
            pairs.append((iat_t, iat_g))
            ordered = ordered and iat_t < iat_g
        shown = ", ".join(f"seed {s}: {t:.1f} < {g:.1f}" if t < g else
                          f"seed {s}: {t:.1f} >= {g:.1f}"
                          for s, (t, g) in enumerate(pairs))
        _verdict(
            ordered,
            "4/10 mixing order",
            "free-energy autocorrelation time, trained vs gate-merged "
            f"full adder over 1e5 sweeps: {shown}",
        )

    def test_05_wide_adder_solves_additions_within_sample_budget(self, trained_adder4):
        unit, _ = trained_adder4
        model = build_adder(16, unit)
        rng = np.random.default_rng(2024)
        solved = 0
        budget_ok = True
        for i in range(100):
            task = random_task("add", 16, rng)
            result = solve(model, task, SolveSettings(
                n_chains=100, n_sweeps=1000, burn_in=991, seed=1000 + i))
            budget_ok = budget_ok and result.total <= 1000
            total = result.operands["S"] + (result.operands["Cout"] << 16)
            solved += int(result.success and total == task.expected)
        _verdict(
            solved >= 95 and budget_ok,
            "5/10 16-bit addition",
            f"{solved}/100 random sums exact as pooled mode within "
            "<= 1000 recorded samples each (threshold 95)",
        )

    def test_06_adder_runs_backward(self, trained_adder4):
        unit, _ = trained_adder4
        model = build_adder(8, unit)
        scores = {}
        for op, seed_rng, seed_base in [("subtract", 7, 500),
                                        ("reverse_carry", 8, 700)]:
            rng = np.random.default_rng(seed_rng)
            ok = 0
            for i in range(100):
                task = random_task(op, 8, rng)
                result = solve(model, task, SolveSettings(
                    n_chains=16, n_sweeps=2000, burn_in=1000,
                    seed=seed_base + i))
                ok += int(result.success)
            scores[op] = ok
        _verdict(
            scores["subtract"] >= 90 and scores["reverse_carry"] >= 80,
            "6/10 inverse arithmetic",
            f"8-bit adder solved subtraction {scores['subtract']}/100 "
            f"(threshold 90) and carry-consistent input recovery "
            f"{scores['reverse_carry']}/100 (threshold 80)",
        )

    def test_07_multiplier_factors_semiprimes(self, refined_adder4, refined_mult4):
        adder_unit, mult_unit = refined_adder4, refined_mult4
        assert evaluate_accuracy(adder_unit, "adder4", n_instances=512) == 1.0
        assert evaluate_accuracy(mult_unit, "mult4", n_instances=256) == 1.0
        model = build_multiplier(8, mult_unit, adder_unit)
        semiprimes = [106, 111, 115, 119, 133, 143, 187, 203, 209, 221]
        solved = 0
        budget_ok = True
        for i, product in enumerate(semiprimes):
            task = TaskSpec("factor", None, {"P": product})
            settings = SolveSettings(
                n_chains=16, n_sweeps=781, burn_in=195, seed=300 + i,
                betas=tuple(np.geomspace(0.2, 1.0, 8)))
            result = solve(model, task, settings)
            budget_ok = budget_ok and result.chain_sweeps <= 10**5
            solved += int(result.success)
        _verdict(
            solved >= 8 and budget_ok,
            "7/10 semiprime factoring",
            f"{solved}/10 semiprimes in [100, 250] recovered as pooled "
            f"mode of the beta = 1 replicas within {result.chain_sweeps} "
            "chain-sweeps each (<= 1e5, every replica counted; replica "
            f"exchange, {settings.n_chains} ladders x {len(settings.betas)} "
            f"replicas, beta {settings.betas[0]:g}..1 geometric, x "
            f"{settings.n_sweeps} sweeps; threshold 8)",
        )

    def test_08_contrastive_divergence_reaches_target_accuracy(
            self, trained_adder1, trained_mult2):
        adder_model, _ = trained_adder1
        mult_model, _ = trained_mult2
        adder_acc = evaluate_accuracy(adder_model, "adder1")
        mult_acc = evaluate_accuracy(mult_model, "mult2")
        _verdict(
            adder_acc == 1.0 and mult_acc >= 0.95,
            "8/10 training targets",
            f"1-bit adder (6 hidden) accuracy {adder_acc:.3f} (threshold "
            f"1.0), 2-bit multiplier (12 hidden) accuracy {mult_acc:.3f} "
            "(threshold 0.95) over full input spaces",
        )

    def test_09_gate_chain_kl_grows_linearly(self):
        def chain_kl(length):
            comps = [(f"g{k}", gate("xor")) for k in range(length)]
            conns = [(f"g{k}.out", f"g{k + 1}.in1") for k in range(length - 1)]
            mm = compose(Netlist(comps, conns))
            dist = exact_visible_distribution(mm.rbm)
            names = dist.names
            first = names.index("g0.in1")
            others = [names.index(f"g{k}.in2") for k in range(length)]
            outs = [mm.terminal_map[f"g{k}.out"] for k in range(length)]
            ideal = np.zeros(len(dist.support))
            for i, row in enumerate(dist.support):
                x = int(row[first])
                ok = True
                for k in range(length):
                    x ^= int(row[others[k]])
                    if int(row[outs[k]]) != x:
                        ok = False
                        break
                if ok:
                    ideal[i] = 1.0
            ideal /= ideal.sum()
            target = ExactDistribution(names, dist.support, ideal, 0.0, {})
            return float(kl_divergence(target, dist))

        kls = [chain_kl(k) for k in range(1, 5)]
        base = kls[0]
        within = all(k * base / 2 <= kl <= 2 * k * base
                     for k, kl in enumerate(kls, start=1))
        shown = ", ".join(f"{k} gates: {kl:.5f}"
                          for k, kl in enumerate(kls, start=1))
        _verdict(
            within,
            "9/10 KL linearity",
            f"exclusive-or chains vs ideal uniform distribution: {shown}; "
            "each within a factor 2 of k times the single-gate KL "
            f"({base:.5f})",
        )

    def test_10_cli_replay_reproduces_csv_outputs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RBMLOGIC_OUTDIR", raising=False)
        monkeypatch.chdir(tmp_path)

        def sha(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        assert main(["build", "adder1", "-o", "adder1.json"]) == 0
        (tmp_path / "tcfg.json").write_text(json.dumps(
            {"epochs_per_stage": 2, "k_max": 3, "patience": 2,
             "eval_instances": 8}))
        (tmp_path / "bcfg.json").write_text(json.dumps(
            {"model": "mult2", "operation": "factor", "count": 3,
             "checkpoints": [200, 1000], "chains": 4, "seed": 0}))
        commands = [
            (["solve", "adder1.json", "--op", "add", "--clamp", "A=1",
              "--clamp", "B=1", "--chains", "4", "--sweeps", "400",
              "--hist", "ans.csv"], "ans.manifest.json"),
            (["train", "adder1", "-o", "trained.json", "--metrics",
              "metrics.csv", "--config", "tcfg.json", "--seed", "0"],
             "trained.manifest.json"),
            (["bench", "bcfg.json", "-o", "bench_out"],
             "bench_out/manifest.json"),
            (["diagnose", "adder1.json", "-o", "diag", "--steps", "10",
              "--sample-sweeps", "300"], "diag/manifest.json"),
        ]
        identical = 0
        total = 0
        for argv, manifest in commands:
            code = main(argv)
            assert code == 0, argv
            outputs = [Path(p) for p in
                       json.loads(Path(manifest).read_text())["outputs"]
                       if p.endswith(".csv")]
            assert outputs, argv
            baseline = {p: sha(p) for p in outputs}
            for p in outputs:
                p.unlink()
            assert main(["replay", manifest]) == 0
            total += len(outputs)
            identical += sum(sha(p) == h for p, h in baseline.items())
        _verdict(
            identical == total and total >= 6,
            "10/10 replay determinism",
            f"{identical}/{total} CSV files from 4 replayed commands "
            "(solve, train, bench, diagnose) byte-identical to the "
            "original runs",
        )

"""Command-line interface.

Subcommands: build, train, solve, bench, diagnose, inspect, replay.
Every command that writes files also writes a manifest JSON recording
the exact argument vector; ``rbmlogic replay manifest.json`` reruns the
command, reproducing the output files byte for byte (all sampling is
seeded PCG64, and floats are serialized via repr so they round-trip).

Exit codes: 0 on success, 1 when a solve verdict is wrong or a benchmark
finds nothing, 2 on usage or input errors.  A sat verdict is unchecked
(exit 0).

Environment: RBMLOGIC_OUTDIR prefixes relative output paths.
RBMLOGIC_THREADS fills in any unset OMP/OPENBLAS/MKL_NUM_THREADS when the
``rbmlogic`` package is first imported, before it loads numpy (see the
package ``__init__``); it must be a positive integer, or every command
exits 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import _BLAS_THREAD_VARS, __version__, _is_thread_count
from .exact import (
    MAX_JOINT_UNITS,
    convergence_bound,
    delta_bound,
    delta_exact,
    exact_joint_distribution,
    exact_visible_distribution,
    l1_distance,
    propagate_distribution,
    tv_distance,
)
from .merge import MergedModel, Netlist, compose, model_parts, resolve_clamp
from .model import Rbm, _check_integer
from .sampler import integrated_autocorrelation_time, run_chain
from .synthesis import (
    DEFAULT_SHARPNESS,
    build_adder,
    build_multiplier,
    builtin_model,
    parse_unit,
)
from .tasks import (OPERATIONS, SolveSettings, TaskSpec, decode_int, model_interface,
                    public_terminals, random_task, solve, success_curve)
from .training import TrainConfig, train


def _out_path(raw: str) -> Path:
    base = os.environ.get("RBMLOGIC_OUTDIR", "")
    path = Path(raw)
    return Path(base) / path if base and not path.is_absolute() else path


def _sidecar(path: Path) -> Path:
    return path.with_name(path.stem + ".terminals.json")


def save_model(model, path: Path) -> list[Path]:
    """Write a model JSON; merged models get a terminals sidecar."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = [path]
    if isinstance(model, MergedModel):
        model.rbm.save(path)
        side = _sidecar(path)
        side.write_text(json.dumps({
            "terminal_map": {k: int(v) for k, v in sorted(model.terminal_map.items())},
            "constants": {k: int(v) for k, v in sorted(model.constants.items())},
        }, indent=1, sort_keys=True) + "\n")
        written.append(side)
    else:
        model.save(path)
    return written


# Top-level keys of a model JSON; a netlist JSON has "components" instead.
MODEL_KEYS = ("visible", "hidden_bias", "weights")


def _json_object(path: Path, what: str) -> dict:
    raw = json.loads(path.read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {type(raw).__name__}")
    return raw


def _model_or_netlist(path: Path) -> dict:
    """A model or netlist file's top-level object: a netlist has
    components, a model every one of MODEL_KEYS."""
    raw = _json_object(path, "a model or netlist")
    missing = [k for k in MODEL_KEYS if k not in raw]
    if missing and "components" not in raw:
        raise ValueError(f"{path}: neither a model nor a netlist: missing "
                         f"{', '.join(missing)} (or a netlist's components)")
    return raw


def load_model(path: str):
    """Read a model JSON, upgrading to MergedModel if a sidecar exists."""
    path = Path(path)
    raw = _model_or_netlist(path)
    if "components" in raw:
        raise ValueError(f"{path} is a netlist; build it into a model first")
    try:
        rbm = Rbm.from_json_dict(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    side = _sidecar(path)
    return _with_sidecar(rbm, side) if side.exists() else rbm


def _with_sidecar(rbm: Rbm, side: Path) -> MergedModel:
    """``rbm`` with the terminal map and constants of its sidecar, each field checked.

    terminal_map maps names to visible indices in [0, n_visible); several
    names may share an index (a merged terminal keeps the names of every
    unit it joined).  constants maps terminals of the model to the bits
    they are held at.
    """
    info = _json_object(side, "a terminals sidecar")
    terminal_map, constants = info.get("terminal_map"), info.get("constants", {})
    for field, raw, shape in (("terminal_map", terminal_map, "name -> index"),
                              ("constants", constants, "name -> 0 or 1")):
        if not isinstance(raw, dict):
            raise ValueError(f"{side}: {field} must be an object of {shape}, got {raw!r}")
    for name, index in terminal_map.items():
        if type(index) is not int or not 0 <= index < rbm.n_visible:
            raise ValueError(f"{side}: terminal_map[{name!r}] = {index!r} is not "
                             f"a visible index in [0, {rbm.n_visible})")
    for name, bit in constants.items():
        if name not in rbm.visible_names:
            raise ValueError(f"{side}: constants[{name!r}] is not a terminal of the model")
        if type(bit) is not int or bit not in (0, 1):
            raise ValueError(f"{side}: constants[{name!r}] = {bit!r} must be 0 or 1")
    return MergedModel(rbm, dict(terminal_map), dict(constants))


def _netlist(raw: dict, sharpness: float) -> Netlist:
    """A netlist JSON object as a Netlist, the shape of each field checked."""
    def strings(values) -> bool:
        return all(isinstance(v, str) for v in values)

    comps, pairs, exports = raw["components"], raw.get("connections"), raw.get("exports", {})
    for name, shape, ok in (
        ("components", "a list of objects with string id and model",
         isinstance(comps, list) and all(
             isinstance(c, dict) and strings((c.get("id"), c.get("model"))) for c in comps)),
        ("connections", "a list of [endpoint, endpoint] string pairs",
         isinstance(pairs, list) and all(
             isinstance(p, list) and len(p) == 2 and strings(p) for p in pairs)),
        ("exports", "an object of string -> string",
         isinstance(exports, dict) and strings(exports.values())),
    ):
        if not ok:
            raise ValueError(f"netlist {name} must be {shape}")
    return Netlist([(c["id"], _resolve_component(c["model"], sharpness)) for c in comps],
                   [tuple(p) for p in pairs], dict(exports))


def _names_file(spec: str) -> bool:
    """Whether a model spec names a file rather than a builtin model."""
    return spec.endswith(".json") or os.path.sep in spec or os.path.exists(spec)


def _resolve_component(spec: str, sharpness: float):
    return load_model(spec) if _names_file(spec) else builtin_model(spec, sharpness)


def _environment() -> dict:
    """The versions and thread settings a run depended on (replay ignores them)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # a numpy without the config dicts
        blas = {"name": None, "version": None}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {var: os.environ.get(var)
                        for var in ("RBMLOGIC_THREADS", *_BLAS_THREAD_VARS)}}


def _write_manifest(command: str, argv: list[str], outputs: list[Path],
                    primary: Path) -> Path:
    manifest = primary / "manifest.json" if primary.is_dir() else \
        primary.with_name(primary.stem + ".manifest.json")
    manifest.write_text(json.dumps({
        "argv": list(argv),
        "command": command,
        "environment": _environment(),
        "outputs": [str(p) for p in outputs],
        "version": __version__,
    }, indent=1, sort_keys=True) + "\n")
    return manifest


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return repr(x)
        return str(x)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(x) for x in row])


def _parse_clamp_items(items: list[str]) -> dict[str, int]:
    out = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not _ or not value.lstrip("-").isdigit():
            raise ValueError(f"bad clamp {item!r}; expected NAME=INTEGER")
        out[name] = int(value)
    return out


def cmd_build(args, argv) -> int:
    out = _out_path(args.output)
    spec = args.spec
    if args.base:
        try:
            unit = parse_unit(spec)
        except ValueError:
            raise ValueError(
                f"--base only applies to adder<n>/mult<n>, got {spec!r}") from None
        base = _resolve_component(args.base, args.sharpness)
        if unit.kind == "multiplier":
            model = build_multiplier(unit.width, base, builtin_model("adder1", args.sharpness))
        else:
            model = build_adder(unit.width, base)
    elif _names_file(spec):
        raw = _model_or_netlist(Path(spec))
        model = compose(_netlist(raw, args.sharpness)) if "components" in raw else load_model(spec)
    else:
        model = builtin_model(spec, args.sharpness)
    outputs = save_model(model, out)
    rbm, constants = model_parts(model)
    _write_manifest("build", argv, outputs, out)
    print(f"built {spec}: {rbm.n_visible} visible, {rbm.n_hidden} hidden, "
          f"{len(public_terminals(model))} exported terminals, {len(constants)} constants")
    print(f"wrote {' '.join(str(p) for p in outputs)}")
    return 0


def cmd_train(args, argv) -> int:
    overrides = _json_object(Path(args.config), "a train config") if args.config else {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.cap is not None:
        overrides["dataset_cap"] = args.cap
    config = TrainConfig(**overrides)
    model, metrics = train(args.task, args.hidden, config)
    out = _out_path(args.output)
    outputs = save_model(model, out)
    if args.metrics:
        mpath = _out_path(args.metrics)
        _write_csv(mpath, ["stage", "k", "epoch", "recon_error", "accuracy"],
                   [[m["stage"], m["k"], m["epoch"], m["recon_error"], m["accuracy"]]
                    for m in metrics])
        outputs.append(mpath)
    _write_manifest("train", argv, outputs, out)
    final = [m["accuracy"] for m in metrics if m["accuracy"] is not None]
    print(f"trained {args.task}: best accuracy {max(final):.3f} over {len(final)} stages")
    print(f"wrote {' '.join(str(p) for p in outputs)}")
    return 0


def cmd_solve(args, argv) -> int:
    model = load_model(args.model)
    clamps = _parse_clamp_items(args.clamp)
    cout = None if args.cout is None else (
        "free" if args.cout == "free" else int(args.cout))
    task = TaskSpec(args.op, None, clamps, expected=args.expected, cout=cout)
    settings = SolveSettings(n_chains=args.chains, n_sweeps=args.sweeps,
                             burn_in=args.burn_in, thin=args.thin,
                             seed=args.seed, top_k=args.top_k)
    result = solve(model, task, settings)
    outputs = []
    if args.hist:
        hpath = _out_path(args.hist)
        rows = [[op, value] for op, value in sorted(result.operands.items())]
        _write_csv(hpath, ["operand", "value"], rows)
        tpath = hpath.with_name(hpath.stem + ".top.csv")
        _write_csv(tpath, ["assignment", "count"],
                   [[json.dumps(a, sort_keys=True), c] for a, c in result.top])
        outputs += [hpath, tpath]
        _write_manifest("solve", argv, outputs, hpath)
    answer = ", ".join(f"{k}={v}" for k, v in sorted(result.operands.items()))
    print(f"mode: {answer} (frequency {result.frequency:.3f}, "
          f"{result.count}/{result.total} samples)")
    if result.factor_pairs is not None:
        shown = ", ".join(f"{a}x{b}:{c}" for (a, b), c in result.factor_pairs[:args.top_k])
        print(f"nontrivial factor pairs: {shown or 'none found'}")
    if args.expected is not None:  # the answer bits, LSB first, as one integer
        got = decode_int(list(result.terminals.values()))
        print(f"expected {args.expected}: {'match' if got == args.expected else 'MISMATCH'}")
    if args.op == "sat":  # sat has no relation to check the mode against
        print("verdict: unchecked")
        return 0
    print("verdict:", "consistent" if result.success else "INCONSISTENT")
    return 0 if result.success else 1


def _bench_config(path: Path) -> dict:
    """A bench config with its defaults filled in; a bad field is an error naming it."""
    cfg = {"count": 10, "chains": 4, "seed": 0, "burn_in": 0, "sharpness": DEFAULT_SHARPNESS,
           "checkpoints": [100, 1000, 10000]} | _json_object(path, "a bench config")
    if not isinstance(cfg.get("model"), str):
        raise ValueError(f"{path}: model must be a builtin name or a model path, "
                         f"got {cfg.get('model')!r}")
    if cfg.get("operation") not in OPERATIONS:
        raise ValueError(f"{path}: operation must be one of {', '.join(OPERATIONS)}, "
                         f"got {cfg.get('operation')!r}")
    if not isinstance(cfg["checkpoints"], list) or not cfg["checkpoints"]:
        raise ValueError(f"{path}: checkpoints must be a nonempty list")
    checks = [(n, cfg[n], 1) for n in ("count", "chains")] + \
        [(n, cfg[n], 0) for n in ("seed", "burn_in")] + \
        [("checkpoints entry", c, 1) for c in cfg["checkpoints"]]
    for name, value, low in checks:
        _check_integer(f"{path}: {name}", value, low)
    sharpness = cfg["sharpness"]
    if isinstance(sharpness, bool) or not isinstance(sharpness, (int, float)) \
            or not 0 < sharpness < np.inf:
        raise ValueError(f"{path}: sharpness must be a finite number > 0, got {sharpness!r}")
    return cfg


def cmd_bench(args, argv) -> int:
    cfg = _bench_config(Path(args.config))
    model = _resolve_component(cfg["model"], cfg["sharpness"])
    rng = np.random.default_rng(cfg["seed"])
    width = model_interface(model).width
    tasks = [random_task(cfg["operation"], width, rng) for _ in range(cfg["count"])]
    curve = success_curve(model, tasks, cfg["checkpoints"], n_chains=cfg["chains"],
                          seed=cfg["seed"], burn_in=cfg["burn_in"])
    outdir = _out_path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    curve_path = outdir / "success_curve.csv"
    _write_csv(curve_path, ["pooled_samples", "success_fraction"],
               [[c, f] for c, f in curve])
    tasks_path = outdir / "tasks.json"
    tasks_path.write_text(json.dumps(
        [{"operation": t.operation, "clamps": t.clamps, "expected": t.expected}
         for t in tasks], indent=1, sort_keys=True) + "\n")
    _write_manifest("bench", argv, [curve_path, tasks_path], outdir)
    for c, f in curve:
        print(f"{c:>10} samples: {f:.2f} solved")
    return 0 if curve and curve[-1][1] > 0 else 1


def cmd_diagnose(args, argv) -> int:
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    if args.sample_sweeps < 2:
        raise ValueError(f"--sample-sweeps must be >= 2, got {args.sample_sweeps}")
    if not 0 <= args.max_joint <= MAX_JOINT_UNITS:
        raise ValueError(f"--max-joint must be in [0, {MAX_JOINT_UNITS}], got {args.max_joint}")
    model = load_model(args.model)
    clamp = _parse_clamp_items(args.clamp)
    rbm, _ = model_parts(model)
    n_free = rbm.n_visible - len(resolve_clamp(model, clamp))
    outdir = _out_path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    report: dict = {"model": args.model, "clamp": clamp}
    report["n_visible"] = rbm.n_visible
    report["n_hidden"] = rbm.n_hidden
    report["delta_bound"] = delta_bound(model)

    exact_ok = n_free + rbm.n_hidden <= args.max_joint
    if exact_ok:
        delta = report["delta_exact"] = delta_exact(model, clamp)
        pi = exact_joint_distribution(model, clamp)[0].reshape(-1)
        pi /= pi.sum()  # rounding can push the sum past 1, and a TV past its bound
        mu0 = np.zeros_like(pi)
        mu0[0] = 1.0
        # At most 2, but pi's rounding can exceed it by ulps when pi[0] ~ 0.
        initial_l1 = min(l1_distance(mu0, pi), 2.0)
        sweeps = propagate_distribution(model, mu0, clamp)
        rows = [[n, tv_distance(mu, pi), convergence_bound(delta, initial_l1, n)]
                for n, mu in zip(range(args.steps + 1), sweeps)]
        bound_path = outdir / "bound.csv"
        _write_csv(bound_path, ["sweep", "tv_observed", "tv_bound"], rows)
        outputs.append(bound_path)
        dist = exact_visible_distribution(model, clamp)
        dist_path = outdir / "distribution.csv"
        _write_csv(dist_path, ["index", *dist.names, "probability"],
                   [[i, *map(int, dist.support[i]), float(p)]
                    for i, p in enumerate(dist.probabilities)])
        outputs.append(dist_path)
        report["tv_after_steps"] = rows[-1][1]
    else:
        report["note"] = (f"{n_free} free + {rbm.n_hidden} hidden units exceed "
                          f"--max-joint {args.max_joint}; exact curves skipped")

    trace, _ = run_chain(model, clamp, n_sweeps=args.sample_sweeps, seed=args.seed)
    if np.ptp(trace.free_energy):
        report["free_energy_iact"] = integrated_autocorrelation_time(trace.free_energy)
    else:
        report["free_energy_iact"] = None
        report["free_energy_note"] = (f"free energy constant over {args.sample_sweeps} "
                                      "sweeps; autocorrelation undefined")
    fe_path = outdir / "free_energy.csv"
    _write_csv(fe_path, ["sweep", "free_energy"],
               [[t, float(f)] for t, f in enumerate(trace.free_energy)])
    outputs.append(fe_path)

    report_path = outdir / "diagnose.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    outputs.append(report_path)
    _write_manifest("diagnose", argv, outputs, outdir)
    for key in ("delta_exact", "delta_bound", "free_energy_iact", "free_energy_note",
                "tv_after_steps", "note"):
        if key in report:
            print(f"{key}: {report[key]}")
    return 0


def cmd_inspect(args, argv) -> int:
    model = load_model(args.model)
    rbm, constants = model_parts(model)
    w = rbm.weights
    print(f"visible: {rbm.n_visible}  hidden: {rbm.n_hidden}  "
          f"parameters: {w.size + rbm.n_visible + rbm.n_hidden}")
    if rbm.n_hidden:
        print(f"weights: |w| mean {np.abs(w).mean():.4f} max {np.abs(w).max():.4f} "
              f"zero fraction {float(np.mean(np.abs(w) < 1e-12)):.3f}")
        print(f"hidden bias: min {rbm.hidden_bias.min():.4f} max {rbm.hidden_bias.max():.4f}")
    else:
        print("weights: none\nhidden bias: none")
    print(f"visible bias: min {rbm.visible_bias.min():.4f} max {rbm.visible_bias.max():.4f}")
    exported = public_terminals(model)
    print(f"exported terminals ({len(exported)}): {' '.join(exported)}")
    if constants:
        consts = ", ".join(f"{k}={v}" for k, v in sorted(constants.items()))
        print(f"constants: {consts}")
    if args.weights_csv:
        path = _out_path(args.weights_csv)
        _write_csv(path, ["visible", "hidden", "weight"],
                   [[rbm.visible_names[i], j, float(w[i, j])]
                    for i in range(rbm.n_visible) for j in range(rbm.n_hidden)])
        print(f"wrote {path}")
    return 0


def cmd_replay(args, argv) -> int:
    path = Path(args.manifest)
    replayed = _json_object(path, "a manifest").get("argv")
    if not (isinstance(replayed, list) and replayed
            and all(isinstance(a, str) for a in replayed)) or replayed[0] == "replay":
        raise ValueError(f"{path}: argv must be a list of strings that runs a command "
                         f"other than replay, got {replayed!r}")
    try:
        _build_parser(_RaisingParser).parse_args(replayed)
    except ValueError as exc:
        raise ValueError(f"{path}: argv {replayed!r} does not parse: {exc}") from None
    return main(replayed)


class _RaisingParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error raises instead of exiting
        raise ValueError(message)


def _build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The rbmlogic parser; its subcommand parsers are ``parser_class`` too."""
    parser = parser_class(
        prog="rbmlogic",
        description="Build, train, merge and sample RBM logic circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="synthesize a model from gates or a netlist")
    p.add_argument("spec", help="builtin name (xor, fa1, adder16, mult8) or netlist JSON")
    p.add_argument("-o", "--output", required=True, help="model JSON path")
    p.add_argument("--sharpness", type=float, default=DEFAULT_SHARPNESS)
    p.add_argument("--base", help="slice model for adder<n>/mult<n> generators")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("train", help="train a unit with staged CD-k")
    p.add_argument("task", help="adder<n> or mult<n>")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, help="dataset sample cap")
    p.add_argument("--config", help="TrainConfig overrides JSON")
    p.add_argument("--metrics", help="metrics CSV path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("solve", help="clamp a problem and sample the answer")
    p.add_argument("model")
    p.add_argument("--op", required=True, choices=OPERATIONS)
    p.add_argument("--clamp", action="append", metavar="NAME=INT")
    p.add_argument("--cout", choices=["free", "0", "1"], default=None)
    p.add_argument("--expected", type=int, default=None,
                   help="compare with the answer read as one integer (add: S + 2^n Cout)")
    p.add_argument("--chains", type=int, default=8)
    p.add_argument("--sweeps", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--hist", help="write decoded answer CSVs here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bench", help="success-vs-samples over random instances")
    p.add_argument("config", help="benchmark configuration JSON")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("diagnose", help="mixing diagnostics for small models")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--clamp", action="append", metavar="NAME=BIT")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--sample-sweeps", type=int, default=2000)
    p.add_argument("--max-joint", type=int, default=MAX_JOINT_UNITS,
                   help="skip the exact curves above this many free + hidden units")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("inspect", help="print model shape and weight stats")
    p.add_argument("model")
    p.add_argument("--weights-csv")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("replay", help="rerun a command from its manifest")
    p.add_argument("manifest")
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        threads = os.environ.get("RBMLOGIC_THREADS")
        if threads is not None and not _is_thread_count(threads):
            raise ValueError(f"RBMLOGIC_THREADS must be a positive integer, got {threads!r}")
        return args.fn(args, argv)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

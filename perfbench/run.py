"""Run one rbmlogic benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adder16-addsub --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  The last stdout line is the result, ``{"correct", "attempted",
"failed", "metrics"}``, with the end-to-end metrics under ``--trace 0`` and
the per-layer split under ``--trace 1`` (see BENCHMARK.json).  The line
before it is the full report: host and versions, thread settings, commit
and seed, every set-up time, every latency and the reference-loop time
measured just before it, the median ``op_p50_s``, ``op_tail_s`` with its
percentile and sample count, ``chain_sweeps_per_s`` (all chain-sweeps over
all timed wall time), ``fail_frac``, and a ``deterministic`` section -- a
fingerprint of the first operations' (task, mode, count, total) or trained
parameters, with ``mode_freq_p50`` and ``solved_frac`` or
``train_best_acc_p50`` -- that repeats exactly for a seed.  Reports and traced spans are also
written to ``.bench_build/perfbench/``.  Exits 0 when every output was
correct, 1 when the oracle rejected one, and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rbmlogic" / "__init__.py").is_file():
        print(f"error: no rbmlogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # pins BLAS threads before numpy loads

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out))
    try:
        result, report, tracer = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(stem.with_name(stem.name + "-spans.json"))
    report["result"] = result
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

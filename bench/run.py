"""Benchmark of the secnn classifier: one seeded workload per process.

    python3 bench/run.py --workload desk_mr --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # each in a fresh process

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from spans recorded around calls into the program.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus_se", "desk_mr", "static_relu")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1, help="BLAS threads, at most nproc")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        parser.error("--seed must be >= 0, --seconds and --blas-threads positive")
    return args


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _os_threads() -> str:
    try:
        return str(len(os.listdir("/proc/self/task")))
    except OSError:
        return "unknown"


def import_program():
    """Import secnn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import secnn  # noqa: F401  (fails when src/ is missing)

    if not Path(secnn.__file__).resolve().is_relative_to(src):
        raise ImportError(f"secnn was imported from {secnn.__file__}, not from {src}")
    return secnn


def _table(rows: list[tuple[str, dict]]) -> str:
    """End-to-end metrics, one row per workload, labelled with their units."""
    first = rows[0][1]
    labels = ["workload"] + [f"{k} [{m['unit']}]" for k, m in first["metrics"].items()]
    labels += ["attempted", "failed", "correct"]
    lines = [" ".join(f"{label:>{max(len(label), 12)}}" for label in labels)]
    for name, result in rows:
        cells = [name] + [f"{m['value']:.6g}" for m in result["metrics"].values()]
        cells += [result["attempted"], result["failed"], result["correct"]]
        lines.append(" ".join(f"{str(c):>{max(len(label), 12)}}" for c, label in zip(cells, labels)))
    return "\n".join(lines)


def run_all(args) -> int:
    """Each workload in a fresh process, one table row each."""
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--blas-threads", str(args.blas_threads)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if line.startswith("#")))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    if args.trace:
        for name, result in rows:
            print(f"\n{name}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<30} {m['value']:>12.6g} {m['unit']}")
    else:
        print(_table(rows))
    return 0 if all(r["correct"] and r["failed"] == 0 for _, r in rows) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    threads = min(args.blas_threads, _nproc())
    for var in BLAS_THREAD_VARS:  # read once, when numpy loads its BLAS
        os.environ[var] = str(threads)
    try:
        secnn = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import numpy as np

    from harness import END_TO_END, PER_LAYER, Run, fast_end
    from workloads import WORKLOADS

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        try:
            run.measure()
        except Exception:  # count the failed operation, then report
            run.failed += 1
            traceback.print_exc()
        units = PER_LAYER if args.trace else END_TO_END
        values = run.per_layer() if args.trace and run.failed == 0 else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"blas_threads={threads} os_threads={_os_threads()} nproc={_nproc()} "
          f"numpy={np.__version__} secnn={secnn.__version__}")
    for key, note in run.notes.items():
        print(f"# {key}={note}")
    for name, status in run.checks.items():
        print(f"# check {name}: {status}")
    if args.trace:
        e2e = run.end_to_end()
        untraced = fast_end(run.samples["untraced_ex_per_s"], higher_is_better=True)
        if untraced:
            ratio = untraced / e2e["train_ex_per_s"] - 1.0
            print(f"# tracing overhead on train_ex_per_s: {100 * ratio:+.1f}% "
                  f"(untraced {untraced:.1f}, traced {e2e['train_ex_per_s']:.1f} ex/s)")
        del e2e["peak_mem_mib"]  # measured only untraced
        print("# traced end-to-end: " + " ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
    elif run.samples["predict_ms"]:
        calls = run.samples["predict_ms"]
        line = f"# predict_ms p10={fast_end(calls):.4f} median={np.median(calls):.4f}"
        if len(calls) >= 40:
            # the highest percentile with at least ten samples above it
            pct = 100 * (1 - 10 / len(calls))
            pct = max(p for p in (50, 75, 90, 95, 99, 99.9) if p <= pct)
            line += f" p{pct:g}={np.percentile(calls, pct):.4f}"
        print(f"{line} over n={len(calls)} calls")
    # Checks speak of the operations that completed; failures are counted apart.
    correct = all(s.startswith("ok") for s in run.checks.values())
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    if not args.trace:
        print(_table([(args.workload, result)]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

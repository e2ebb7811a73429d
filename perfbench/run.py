"""linrep benchmark: one workload per call, end to end or traced per layer.

    python3 perfbench/run.py --workload classify-slow --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds ``src/linrep``.  The command
writes the workload's definition files under ``.perfbench_out/``, times the
set-up (a fresh interpreter importing linrep, numpy and scipy) five times,
then starts one worker process that runs whole rounds of the workload's op
list until ``--seconds`` have passed, scaling every op time to a fixed
machine speed (``worker.py``).  Every output is then checked against
an independent computation (``checks.py``).  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per numeric library, here and in every child: the machine has two cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import checks  # noqa: E402  (numpy must see the thread settings)
import workloads  # noqa: E402
from tracing import TRACED  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # the whole command must end well within 180 s
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # a fixed hash seed keeps set and dict layouts the same from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _setup_time(env: dict[str, str]) -> float:
    """Seconds from process start until linrep, numpy and scipy are imported."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--probe"],
        stdout=subprocess.PIPE, cwd=ROOT, env=env,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed to import linrep")
    return elapsed


def _catalog(env: dict[str, str], directory: Path) -> dict[str, dict]:
    """Catalog definitions as `linrep catalog --export` writes them."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); from linrep.cli import main; "
         "sys.exit(main(['catalog', '--export', sys.argv[1]]))", str(directory)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    return {p.stem: json.loads(p.read_text()) for p in directory.glob("*.json")}


def end_to_end(ops: list[dict], result: dict, setup: list[float]) -> dict:
    per_op = sorted(statistics.median(result["records"][op["id"]]["times"]) for op in ops)
    n = len(per_op)
    tail = per_op[n - 1 - TAIL_BEYOND] if n >= TAIL_MIN_OPS else per_op[-1]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": sum(per_op), "unit": "s"},
        "op_p50_s": {"value": statistics.median(per_op), "unit": "s"},
        "op_tail_s": {"value": tail, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
    }


PER_LAYER_COUNTS = [
    "words.factor_language.words",
    "words.factor_language.rounds",
    "words.factor_language.calls",
    "words.factor_language.unsaturated",
    "spectral.band_spectrum.calls",
    "spectral.band_spectrum.bands",
    "spectral.band_spectrum.period_letters",
    "recognizer.enumerate_one_partitions.partitions",
    "recognizer.uniqueness_scan.positions",
]


def per_layer(ops: list[dict], result: dict) -> dict:
    """Per-round means: the self times plus cli.self_s add up to trace.wall_s."""
    rounds = result["rounds"]
    layers = result["layers"]
    metrics = {}
    for name in TRACED + ["cli"]:
        metrics[f"{name}.self_s"] = {"value": layers["self_s"].get(name, 0.0) / rounds, "unit": "s"}
    for name in PER_LAYER_COUNTS:
        metrics[name] = {"value": layers["counts"].get(name, 0) / rounds, "unit": "count"}
    traced, untraced = (
        sum(sum(result["records"][op["id"]][kind]) for op in ops) / rounds
        for kind in ("traced", "times")
    )
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "linrep" / "__init__.py").is_file():
        print(f"error: no linrep source at {ROOT / 'src' / 'linrep'}", file=sys.stderr)
        return 2
    env = _child_env()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "catalog").mkdir(parents=True)

    ops = workloads.build(args.workload, work, _catalog(env, work / "catalog"))
    (work / "ops.json").write_text(json.dumps(ops, indent=1))
    setup = [_setup_time(env) for _ in range(SETUP_PROBES)]

    out = work / "result.json"
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--ops", str(work / "ops.json"),
         "--out", str(out), "--seconds", str(args.seconds), "--seed", str(args.seed),
         "--trace", str(args.trace)],
        cwd=ROOT, env=env, check=True, timeout=budget,
    )
    result = json.loads(out.read_text())

    rounds = result["rounds"]
    failed = 0
    correct = True
    for op in ops:
        same = result["records"][op["id"]]["same"]
        reason = checks.check(op, result["first"][op["id"]])
        if reason is not None:
            failed += rounds
        elif not all(same):
            reason = "output changed between executions"
            failed += same.count(False)
        else:
            continue
        correct = correct and op["known_fault"]
        known = " (known fault)" if op["known_fault"] else ""
        print(f"failed: {op['id']}{known}: {reason}", file=sys.stderr)

    metrics = per_layer(ops, result) if args.trace else end_to_end(ops, result, setup)
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload's measuring process: imports linrep, runs rounds of the op list.

Run by ``run.py``; not meant to be started by hand.  With ``--probe`` it only
imports linrep (and with it numpy and scipy), prints ``ready`` and exits:
``run.py`` times that as the set-up time.  Otherwise it runs whole rounds of
the op list until ``--seconds`` have passed, timing and scaling each op, and
writes the times and outputs to ``--out``.  The first output of each op is kept for the
checker; every later execution must reproduce it byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# An op whose first scaled execution in a round is shorter than this runs
# SHORT_EXECUTIONS (odd) times in the round; its time is the median.
SHORT_S = 0.1
SHORT_EXECUTIONS = 5

# On a shared machine the speed of the processor drifts by up to 2x, in
# phases from a fraction of a second to minutes, while process CPU time
# keeps pace with wall time.  So every execution is scaled to a fixed
# machine speed: a small kernel is timed PROBE_SAMPLES times before and after
# the execution and, from a SIGALRM handler, every PROBE_PERIOD_S during it;
# the execution's time (less the handler's) is multiplied by KERNEL_REF_S
# over the mean kernel time.
PROBE_SAMPLES = 3
PROBE_PERIOD_S = 0.02
KERNEL_REF_S = 0.00045


def _thue_morse(n: int) -> str:
    return "".join("ab"[bin(i).count("1") % 2] for i in range(n))


KERNEL_WORD = _thue_morse(300)


def kernel_s() -> float:
    """Time of a fixed pure-Python kernel: the factors of length 1-8 of a word."""
    t0 = time.perf_counter()
    w = KERNEL_WORD
    seen = set()
    for n in range(1, 9):
        for i in range(len(w) - n + 1):
            seen.add(w[i : i + n])
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel times taken around and during one execution.

    A tracer's open span does not count the handler's time (`Tracer.exclude`),
    so traced self times add up to the execution's time less the handler's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.tracer = None
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        spent = time.perf_counter() - t0
        self.spent += spent
        if self.tracer is not None:
            self.tracer.exclude(spent)

    def begin(self, tracer=None) -> None:
        self.samples = [kernel_s() for _ in range(PROBE_SAMPLES)]
        self.spent = 0.0
        self.tracer = tracer
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def end(self) -> tuple[float, float]:
        """Stop sampling; returns the handler's time and the factor to scale by."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        spent = self.spent
        self.samples += [kernel_s() for _ in range(PROBE_SAMPLES)]
        return spent, KERNEL_REF_S / statistics.fmean(self.samples)


def import_linrep():
    sys.path.insert(0, str(ROOT / "src"))
    import linrep
    import linrep.cli  # noqa: F401

    origin = Path(linrep.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"linrep imported from {origin}, not from this checkout")
    return linrep


def _read(path: str | None) -> str | None:
    if path is None:
        return None
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _load_system(linrep, definition: str):
    s = linrep.validate(json.loads(Path(definition).read_text())).substitution
    return s, linrep.classify(s)


def _gordon(linrep, definition: str) -> dict:
    s, report = _load_system(linrep, definition)
    g = linrep.gordon_check(s, report)
    if isinstance(g, linrep.GordonHypothesisMissing):
        return {"missing": True, "searched_depth": g.searched_depth}
    return {
        "missing": False,
        "u": g.u,
        "e": g.e,
        "levels": list(g.levels),
        "n_k": list(g.n_k),
        "freq_lower_bound": g.freq_lower_bound,
        "empirical_frequency": {str(k): v for k, v in g.empirical_frequency.items()},
        "bound_satisfied": g.bound_satisfied,
        "sample_length": g.sample_length,
        "sample_letter": report.certificate.letter,
    }


def _uniqueness(linrep, definition: str) -> dict:
    s, report = _load_system(linrep, definition)
    scan = linrep.uniqueness_scan(s, report, report.factors)
    return {
        "ok": scan.ok,
        "half_width": scan.half_width,
        "positions_checked": scan.positions_checked,
        "sample_length": scan.sample_length,
        "max_word_length": scan.max_word_length,
        "lr_value": report.lr.value,
    }


def _execute(linrep, op: dict, library: dict, probe: SpeedProbe, tracer=None):
    """Run one op once, traced if a tracer is given.

    Returns its scaled time, everything it printed or wrote, and the traced
    execution's scaled layer self times and its counts.
    """
    out, err = io.StringIO(), io.StringIO()
    code, error, value = None, None, None
    gc.collect()
    if tracer is not None:
        tracer.begin_op()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        probe.begin(tracer)
        t0 = time.perf_counter()
        try:
            if op["kind"] == "cli":
                code = linrep.cli.main(list(op["argv"]))
            else:
                value = library[op["kind"]](linrep, op["definition"])
        except Exception as exc:  # an op that raises counts as failed
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        elapsed = time.perf_counter() - t0
        spent, scale = probe.end()
    layers = tracer.end_op(elapsed, scale) if tracer is not None else None
    return (elapsed - spent) * scale, {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "file": _read(op.get("out")),
        "value": value,
        "error": error,
    }, layers


def run_rounds(linrep, ops: list[dict], seconds: float, seed: int, tracer=None) -> dict:
    """Whole rounds over the op list until `seconds` have passed.

    Each round runs every op once, in an order drawn from the seed, and then
    re-runs the short ones, one re-run after each later op of the round and
    the rest at its end, so that an op's executions spread over the round.
    An op's time in a round is the median of its scaled executions.  With a
    tracer, every execution is an untraced run and a traced one, and the
    traced median execution also gives the op's layer figures, so those add
    up to the traced op times.
    """
    library = {"gordon": _gordon, "uniqueness": _uniqueness}
    records = {op["id"]: {"times": [], "traced": [], "same": []} for op in ops}
    layers = {"self_s": defaultdict(float), "counts": defaultdict(int)}
    first: dict[str, dict] = {}
    probe = SpeedProbe()
    turns = itertools.count()
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        times: dict[str, list[float]] = defaultdict(list)
        traced: dict[str, list[tuple[float, dict]]] = defaultdict(list)
        same: dict[str, bool] = {}
        pending: list[dict] = []

        def execute(op: dict) -> None:
            key = op["id"]
            runs = [None]
            if tracer is not None:
                # the two runs swap places on every other execution, so that
                # first-use costs fall on both sides alike
                runs = [None, tracer] if next(turns) % 2 == 0 else [tracer, None]
            for t in runs:
                elapsed, output, figures = _execute(linrep, op, library, probe, t)
                same[key] = same.get(key, True) and output == first.setdefault(key, output)
                if t is not None:
                    traced[key].append((elapsed, figures))
                    continue
                if not times[key] and elapsed < SHORT_S:
                    pending.extend([op] * (SHORT_EXECUTIONS - 1))
                times[key].append(elapsed)

        order = list(ops)
        random.Random(seed * 1009 + rounds).shuffle(order)
        for op in order:
            execute(op)
            if pending:
                execute(pending.pop(0))
        while pending:
            execute(pending.pop(0))
        for op in ops:
            key = op["id"]
            records[key]["same"].append(same[key])
            records[key]["times"].append(statistics.median(times[key]))
            if tracer is not None:
                # an odd number of executions: the median is one of them
                elapsed, figures = sorted(traced[key], key=lambda e: e[0])[len(traced[key]) // 2]
                records[key]["traced"].append(elapsed)
                for kind in ("self_s", "counts"):
                    for name, v in figures[kind].items():
                        layers[kind][name] += v
        rounds += 1
    return {"rounds": rounds, "records": records, "first": first, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--ops")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    linrep = import_linrep()
    if args.probe:
        print("ready", flush=True)
        return 0
    # the imported modules are never freed: keep them out of every collection
    gc.freeze()

    ops = json.loads(Path(args.ops).read_text())
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result = run_rounds(linrep, ops, args.seconds, args.seed, tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

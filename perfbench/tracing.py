"""Per-layer spans recorded from outside the program.

`Tracer.begin_op()` replaces each traced linrep function by a wrapper on every
module attribute that holds it (``linrep.cli.classify`` as well as
``linrep.classify.classify``), so calls are caught however they are reached.
A layer's self time is its span minus the spans of traced calls inside it;
the op's time outside every traced call is ``cli.self_s``.  Counts are read
from return values.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# "<module>.<function>": the layers named in the per-layer metric table
TRACED = [
    "words.factor_language",
    "words.gap_bound",
    "words.return_words",
    "substitution.perron_growth",
    "substitution.check_compatibility",
    "classify.analyze_bounded_blocks",
    "classify.bounded_gaps",
    "classify.lr_constant_bound",
    "classify.is_periodic",
    "classify.classify",
    "spectral.band_spectrum",
    "spectral.gordon_check",
    "recognizer.recognition_rule",
    "recognizer.enumerate_one_partitions",
    "recognizer.uniqueness_scan",
    "numtheory.transcendence_report",
]


def _factor_counts(fs) -> dict[str, int]:
    return {"words": len(fs.words), "rounds": fs.rounds, "unsaturated": int(not fs.saturated)}


def _band_counts(spec) -> dict[str, int]:
    return {"bands": spec.band_count, "period_letters": len(spec.period_word)}


COUNTERS = {
    "words.factor_language": _factor_counts,
    "spectral.band_spectrum": _band_counts,
    "recognizer.enumerate_one_partitions": lambda parts: {"partitions": len(parts)},
    "recognizer.uniqueness_scan": lambda scan: {"positions": scan.positions_checked},
}


class Tracer:
    """Wrappers that can be switched on and off between executions.

    `begin_op()` installs the wrappers and `end_op()` removes them again, so
    the same process runs an op traced and untraced.  Each traced execution
    gets its own self times and counts, which `end_op()` returns.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for qual in TRACED:
            module, func = qual.split(".")
            fn = getattr(sys.modules[f"linrep.{module}"], func)
            wrapped = self._wrap(qual, fn)
            # every linrep module attribute that holds the function
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "linrep" or mod_name.startswith("linrep."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn, wrapped))

    def _wrap(self, name: str, fn):
        stack = self._stack
        counter = COUNTERS.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            t0 = perf()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf() - t0
                self.self_s[name] += span - stack.pop()
                stack[-1] += span
            self.counts[name + ".calls"] += 1
            if counter is not None:
                for key, n in counter(result).items():
                    self.counts[f"{name}.{key}"] += n
            return result

        return traced

    def begin_op(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack[:] = [0.0]
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def exclude(self, seconds: float) -> None:
        """Leave `seconds` spent inside the open span out of its self time."""
        self._stack[-1] += seconds

    def end_op(self, elapsed: float, scale: float) -> dict:
        """Remove the wrappers; returns the execution's scaled self times and counts.

        The part of `elapsed` outside every traced call is charged to
        ``cli``, so the self times add up to `elapsed`, less the time left
        out by `exclude`, times `scale`.
        """
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)
        self.self_s["cli"] += elapsed - self._stack[0]
        return {
            "self_s": {name: v * scale for name, v in self.self_s.items()},
            "counts": dict(self.counts),
        }

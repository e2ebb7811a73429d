"""The four workloads: fixed op lists and the definition files they read.

Each op is a dict that the worker runs and the checker verifies:

* ``{"kind": "cli", "argv": [...], "out": path}`` runs ``linrep.cli.main(argv)``
  with the arguments a user would type; ``out`` is the file the command
  writes (``--json`` or ``--csv``).
* ``{"kind": "gordon" | "uniqueness", "definition": path}`` calls
  ``linrep.gordon_check`` or ``linrep.uniqueness_scan`` after ``linrep.classify``;
  neither has a command.

``check`` names the independent check in ``checks.py`` and carries what it
needs.  ``known_fault`` marks an op that fails on every run because of a fault
in the program (the band-spectrum grid fault); such ops are counted as failed
and do not make the run incorrect.

The op lists and their definition files are fixed; ``--seed`` sets only the
order in which each round visits the ops.  The random systems of
``classify-sweep`` are drawn once from ``SWEEP_SEED``: drawn afresh per seed,
100 such systems cost 23.5 s, 27.0 s and 35.2 s for three seeds, a spread no
bound of at most 25% can hold.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from checks import is_primitive

SWEEP_SEED = 31337
SWEEP_COUNT = 100

# iterates grow fast while new factors arrive slowly: the factor-language
# closure is nearly all of each op
SLOW_SYSTEMS = [
    {"0": "01001", "1": "1"},
    {"a": "baa", "b": "b"},
    {"a": "a", "b": "abbb"},
    {"a": "abc", "b": "bc", "c": "c"},
    {"a": "a", "b": "abba"},
    {"a": "abab", "b": "b"},
]

CATALOG_NAMES = [
    "fibonacci",
    "free",
    "minimal-nonprimitive",
    "minimal-nonprimitive-noaa",
    "period-doubling",
    "periodic-ab",
    "remark1b",
    "remarkc",
    "stutter-doubled",
    "stutter-separated",
    "thue-morse",
]

# certified minimal with an explicit repetitivity constant: gordon_check applies
GORDON_NAMES = [
    "fibonacci",
    "free",
    "minimal-nonprimitive",
    "minimal-nonprimitive-noaa",
    "period-doubling",
    "periodic-ab",
    "stutter-doubled",
    "stutter-separated",
    "thue-morse",
]

# (system, certificate letter, levels, first level lost to the grid fault)
SPECTRUM_LADDER = [
    ("fibonacci", "a", range(1, 12), 11),
    ("thue-morse", "a", range(1, 8), 7),
    ("period-doubling", "a", range(1, 6), 5),
    ("minimal-nonprimitive", "a", range(1, 4), 3),
    ("stutter-separated", "0", range(1, 5), 4),
    ("free", "a", [3], None),
]

PARTITION_SYSTEMS = ["minimal-nonprimitive", "stutter-separated"]
PARTITION_PREFIXES = [200, 300, 500, 700, 1000, 1300, 1600, 2000, 2500]
TRANSCENDENCE_SYSTEMS = ["stutter-separated", "stutter-doubled"]
TRANSCENDENCE_BITS = [160, 500, 1000, 2000, 4000, 7000, 10000, 14000]

# potential values of the generated definitions, by letter position
VALUES = [1.0, -1.0, 0.0]

WORKLOADS = ["classify-slow", "classify-sweep", "spectrum-ladder", "applications"]


def sweep_systems() -> list[dict[str, str]]:
    """The fixed random sample: primitive, 2 or 3 letters, rule lengths 1-5."""
    rng = random.Random(SWEEP_SEED)
    seen = set()
    out = []
    while len(out) < SWEEP_COUNT:
        letters = "abc"[: rng.choice([2, 3])]
        rules = {a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 5))) for a in letters}
        key = tuple(sorted(rules.items()))
        if key in seen or not is_primitive(rules, list(letters)):
            continue
        seen.add(key)
        out.append(rules)
    return out


def _definition(name: str, rules: dict[str, str]) -> dict:
    return {
        "name": name,
        "alphabet": [{"symbol": a, "value": v} for a, v in zip(sorted(rules), VALUES)],
        "rules": rules,
    }


def _write(path: Path, definition: dict) -> str:
    path.write_text(json.dumps(definition, indent=2, sort_keys=True) + "\n")
    return str(path)


def _analyze_op(op_id: str, definition: str, out_dir: Path, primitive: bool) -> dict:
    out = str(out_dir / f"{op_id}.json")
    return {
        "id": op_id,
        "kind": "cli",
        "argv": ["analyze", definition, "--json", out],
        "out": out,
        "check": {"type": "analyze", "definition": definition, "primitive_input": primitive},
    }


def build(workload: str, work: Path, catalog: dict[str, dict]) -> list[dict]:
    """Write the workload's definition files under `work` and return its op list.

    `catalog` maps catalog names to their definitions (as `linrep catalog
    --export` writes them).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})")
    defs = work / "defs"
    outs = work / "outputs"
    defs.mkdir(parents=True, exist_ok=True)
    outs.mkdir(parents=True, exist_ok=True)
    cat = {name: _write(defs / f"{name}.json", catalog[name]) for name in CATALOG_NAMES}
    ops: list[dict] = []

    if workload == "classify-slow":
        for i, rules in enumerate(SLOW_SYSTEMS):
            path = _write(defs / f"slow-{i}.json", _definition(f"slow-{i}", rules))
            ops.append(_analyze_op(f"analyze-slow-{i}", path, outs, False))

    elif workload == "classify-sweep":
        for name in CATALOG_NAMES:
            ops.append(_analyze_op(f"analyze-{name}", cat[name], outs, False))
        for i, rules in enumerate(sweep_systems()):
            path = _write(defs / f"sweep-{i:03d}.json", _definition(f"sweep-{i:03d}", rules))
            ops.append(_analyze_op(f"analyze-sweep-{i:03d}", path, outs, True))

    elif workload == "spectrum-ladder":
        for name, letter, levels, fault_from in SPECTRUM_LADDER:
            for k in levels:
                op_id = f"spectrum-{name}-{k}"
                out = str(outs / f"{op_id}.csv")
                ops.append({
                    "id": op_id,
                    "kind": "cli",
                    "argv": ["spectrum", cat[name], "--level", str(k), "--csv", out],
                    "out": out,
                    "check": {"type": "spectrum", "definition": cat[name], "letter": letter, "level": k},
                    "known_fault": fault_from is not None and k >= fault_from,
                })

    else:  # applications
        for name in PARTITION_SYSTEMS:
            for n in PARTITION_PREFIXES:
                op_id = f"partition-{name}-{n}"
                out = str(outs / f"{op_id}.json")
                ops.append({
                    "id": op_id,
                    "kind": "cli",
                    "argv": ["partition", cat[name], "--prefix", str(n), "--json", out],
                    "out": out,
                    "check": {"type": "partition", "definition": cat[name], "prefix": n},
                })
        for name in TRANSCENDENCE_SYSTEMS:
            for bits in TRANSCENDENCE_BITS:
                op_id = f"transcendence-{name}-{bits}"
                out = str(outs / f"{op_id}.json")
                ops.append({
                    "id": op_id,
                    "kind": "cli",
                    "argv": ["transcendence", cat[name], "--bits", str(bits), "--json", out],
                    "out": out,
                    "check": {"type": "transcendence", "definition": cat[name], "bits": bits},
                })
        for name in GORDON_NAMES:
            ops.append({
                "id": f"gordon-{name}",
                "kind": "gordon",
                "definition": cat[name],
                "check": {"type": "gordon", "definition": cat[name]},
            })
        for name in PARTITION_SYSTEMS:
            ops.append({
                "id": f"uniqueness-{name}",
                "kind": "uniqueness",
                "definition": cat[name],
                "check": {"type": "uniqueness", "definition": cat[name]},
            })
    for op in ops:
        op.setdefault("known_fault", False)
    return ops

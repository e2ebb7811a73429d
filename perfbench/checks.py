"""Independent checks of every op's output.

Nothing here calls linrep.  The references are built from the definition
files by plain string rewriting (``str.translate`` with the rules), window
scans over directly iterated samples, dense numpy eigenvalues and exact
integers.  Each check returns None when the output is right and otherwise a
one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np

SAMPLE = 20000           # letters in a directly iterated sample
COMPLEXITY_SAMPLE = 8000 # letters whose interior windows are counted for p(n)
MARGIN = 64              # interior windows keep this many letters on each side
MAX_DEPTH = 2000         # iteration cap for letters whose images grow slowly
EDGE_TOL = 1e-7          # band edges: CSV against the Floquet reference
MEASURE_TOL = 1e-6       # total band measure against the reference
CLOSED_GAP_TOL = 1e-9    # reference gaps narrower than this are closed (bands merged)
GORDON_TOL = 1e-3        # the slack gordon_check allows below its bound
SPECTRUM_LINE = re.compile(
    r"level (\d+): period \|([^|.]*)(?:\.\.\.)?\| = (\d+), (\d+) bands, total measure (\S+)"
)


class Definition:
    def __init__(self, path: str):
        data = json.loads(Path(path).read_text())
        self.rules: dict[str, str] = dict(data["rules"])
        entries = data.get("alphabet") or [{"symbol": a, "value": i} for i, a in enumerate(sorted(self.rules))]
        coupling = float(data.get("potential_coupling", 1.0))
        self.letters = [e["symbol"] for e in entries]
        self.values = {e["symbol"]: coupling * float(e["value"]) for e in entries}


def _table(rules: dict[str, str]) -> dict[int, str]:
    return {ord(a): w for a, w in rules.items()}


def iterate(rules: dict[str, str], word: str, n: int) -> str:
    table = _table(rules)
    for _ in range(n):
        word = word.translate(table)
    return word


def grown(rules: dict[str, str], letter: str, length: int) -> str:
    """Prefix of length `length` of S^m(letter), m the first depth long enough.

    Stops at MAX_DEPTH when the images grow too slowly.
    """
    table = _table(rules)
    w = letter
    for _ in range(MAX_DEPTH):
        if len(w) >= length:
            break
        w = w[:length].translate(table)
    return w[:length]


def lengths(rules: dict[str, str], word: str, depth: int) -> list[int]:
    """|S^n(word)| for n = 1..depth by exact letter counts."""
    counts = {a: word.count(a) for a in rules}
    out = []
    for _ in range(depth):
        nxt = dict.fromkeys(rules, 0)
        for a, c in counts.items():
            if c:
                for b in rules[a]:
                    nxt[b] += c
        counts = nxt
        out.append(sum(counts.values()))
    return out


def growing_letters(rules: dict[str, str]) -> set[str]:
    return {a for a in rules if lengths(rules, a, 64)[-1] > lengths(rules, a, 32)[-1]}


def is_primitive(rules: dict[str, str], letters: list[str]) -> bool:
    n = len(letters)
    m = [[rules[a].count(b) for b in letters] for a in letters]
    power = m
    for _ in range((n - 1) ** 2 + 1):
        if all(x > 0 for row in power for x in row):
            return True
        power = [[sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return False


def longest_run_without(text: str, letter: str) -> int:
    return max(map(len, text.split(letter)))


def repetitivity_on_sample(sample: str, n: int) -> int:
    """Smallest L such that every length-L window of the sample holds every length-n factor of it."""
    arr = np.frombuffer(sample.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    size = len(arr)
    codes = np.zeros(size - n + 1, dtype=np.int64)
    for i in range(n):
        codes = codes * (1 << 21) + arr[i : size - n + 1 + i]
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    ends = np.r_[starts[1:], len(order)]
    need = 0
    for s, e in zip(starts, ends):
        pos = order[s:e]
        gap = int(np.max(np.diff(pos))) + n - 1 if e - s > 1 else 0
        need = max(need, int(pos[0]) + n, gap, size - int(pos[-1]))
    return need


def interior_complexity(sample: str, n_max: int) -> list[int]:
    """p(n), n = 1..n_max, over the windows keeping MARGIN letters on both sides."""
    arr = np.frombuffer(sample.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    size = len(arr)
    h = np.zeros(size, dtype=np.uint64)
    out = []
    for n in range(1, n_max + 1):
        h[: size - n + 1] = h[: size - n + 1] * np.uint64(1000003) + arr[n - 1 :]
        lo, hi = MARGIN, size - MARGIN - n + 1
        out.append(len(np.unique(h[lo:hi])) if hi > lo else 0)
    return out


# ---------------------------------------------------------------------------
# analyze


def check_analyze(spec: dict, out: dict) -> str | None:
    if out["code"] not in (0, 3):
        return f"exit code {out['code']}"
    rep = json.loads(out["file"])
    d = Definition(spec["definition"])
    letters, rules = rep["letters"], rep["rules"]
    if not set(letters) <= set(d.letters) or any(rules[a] != d.rules[a] for a in letters):
        return "report rules differ from the definition"
    growing = growing_letters(rules)
    if sorted(growing) != rep["growing_letters"]:
        return f"growing letters {rep['growing_letters']} != {sorted(growing)}"
    primitive = is_primitive(rules, letters)
    if rep["primitive"]["primitive"] != primitive:
        return f"primitive flag {rep['primitive']['primitive']} != {primitive}"
    status = rep["minimal"]["status"]
    if (primitive or spec["primitive_input"]) and status != "yes":
        return f"primitive input classified {status!r}"

    if status == "yes":
        cert = rep["minimal"]["certificate"]
        e, kappa = cert["letter"], cert["kappa"]
        for c in sorted(growing):
            sample = grown(rules, c, SAMPLE)
            if len(sample) >= kappa and longest_run_without(sample, e) >= kappa:
                return f"a {kappa}-window of the {c!r} sample avoids {e!r}"
        if "lr_bound" in rep:
            constant = rep["lr_bound"]["value"]
            sample = grown(rules, e, SAMPLE)
            for n in (1, 2, 3):
                r = repetitivity_on_sample(sample, n)
                if r > constant * n:
                    return f"R({n}) = {r} > C*n with C = {constant}"
    elif status == "no":
        ce = rep["minimal"]["counterexample"]
        e, factor = ce["letter"], ce["sample_factor"]
        if e in factor or len(factor) < 40:
            return f"sample factor {factor!r} does not avoid {e!r}"
        c, n = ce["sample_origin"]
        table = _table(rules)
        head, tail = c, c
        for _ in range(n):
            head = head[:SAMPLE].translate(table)[:SAMPLE]
            tail = tail[-SAMPLE:].translate(table)[-SAMPLE:]
        if factor not in head and factor not in tail:
            return f"sample factor not found in S^{n}({c!r})"
        words = {c: c for c in growing}
        runs = [max(longest_run_without(w, e) for w in words.values())]
        while len(runs) <= 200 and max(map(len, words.values())) <= 10**5:
            words = {c: iterate(rules, w, 1) for c, w in words.items()}
            runs.append(max(longest_run_without(w, e) for w in words.values()))
        depth = len(runs) - 1
        picked = [runs[depth // 4], runs[depth // 2], runs[depth]]
        if not picked[0] < picked[1] < picked[2]:
            return f"longest {e!r}-free windows at depths {depth // 4}, {depth // 2}, {depth}: {picked}"

    periodic = rep["periodic"]
    sample = grown(rules, rep["witness_pool"][0], COMPLEXITY_SAMPLE)
    if periodic["status"] == "periodic":
        p = periodic["period"]
        width = 2 * len(p) + 8
        tiles = p * (width // len(p) + 2)
        for i in range(MARGIN, len(sample) - MARGIN - width + 1):
            if sample[i : i + width] not in tiles:
                return f"period {p!r} does not tile the sample window at {i}"
    elif periodic["status"] == "aperiodic-up-to-depth":
        for n, p in enumerate(interior_complexity(sample, periodic["depth"]), start=1):
            if p < n + 1:
                return f"sample complexity p({n}) = {p} <= n for an aperiodic verdict"
    return None


# ---------------------------------------------------------------------------
# spectrum


def floquet_bands(word: str, values: dict[str, float]) -> list[tuple[float, float]]:
    """Bands of the period-|word| operator from periodic and antiperiodic eigenvalues."""
    v = np.array([values[c] for c in word], dtype=float)
    q = len(v)
    if q == 1:
        edges = np.array([v[0] - 2.0, v[0] + 2.0])
    else:
        mats = []
        for corner in (1.0, -1.0):
            h = np.diag(v)
            for i in range(q - 1):
                h[i, i + 1] = h[i + 1, i] = 1.0
            h[0, q - 1] += corner
            h[q - 1, 0] += corner
            mats.append(h)
        edges = np.sort(np.concatenate([np.linalg.eigvalsh(h) for h in mats]))
    bands: list[list[float]] = []
    for lo, hi in zip(edges[0::2], edges[1::2]):
        if bands and lo - bands[-1][1] <= CLOSED_GAP_TOL:
            bands[-1][1] = float(hi)
        else:
            bands.append([float(lo), float(hi)])
    return [(lo, hi) for lo, hi in bands]


def check_spectrum(spec: dict, out: dict) -> str | None:
    if out["code"] != 0:
        return f"exit code {out['code']}"
    d = Definition(spec["definition"])
    word = iterate(d.rules, spec["letter"], spec["level"])
    m = SPECTRUM_LINE.search(out["stdout"])
    if m is None:
        return "no level line on stdout"
    if int(m.group(1)) != spec["level"] or m.group(2) != word[:24] or int(m.group(3)) != len(word):
        return f"period word differs: {m.group(0)!r}"
    rows = list(csv.reader(io.StringIO(out["file"])))[1:]
    bands = [(float(r[2]), float(r[3])) for r in rows if int(r[0]) == spec["level"]]
    if int(m.group(4)) != len(bands):
        return "stdout band count differs from the CSV"
    ref = floquet_bands(word, d.values)
    if len(bands) != len(ref):
        return f"{len(bands)} bands, reference {len(ref)}"
    worst = max(max(abs(a - c), abs(b - e)) for (a, b), (c, e) in zip(bands, ref))
    if worst > EDGE_TOL:
        return f"band edge off by {worst:.3g}"
    measure = sum(b - a for a, b in bands)
    ref_measure = sum(b - a for a, b in ref)
    if abs(measure - ref_measure) > MEASURE_TOL or abs(float(m.group(5)) - measure) > MEASURE_TOL:
        return f"total measure {measure} against {ref_measure}"
    return None


# ---------------------------------------------------------------------------
# partition


def _shape(d: Definition) -> tuple[str, str]:
    """(growing letter a, fixed letter b) of a two-letter system with S(b) = b."""
    b = next(x for x in d.letters if d.rules[x] == x)
    a = next(x for x in d.letters if x != b)
    return a, b


def one_partitions(word: str, alpha: str, b: str) -> list[tuple[int, ...]]:
    """Cut tuples of every split z0 . blocks . z_end with blocks in {alpha, b},
    z0 a proper suffix and z_end a proper prefix of alpha."""
    n = len(word)
    found = []
    starts = [0] + [k for k in range(1, min(len(alpha), n + 1)) if alpha.endswith(word[:k])]
    for z0 in starts:
        stack = [(z0, (z0,))]
        while stack:
            i, cuts = stack.pop()
            if n - i < len(alpha) and alpha.startswith(word[i:]):
                found.append(cuts)
            if word.startswith(b, i):
                stack.append((i + 1, cuts + (i + 1,)))
            if word.startswith(alpha, i):
                stack.append((i + len(alpha), cuts + (i + len(alpha),)))
    found.sort(key=lambda cuts: (cuts[0], cuts))
    return found


def check_partition(spec: dict, out: dict) -> str | None:
    if out["code"] != 0:
        return f"exit code {out['code']}"
    rep = json.loads(out["file"])
    d = Definition(spec["definition"])
    a, b = _shape(d)
    alpha = d.rules[a]
    target = grown(d.rules, a, spec["prefix"])
    if rep["word_length"] != len(target):
        return f"word length {rep['word_length']} != {len(target)}"
    L = rep["half_width"]
    parts = one_partitions(target, alpha, b)
    if rep["partition_count"] != len(parts):
        return f"{rep['partition_count']} partitions, naive enumeration finds {len(parts)}"
    interiors = {tuple(c for c in cuts if L <= c <= len(target) - L) for cuts in parts}
    if len(interiors) != 1 or list(next(iter(interiors))) != rep["cut_positions"]:
        return "interior cuts differ from the naive enumeration"
    first = parts[0]
    blocks = [target[i:j] for i, j in zip(first, first[1:])][:50]
    if rep["blocks"] != [blocks] or any(x not in (alpha, b) for x in blocks):
        return "blocks do not read S(a) or b"
    m = re.search(r"preimage \(from offset (\d+)\): (\S*)", out["stdout"])
    if len(target) > 4 * L + 2:
        if m is None:
            return "no preimage on stdout"
        offset, preimage = int(m.group(1)), m.group(2)
        image = iterate(d.rules, preimage, 1)
        if not preimage or target[offset : offset + len(image)] != image or offset not in first:
            return "the preimage does not substitute back to the interior"
    return None


# ---------------------------------------------------------------------------
# transcendence


def check_transcendence(spec: dict, out: dict) -> str | None:
    if out["code"] != 0:
        return f"exit code {out['code']}"
    rep = json.loads(out["file"])
    d = Definition(spec["definition"])
    zero, one = _shape(d)
    case = rep["case"]
    if (case["growing_letter"], case["fixed_letter"]) != (zero, one):
        return "growing/fixed letters differ"
    bits, base = rep["value"]["bits"], rep["value"]["base"]
    need = math.ceil(bits * math.log(2) / math.log(base)) + 8
    if bits != spec["bits"] or rep["value"]["digits_used"] != need:
        return f"digits used {rep['value']['digits_used']} != {need}"
    u = grown(d.rules, zero, need)
    num = int("".join(str(int(d.values[ch])) for ch in u), base)
    mantissa = ((num << bits) + base ** need // 2) // base ** need
    places = max(1, math.ceil(bits * math.log10(2)))
    scaled = mantissa * 10**places >> bits
    if rep["value"]["decimal"] != f"0.{scaled:0{places}d}":
        return "expansion value differs from the exact evaluation"
    if case["tag"] == "separated-run":
        k = case["k"]
        pattern, v_word = zero + one * k + zero + one * k + zero, zero + one * k
    else:
        pattern, v_word = zero * 3, zero
    p = case["prefix"]
    fixed = grown(d.rules, zero, len(p) + len(pattern) + 1)
    if fixed.find(pattern) != len(p) or not fixed.startswith(p):
        return f"stutter prefix {p!r} is not where {pattern!r} first occurs"
    depth = rep["lengths"]["depth"]
    for key, word in (("u", p), ("v", v_word), ("v_prime", zero)):
        want = lengths(d.rules, word, depth)
        if rep["lengths"][key] != want:
            return f"length table {key} differs"
        direct = [len(iterate(d.rules, word, n)) for n in range(1, 9)]
        if want[:8] != direct:
            return f"count recursion disagrees with direct iteration for {key}"
    return None


# ---------------------------------------------------------------------------
# Gordon check and uniqueness scan


def cube_positions(sample: np.ndarray, n: int) -> int:
    """Positions i with sample[i : i + 3n] of period n, from runs of sample[j] == sample[j + n]."""
    eq = sample[: len(sample) - n] == sample[n:]
    padded = np.r_[False, eq, False].astype(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    runs = edges[1::2] - edges[0::2]
    return int(np.sum(np.maximum(runs - 2 * n + 1, 0)))


def check_gordon(spec: dict, out: dict) -> str | None:
    g = out["value"]
    d = Definition(spec["definition"])
    growing = growing_letters(d.rules)
    if g["missing"]:
        depth = g["searched_depth"]
        sample = grown(d.rules, min(growing), SAMPLE)
        codes = np.frombuffer(sample.encode("utf-32-le"), dtype=np.uint32)
        starts_growing = np.isin(codes, [ord(c) for c in growing])
        for n in range(1, (depth - 1) // 3 + 1):
            eq = np.r_[codes[: len(codes) - n] == codes[n:], False]
            run = np.convolve(eq.astype(np.int64), np.ones(2 * n + 1, dtype=np.int64), "valid")
            hits = np.flatnonzero(run == 2 * n + 1)
            if np.any(starts_growing[hits]):
                return f"a cube of period {n} starting with a growing letter is in the sample"
        return None
    u, e = g["u"], g["e"]
    sample_word = grown(d.rules, g["sample_letter"], g["sample_length"])
    if len(sample_word) != g["sample_length"] or u[0] != e or e not in growing:
        return "sample or witness malformed"
    if u * 3 + e not in sample_word:
        return f"{u!r}^3{e} does not occur in the sample"
    codes = np.frombuffer(sample_word.encode("utf-32-le"), dtype=np.uint32)
    for k, n in zip(g["levels"], g["n_k"]):
        if n != len(iterate(d.rules, u, k)):
            return f"n_{k} = {n} != |S^{k}(u)|"
        total = len(codes) - 3 * n + 1
        freq = cube_positions(codes, n) / total
        if freq != g["empirical_frequency"][str(k)]:
            return f"cube frequency at level {k}: {g['empirical_frequency'][str(k)]} != {freq}"
        if freq < g["freq_lower_bound"] - GORDON_TOL:
            return f"cube frequency {freq} below the bound {g['freq_lower_bound']}"
    if not g["bound_satisfied"]:
        return "bound reported unsatisfied"
    return None


def check_uniqueness(spec: dict, out: dict) -> str | None:
    u = out["value"]
    L = u["half_width"]
    if u["positions_checked"] != u["sample_length"] - (4 * L + 2) + 1:
        return f"positions checked {u['positions_checked']} != sample length - (4L+2) + 1"
    if u["sample_length"] < int(u["lr_value"] * u["max_word_length"]) + 2 * u["max_word_length"]:
        return "sample shorter than the coverage sizing"
    if not u["ok"]:
        return "uniqueness violated"
    return None


CHECKS = {
    "analyze": check_analyze,
    "spectrum": check_spectrum,
    "partition": check_partition,
    "transcendence": check_transcendence,
    "gordon": check_gordon,
    "uniqueness": check_uniqueness,
}


def check(op: dict, out: dict) -> str | None:
    """None when the op's first-round output is right, else why not."""
    if out["error"] is not None:
        return out["error"]
    if out["code"] == 1:
        return "exit code 1 on valid input"
    try:
        return CHECKS[op["check"]["type"]](op["check"], out)
    except Exception as exc:  # a malformed output fails its op, not the run
        return f"output unreadable: {type(exc).__name__}: {exc}"

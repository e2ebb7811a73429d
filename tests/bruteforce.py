"""Independent naive oracles: direct iteration plus scanning, no shared code paths.

These deliberately re-derive everything from first definitions (iterate the
substitution as plain string rewriting, collect subwords by double loop) so
they can arbitrate the library's closure-based implementations.
"""

from __future__ import annotations

import math

import numpy as np


def apply_rules(rules: dict[str, str], w: str) -> str:
    out = []
    for ch in w:
        out.append(rules[ch])
    return "".join(out)


def length_columns(rules: dict[str, str], n: int) -> dict[str, list[int]]:
    """{a: [|S^k(a)| for k = 0..n]} by the length recursion on Python ints.

    |S^(k+1)(a)| is the sum of |S^k(b)| over the letters b of S(a), letter by
    letter.  Reference for `Substitution.lengths`.
    """
    columns = {a: [1] for a in rules}
    for k in range(n):
        for a, image in rules.items():
            columns[a].append(sum(columns[b][k] for b in image))
    return columns


def word_image_lengths(rules: dict[str, str], w: str, n: int) -> list[int]:
    """[|S^k(w)| for k = 0..n], summed letter by letter over `length_columns`."""
    columns = length_columns(rules, n)
    return [sum(columns[ch][k] for ch in w) for k in range(n + 1)]


def distinct_windows(text: str, length: int) -> set[str]:
    """Distinct length-`length` windows of a sample string."""
    return {text[i : i + length] for i in range(len(text) - length + 1)}


def naive_factors(rules: dict[str, str], max_len: int, *, extra_rounds: int = 5) -> set[str]:
    """Subwords of all iterates, iterating until the set stops changing for a while."""
    found: set[str] = set()
    stable = 0
    strings = {a: a for a in rules}
    rounds = 0
    while stable < extra_rounds and rounds < 3 * max_len + 40:
        before = len(found)
        for a in rules:
            w = strings[a]
            n = len(w)
            for i in range(n):
                for j in range(i + 1, min(i + max_len, n) + 1):
                    found.add(w[i:j])
            if len(w) < 10**6:
                strings[a] = apply_rules(rules, w)
        stable = stable + 1 if len(found) == before else 0
        rounds += 1
    return found


def rescan_extendable_core(words: set[str], letters, top: int) -> set[str]:
    """Greatest set of words shorter than `top` with a left and a right extension.

    Reference fixpoint: rescans every kept word until a pass removes nothing;
    words of length `top` are kept unconditionally.
    """
    kept = set(words)
    while True:
        doomed = [
            w
            for w in kept
            if len(w) < top
            and (
                not any(w + x in kept for x in letters)
                or not any(x + w in kept for x in letters)
            )
        ]
        if not doomed:
            return kept
        kept.difference_update(doomed)


def string_core_levels(factors):
    """The levels of the extendable core, longest first, walked on strings.

    The kept words of length L are those that are both a prefix and a
    suffix of kept words of length L + 1, starting from every factor of
    length max_length.  Reference for the integer-coded walk of
    `classify.is_periodic`.
    """
    factors.require_saturated()
    level = {w for w in factors.maximal if len(w) == factors.max_length}
    while level:
        yield level
        level = {w[:-1] for w in level} & {w[1:] for w in level}
        level.discard("")


def repetitivity_function(factors, n: int) -> int:
    """Smallest L with: every factor of length L contains every factor of length n.

    The targets are the factors of length n, read from `factors`; L itself
    is exact from `coverage_exact` and may exceed factors.max_length.
    Raises `CoverageUndecidedError` when some factor of length n is avoided
    by arbitrarily long factors (e.g. a letter without bounded gaps).
    """
    from linrep.words import coverage_exact

    factors.require_saturated()
    if n < 1 or n > factors.max_length:
        raise ValueError(f"n={n} outside 1..{factors.max_length}")
    targets = factors.words_of_length(n)
    if not targets:
        raise ValueError(f"factor set has no words of length {n}")
    return coverage_exact(factors.substitution, targets)


def naive_count(pattern: str, text: str) -> int:
    hits = 0
    for i in range(len(text) - len(pattern) + 1):
        if text[i : i + len(pattern)] == pattern:
            hits += 1
    return hits


def naive_return_words(factors: set[str], v: str) -> set[str]:
    out = set()
    for w in factors:
        if len(w) > len(v) and w[: len(v)] == v and w[-len(v) :] == v:
            if naive_count(v, w) == 2:
                out.add(w[: len(w) - len(v)])
    return out


def factor_set_return_pairs(letter: str, factors) -> tuple[frozenset[str], list[str]]:
    """The return words to `letter` and the sorted pairs z1 z2 of them that
    are factors, read off a saturated factor set of depth >= 2 * kappa: a
    return word is at most kappa long, so the set holds every pair that
    occurs."""
    from linrep.words import return_words

    rw = return_words(letter, factors)
    return rw, sorted(z1 + z2 for z1 in rw for z2 in rw if z1 + z2 in factors)


def naive_find_power(factors: set[str], predicate, exponent: int, max_len: int) -> str | None:
    best = None
    by_len: dict[int, list[str]] = {}
    for w in factors:
        by_len.setdefault(len(w), []).append(w)
    for m in range(1, max_len // exponent + 1):
        for u in sorted(by_len.get(m, [])):
            if predicate(u) and (u * exponent + u[0]) in factors:
                return u
    return best


def naive_partitions(alpha: str, b: str, w: str) -> list[tuple[int, ...]]:
    """All 1-partition cut tuples of w by plain recursion (no memoization)."""
    results: list[tuple[int, ...]] = []

    def rec(pos: int, cuts: tuple[int, ...]):
        tail = w[pos:]
        if tail == "" or (len(tail) < len(alpha) and alpha.startswith(tail)):
            results.append(cuts + (pos,))
        if tail.startswith(b):
            rec(pos + 1, cuts + (pos,))
        if tail.startswith(alpha):
            rec(pos + len(alpha), cuts + (pos,))

    for z0len in range(min(len(alpha) - 1, len(w)) + 1):
        if z0len == 0 or alpha.endswith(w[:z0len]):
            rec(z0len, ())
    uniq = sorted(set(results))
    return uniq


def floquet_bands(word: str, values: dict[str, float], merge_tol: float = 1e-9):
    """Bands of the period-|word| operator from dense periodic and antiperiodic
    eigenvalues, with gaps no wider than `merge_tol` merged.

    Returns the bands and the number of merged gaps.
    """
    v = np.array([values[c] for c in word], dtype=float)
    q = len(v)
    if q == 1:
        edges = np.array([v[0] - 2.0, v[0] + 2.0])
    else:
        spectra = []
        for corner in (1.0, -1.0):
            h = np.diag(v)
            for i in range(q - 1):
                h[i, i + 1] = h[i + 1, i] = 1.0
            h[0, q - 1] += corner
            h[q - 1, 0] += corner
            spectra.append(np.linalg.eigvalsh(h))
        edges = np.sort(np.concatenate(spectra))
    bands: list[list[float]] = []
    merged = 0
    for lo, hi in zip(edges[0::2], edges[1::2]):
        if bands and lo - bands[-1][1] <= merge_tol:
            bands[-1][1] = float(hi)
            merged += 1
        else:
            bands.append([float(lo), float(hi)])
    return [(lo, hi) for lo, hi in bands], merged


def closure_factor_language(s, max_length: int):
    """Reference closure that stores every factor of length <= max_length.

    Each round expands the new length-n factors at the windows starting
    inside the image of their first letter, plus the whole image of each
    letter's end word, and adds every window and its prefixes.  It stops
    unsaturated after a round that leaves more than 10**6 words.  Returns
    (words, saturated, rounds).
    """
    n = max_length
    words: set[str] = set()
    fresh: list[str] = []

    def harvest(text, stop):
        for i in range(min(stop, len(text))):
            length = min(n, len(text) - i)
            while length >= 1:
                w = text[i : i + length]
                if w in words:
                    break
                words.add(w)
                if length == n:
                    fresh.append(w)
                length -= 1

    for a in s.letters:
        harvest(a, 1)
    ends = {a: a for a in s.letters}
    saturated = False
    rounds = 0
    while True:
        rounds += 1
        size = len(words)
        batch, fresh = fresh, []
        for u in batch:
            harvest(apply_rules(s.rules, u), len(s.rules[u[0]]))
        for a in s.letters:
            image = apply_rules(s.rules, ends[a])
            ends[a] = image[-n:]
            harvest(image, len(image))
        if len(words) > 10**6:
            break
        if len(words) == size:
            saturated = True
            break
    return words, saturated, rounds


def per_window_factor_language(s, max_length: int, max_words: int = 10**6):
    """The maximal-word closure that expands every new length-n factor alone.

    Round k applies S to each factor u of length n first found in round k-1
    and harvests the windows of S(u) that start inside S(u[0]), then the
    whole image of each letter's end word.  Short iterates are stored as
    maximal words; a round is quiet when it finds no new length-n factor and
    every short iterate lies in a stored word.  It stops unsaturated after a
    round that leaves more than `max_words` maximal words.  Returns
    (maximal, ends, saturated, rounds).
    """
    n = max_length
    maximal: set[str] = set()
    ends: set[str] = set()
    fresh: list[str] = []

    def harvest(text, stop):
        for i in range(min(stop, len(text) - n + 1)):
            w = text[i : i + n]
            if w not in maximal:
                maximal.add(w)
                fresh.append(w)

    def advance(images):
        short = set()
        for a, image in images.items():
            harvest(image, len(image))
            tails[a] = image[-n:]
            ends.add(tails[a])
            if len(tails[a]) < n and tails[a] not in maximal:
                short.add(tails[a])
        quiet = not fresh and all(any(t in m for m in maximal) for t in short)
        maximal.update(short)
        return quiet

    tails: dict[str, str] = {}
    advance({a: a for a in s.letters})
    saturated = False
    rounds = 0
    while not saturated and len(maximal) <= max_words:
        rounds += 1
        batch, fresh = fresh, []
        for u in batch:
            harvest(apply_rules(s.rules, u), len(s.rules[u[0]]))
        saturated = advance({a: apply_rules(s.rules, tails[a]) for a in s.letters})
    return frozenset(maximal), frozenset(ends), saturated, rounds


def block_orbit_maximum(rules: dict[str, str], growing) -> int:
    """Longest run of bounded letters over the orbits of the seed runs.

    A seed is a maximal run of bounded letters in a letter or in the image
    of a growing letter, with its nearest growing letters (None at a word
    end).  A step replaces the run by its image, framed by the bounded end
    of the left letter's image and the bounded start of the right one's.
    Each orbit is walked until a state repeats, so the system's runs must
    be bounded: an orbit that passes 10**6 states fails.
    """

    def bounded_start(word: str) -> str:
        i = 0
        while i < len(word) and word[i] not in growing:
            i += 1
        return word[:i]

    seeds = []
    for a, image in rules.items():
        if a not in growing:
            seeds.append((None, a, None))
            continue
        seeds += [(None, "", a), (a, "", None)]
        at = [i for i, ch in enumerate(image) if ch in growing]
        seeds += [(image[i], image[i + 1 : j], image[j]) for i, j in zip(at, at[1:])]
    longest = 0
    for state in seeds:
        seen = set()
        while state not in seen:
            assert len(seen) < 10**6, "bounded-run orbit did not close"
            seen.add(state)
            left, run, right = state
            longest = max(longest, len(run))
            run = apply_rules(rules, run)
            if left is not None:
                image = rules[left]
                run = bounded_start(image[::-1])[::-1] + run
                left = next(ch for ch in reversed(image) if ch in growing)
            if right is not None:
                image = rules[right]
                run += bounded_start(image)
                right = next(ch for ch in image if ch in growing)
            state = (left, run, right)
    return longest


def bfs_reach(rules: dict[str, str], start) -> frozenset[str]:
    """Letters occurring in some S^n(a), n >= 0, for a in start, by breadth-first search."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for b in set(rules[a]):
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


def state_walk_pump(rules: dict[str, str], growing) -> bool:
    """Whether a triple (l, g, r) of nearest growing letters pumps both bounded runs around g.

    The seeds are the triples of each image, None where the image ends.  A
    step needs exactly one growing letter g' in S(g), and goes to (last
    growing letter of S(l), g', first growing letter of S(r)), gaining the
    bounded letters between each new pair.  Each path is walked until it
    has no step or meets a state seen before; a cycle of the path pumps when
    its left gains and its right gains both sum above 0.
    """

    def bounded_start(word: str) -> str:
        i = 0
        while i < len(word) and word[i] not in growing:
            i += 1
        return word[:i]

    def step(left, right):
        # the new pair and the bounded letters between them
        gain = ""
        if left is not None:
            image = rules[left]
            gain += bounded_start(image[::-1])
            left = next(ch for ch in reversed(image) if ch in growing)
        if right is not None:
            image = rules[right]
            gain += bounded_start(image)
            right = next(ch for ch in image if ch in growing)
        return left, len(gain), right

    seeds = []
    for image in rules.values():
        marks = [None, *(ch for ch in image if ch in growing), None]
        seeds.extend(zip(marks, marks[1:], marks[2:]))
    visited: set = set()
    for state in seeds:
        path: dict = {}
        gains: list[tuple[int, int]] = []
        while state not in visited:
            visited.add(state)
            path[state] = len(gains)
            l, g, r = state
            if sum(ch in growing for ch in rules[g]) != 1:
                break
            next_l, left, next_g = step(l, g)
            _, right, next_r = step(g, r)
            gains.append((left, right))
            state = (next_l, next_g, next_r)
        else:
            if state in path and all(map(sum, zip(*gains[path[state] :]))):
                return True
    return False


def scan_coverage_length(words: set[str], targets, max_length: int) -> int | None:
    """Smallest L >= max |t| at which every factor of length L holds every target.

    Reference upward scan over the lengths; skips lengths with no factors.
    """
    for length in range(max(len(t) for t in targets), max_length + 1):
        candidates = [w for w in words if len(w) == length]
        if candidates and all(t in w for w in candidates for t in targets):
            return length
    return None


def coverage_fold_with_run(s, targets, fold_rounds: int | None = None) -> tuple[int, int]:
    """The coverage fold that keeps the longest t-free factor `run` in every summary.

    Returns (coverage length, the most rounds any target's fold ran before
    its summary tuple repeated).  It stops only when the whole tuple, `run`
    included, repeats, and folds a repeated target again.  Raises
    `CoverageUndecidedError` with the message `coverage_exact` gives after
    `fold_rounds` rounds (default `words.FOLD_ROUNDS`).
    """
    from bisect import bisect_right

    from linrep import words as wd

    if fold_rounds is None:
        fold_rounds = wd.FOLD_ROUNDS
    targets = tuple(targets)
    if not targets or not all(targets):
        raise ValueError("coverage needs nonempty targets")
    rules = s.rules
    letters = list(s.letters)
    avoid = rounds = 0
    by_length = sorted(set(targets), key=len)
    lengths = [len(u) for u in by_length]
    for t in targets:
        if any(t in u for u in by_length[bisect_right(lengths, len(t)) :]):
            continue
        m = len(t)
        k = m - 1

        def join(x, y):
            xpre, xsuf, xfree, xhead, xtail, xrun, xn = x
            ypre, ysuf, yfree, yhead, ytail, yrun, yn = y
            pre = (xpre + ypre)[:k]
            both = xsuf + ysuf
            suf = both[max(len(both) - k, 0) :]
            seam = xsuf + ypre
            i = seam.find(t)
            if i < 0:
                free = xfree and yfree
                head = xn + yhead if xfree else xhead
                tail = xtail + yn if yfree else ytail
                run = max(xrun, yrun, xtail + yhead)
                return pre, suf, free, head, tail, run, xn + yn if free else 0
            cut = len(xsuf)
            uses = []
            while i >= 0:
                uses.append(cut - i)
                i = seam.find(t, i + 1)
            head = xn + m - uses[0] - 1 if xfree else xhead
            tail = yn + uses[-1] - 1 if yfree else ytail
            run = max(xrun, yrun)
            for cap in [xtail] + [u - 1 for u in uses]:
                a = min(xtail, cap)
                b = min([yhead] + [m - u - 1 for u in uses if u <= a])
                run = max(run, a + b)
            return pre, suf, False, head, tail, run, 0

        level = {}
        for a in letters:
            free = a != t
            level[a] = (a[:k], a[:k], free, int(free), int(free), int(free), int(free))
        seen = set()
        for r in range(fold_rounds + 1):
            key = tuple(level.values())
            if key in seen:
                rounds = max(rounds, r)
                break
            seen.add(key)
            avoid = max(avoid, max(x[5] for x in key))
            nxt = {}
            for a in letters:
                image = rules[a]
                acc = level[image[0]]
                for b in image[1:]:
                    acc = join(acc, level[b])
                nxt[a] = acc
            level = nxt
        else:
            raise wd.CoverageUndecidedError(
                f"undecided-at-depth: the coverage fold for {t!r} did not repeat "
                f"within {fold_rounds} rounds"
            )
    return max(max(map(len, targets)), avoid + 1), rounds


def own_set_compatibility(s, depth: int = 16):
    """A depth-bounded compatibility check on a factor set of its own, of depth max(4, depth + 1).

    Reference for the exact `check_compatibility`: a refutation scan over
    the full derived word set (with `in` on the set itself), interior
    recurrence of a growing letter up to power `depth`, and a two-sided seed
    pair a.b (S^p(a) ends in a, S^p(b) begins with b, ab a factor).  Each
    of them proves its verdict, so where one decides, the exact check agrees.
    """
    import math

    from linrep.substitution import CompatibilityResult, bounded_letters
    from linrep.words import factor_language

    split = bounded_letters(s)
    all_letters = frozenset(s.letters)
    factors = factor_language(s, max(4, depth + 1))
    if factors.saturated:
        for w in sorted(factors.words, key=lambda w: (len(w), w)):
            if len(w) >= factors.max_length:
                break
            if not any((w + x) in factors for x in s.letters):
                return CompatibilityResult("fails-certified", {"blocked_factor": w, "side": "right"})
            if not any((x + w) in factors for x in s.letters):
                return CompatibilityResult("fails-certified", {"blocked_factor": w, "side": "left"})

    for e in sorted(split.growing):
        if bfs_reach(s.rules, [e]) != all_letters:
            continue
        w = e
        for p in range(1, depth + 1):
            if len(w) > 200000:
                break
            w = s.apply(w)
            idx = w.find(e, 1)
            if 0 < idx < len(w) - 1:
                return CompatibilityResult(
                    "holds-certified", {"kind": "interior-recurrence", "letter": e, "power": p}
                )

    if factors.saturated and factors.max_length >= 2:
        ends = {}
        begins = {}
        for x in sorted(split.growing):
            cur = x
            for p in range(1, depth + 1):
                cur = s.rules[cur][-1]
                if cur == x:
                    ends[x] = p
                    break
            cur = x
            for p in range(1, depth + 1):
                cur = s.rules[cur][0]
                if cur == x:
                    begins[x] = p
                    break
        for x in sorted(ends):
            for y in sorted(begins):
                p = math.lcm(ends[x], begins[y])
                if p > depth:
                    continue
                if (x + y) in factors and bfs_reach(s.rules, [x, y]) == all_letters:
                    return CompatibilityResult(
                        "holds-certified", {"kind": "seed-pair", "left": x, "right": y, "power": p}
                    )

    return CompatibilityResult("unknown", {"depth": depth})


def interior_power_by_strings(s, e: str, cap: int = 10**5) -> tuple[int | None, int]:
    """The least p <= 8|A| with e at neither end of S^p(e), read off the words.

    Returns (p, checked): p is None when no power up to `checked` has it.
    `checked` stops short of 8|A| only where the next word would pass `cap`
    letters.  Reference for `substitution.interior_power`.
    """
    w = e
    top = 8 * len(s.letters)
    for p in range(1, top + 1):
        if sum(len(s.rules[ch]) for ch in w) > cap:
            return None, p - 1
        w = s.apply(w)
        if e in w[1:-1]:
            return p, p
    return None, top


def short_factors_by_strings(rules: dict[str, str]) -> list[set[str]]:
    """The factors of length 1, 2 and 3, by applying the rules to every one found.

    A window of length m <= 3 of S(w) lies inside the images of at most m
    adjacent letters of w, so the windows of S(u) over the factors u found
    so far close the set, which is finite.  Reference for the factors that
    `check_compatibility` reads.
    """
    found: set[str] = set(rules)
    while True:
        windows = set(found)
        for u in found:
            image = apply_rules(rules, u)
            windows.update(image[i : i + m] for m in (1, 2, 3) for i in range(len(image) - m + 1))
        if windows == found:
            return [{w for w in found if len(w) == m} for m in (1, 2, 3)]
        found = windows


def levels_blocked_factor(factors, depth: int) -> dict | None:
    """The blocked-factor verdict of a refutation scan that holds every level at once.

    Builds the factors of every length n <= depth + 1 from the roots, then
    scans the levels shortest first and each level in sorted order,
    stopping at the first word that is neither a prefix (right side,
    checked first) nor a suffix (left side) of a word one letter longer.
    Reference for the refutation of `check_compatibility`.
    """
    levels = [set() for _ in range(depth + 2)]
    for r in factors.roots:
        levels[min(len(r), depth + 1)].add(r[: depth + 1])
    for n in range(depth, 0, -1):
        levels[n] |= {u[:-1] for u in levels[n + 1]}
    for n in range(1, depth + 1):
        prefixes = {u[:-1] for u in levels[n + 1]}
        suffixes = {u[1:] for u in levels[n + 1]}
        for w in sorted(levels[n]):
            if w not in prefixes:
                return {"blocked_factor": w, "side": "right"}
            if w not in suffixes:
                return {"blocked_factor": w, "side": "left"}
    return None


def cube_positions_by_runs(sample: np.ndarray, n: int) -> int:
    """Count positions i with sample[i:i+3n] a perfect cube of period n, from runs.

    Such an i starts 2n successive agreements sample[j] == sample[j+n], so a
    maximal run of r agreements holds max(0, r - 2n + 1) of them.  Reference
    for the bit-plane count of `spectral.cube_positions`.
    """
    eq = np.concatenate(([False], sample[: len(sample) - n] == sample[n:], [False]))
    edges = np.flatnonzero(eq[1:] != eq[:-1])
    runs = edges[1::2] - edges[0::2]
    return int(np.sum(runs[runs >= 2 * n] - (2 * n - 1)))


def uniqueness_walk(alpha: str, b: str, L: int, sample: str) -> tuple[int, ...]:
    """The uniqueness scan's violations by walking each start's chains one block at a time.

    For every start of a (4L+2)-window, each front remainder o (with
    sample[start:start+o] a suffix of alpha) follows its block chain, a b
    before an alpha, until it reaches start + L or no block begins; the
    start is a violation when no chain lands or two land apart.  Stops
    after the 17th violation.
    """
    n = len(sample)
    width = len(alpha)
    nxt = [-1] * n
    for i in range(n):
        if sample[i] == b:
            nxt[i] = i + 1
        elif sample.startswith(alpha, i):
            nxt[i] = i + width

    violations: list[int] = []
    last_start = n - (4 * L + 2)
    for start in range(0, last_start + 1):
        strip = start + L
        landing = None
        consistent = True
        for o in range(width):
            if o and not alpha.endswith(sample[start : start + o]):
                continue
            p = start + o
            while p < strip:
                step = nxt[p] if p < n else -1
                if step < 0:
                    p = -1
                    break
                p = step
            if p < 0:
                continue
            if landing is None:
                landing = p
            elif p != landing:
                consistent = False
                break
        if landing is None or not consistent:
            violations.append(start)
            if len(violations) > 16:
                break
    return tuple(violations)


def horner_value(digits, base: int) -> int:
    """The integer with the given digits in `base`, most significant first, by Horner's rule."""
    num = 0
    for d in digits:
        num = num * base + d
    return num


def digitwise_mantissa(digits, base: int, bits: int) -> int:
    """The rounded mantissa of sum(d_n / base^n) at `bits` bits, one digit at
    a time: int() of every digit, balanced pairwise merges of the digits and
    one exact long division by base^len(digits)."""
    ds = [int(d) for d in digits]
    if any(d < 0 or d >= base for d in ds):
        raise ValueError(f"digits must lie in 0..{base - 1}")
    groups, power = ds or [0], base
    while len(groups) > 1:
        if len(groups) % 2:
            groups = [0, *groups]
        pairs = iter(groups)
        groups = [hi * power + lo for hi, lo in zip(pairs, pairs)]
        power *= power
    den = base ** len(ds)
    return ((groups[0] << bits) + den // 2) // den


def chunked_decimal(mantissa: int, bits: int) -> str:
    """mantissa / 2^bits truncated to ceil(bits log10 2) digits as "0.ddd"
    (or "1.000" at mantissa 2^bits), with 512-digit chunks peeled off the
    low end by divmod."""
    digits10 = width = max(1, math.ceil(bits * math.log10(2)))
    scaled = mantissa * 10**digits10 >> bits
    chunks = []
    while digits10 > 512:
        scaled, low = divmod(scaled, 10**512)
        chunks.append(f"{low:0512d}")
        digits10 -= 512
    chunks.append(f"{scaled:0{digits10}d}")
    text = "".join(reversed(chunks))
    return f"{text[:-width] or 0}.{text[-width:]}"


def mat_pow(a, n: int) -> list[list[int]]:
    """Exact integer matrix power (n >= 0) by repeated squaring."""

    def mul(x, y):
        return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]

    size = len(a)
    result = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    base = [list(row) for row in a]
    while n > 0:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


# relative slack `growth_sandwich_holds` allows around the float constants
GROWTH_SLACK = 1e-9


def growth_sandwich_holds(growth, s) -> bool:
    """Re-check lambda * theta^n <= |S^n(v)| <= rho * theta^n against exact lengths.

    Every word v of the `GrowthEstimate` and every 1 <= n <= n_checked.
    """
    for v in growth.words:
        lengths = word_image_lengths(s.rules, v, growth.n_checked)
        for n in range(1, growth.n_checked + 1):
            scale = growth.theta**n
            if not (
                growth.lambda_v * scale * (1 - GROWTH_SLACK)
                <= lengths[n]
                <= growth.rho_v * scale * (1 + GROWTH_SLACK)
            ):
                return False
    return True


def transfer_matrix(word: str, energy: float, potentials, dtype=float) -> np.ndarray:
    """Product of one-step transfer matrices [[E - v, -1], [1, 0]] over the word.

    Factors multiply right-to-left, the rightmost belonging to the first
    letter, so T(uv, E) = T(v, E) @ T(u, E).  Entries grow exponentially off
    the spectrum, so determinant checks at tight absolute tolerances should
    pass dtype=np.longdouble and keep the word short enough for the
    conditioning to allow them.
    """
    m = np.eye(2, dtype=dtype)
    one = np.asarray(1.0, dtype=dtype)
    for ch in word:
        x = np.asarray(energy - potentials[ch], dtype=dtype)
        m = np.array([[x, -one], [one, 0.0 * one]], dtype=dtype) @ m
    return m


FINITE_SECTION_CAP = 4096


def finite_section_eigenvalues(word: str, potentials) -> np.ndarray:
    """Eigenvalues of the operator restricted to the word's sites, Dirichlet cut.

    Symmetric tridiagonal matrix with the letter values on the diagonal and
    unit hopping; eigenvalues sorted ascending.
    """
    from scipy.linalg import eigh_tridiagonal

    n = len(word)
    if n == 0:
        raise ValueError("empty word")
    if n > FINITE_SECTION_CAP:
        raise ValueError(f"finite section capped at {FINITE_SECTION_CAP} sites, got {n}")
    diag = np.array([potentials[ch] for ch in word], dtype=float)
    if n == 1:
        return diag.copy()
    return eigh_tridiagonal(diag, np.ones(n - 1), eigvals_only=True)


def interior_cuts(partition, half_width: int) -> tuple[int, ...]:
    """The cut positions of a `OnePartition` at least `half_width` from both ends."""
    lo, hi = half_width, len(partition.target) - half_width
    return tuple(c for c in partition.cut_positions if lo <= c <= hi)


def project(s, w: str) -> str:
    """w with the bounded letters of s erased."""
    return "".join(ch for ch in w if ch in s.split.growing)


def center_disagreement(alpha: str, b: str, L: int, words) -> str | None:
    """The first word of length 2L whose 1-partitions do not all cut, or all not
    cut, at its centre L (a word with none counts), by plain recursion; None
    when every word passes the recognition rule's window check."""
    for w in words:
        if len({L in cuts for cuts in naive_partitions(alpha, b, w)}) != 1:
            return w
    return None


def rule_cuts(rule, text: str) -> list[int]:
    """The cuts c, L <= c <= |text| - L, whose 2L-window text[c-L : c+L] is in
    the rule's window set, by scanning every window."""
    L = rule.half_width
    return [c for c in range(L, len(text) - L + 1) if text[c - L : c + L] in rule.windows]


def window_desubstitute(rules: dict[str, str], window: str, rule) -> tuple[str, int]:
    """The letters of the blocks between the window's `rule_cuts`, each matched
    against S(a) and b, and the first cut; raises ValueError when no cut is
    found or a block is neither."""
    (b,) = [x for x, image in rules.items() if image == x]
    (a,) = [x for x in rules if x != b]
    cuts = rule_cuts(rule, window)
    if not cuts:
        raise ValueError("no cut recognized in the interior")
    letters = []
    for c1, c2 in zip(cuts, cuts[1:]):
        block = window[c1:c2]
        if block not in (rules[a], b):
            raise ValueError(f"segment {block!r} between cuts {c1}..{c2} is not a block")
        letters.append(a if block == rules[a] else b)
    return "".join(letters), cuts[0]


# ---------------------------------------------------------------------------
# the power-bound routes of the recognition half-width: the paper's L for
# (2L+1)-windows, read off the longest powers in the language


class ShallowFactorSetError(Exception):
    """A power bound reaches past the factor-set depth, so it cannot be certified."""


MAX_WIDTH_DEPTH = 256  # deepest factor set window_half_width builds


def certified_exponent(v: str, factors) -> int:
    """The largest n with v^n a factor; raises `ShallowFactorSetError`, naming
    v^(n+1) and the depth, when that power does not fit inside the depth."""
    n = 1
    while len(v) * (n + 1) <= factors.max_length and v * (n + 1) in factors:
        n += 1
    if len(v) * (n + 1) > factors.max_length:
        raise ShallowFactorSetError(
            f"cannot certify the power bound: {v!r}^{n + 1} exceeds factor depth "
            f"{factors.max_length}"
        )
    return n


def _growing(s) -> tuple[str, str]:
    """(a, S(a)) for the letter a not fixed by s."""
    return next((letter, image) for letter, image in s.rules.items() if image != letter)


def power_bound(s, factors) -> int:
    """L0: the longest |v^n| with v a subword of S(a) and v^n in the language."""
    _, alpha = _growing(s)
    factors.require_saturated()
    subwords = {alpha[i:j] for i in range(len(alpha)) for j in range(i + 1, len(alpha) + 1)}
    return max(len(v) * certified_exponent(v, factors) for v in sorted(subwords))


def max_power_exponent(s, factors) -> int:
    """N: the largest n with v^n in the language over factors v of length <= 2|S(a)|."""
    factors.require_saturated()
    return max(
        (
            certified_exponent(v, factors)
            for m in range(1, 2 * len(_growing(s)[1]) + 1)
            for v in factors.words_of_length(m)
        ),
        default=1,
    )


def window_half_width(s, factors) -> tuple[str, int]:
    """(route, L): L0 + 2|S(a)b| when S(a) holds the doubled growing letter,
    else (N + 2) * 2|S(a)|.

    When `factors` is too shallow to certify the power bound, the factor set
    is deepened by doubling, the last step to MAX_WIDTH_DEPTH itself; a set
    of that depth that is still too shallow raises the error.  A certified
    exponent is exact, so L does not depend on the depth it is read at.
    """
    from linrep import words as wd

    a, alpha = _growing(s)
    while True:
        try:
            if a + a in alpha:
                return "doubled-letter", power_bound(s, factors) + 2 * (len(alpha) + 1)
            return "no-doubled-letter", (max_power_exponent(s, factors) + 2) * 2 * len(alpha)
        except ShallowFactorSetError:
            if factors.max_length >= MAX_WIDTH_DEPTH:
                raise
            factors = wd.factor_language(s, min(2 * factors.max_length, MAX_WIDTH_DEPTH))
            factors.require_saturated()

"""Unique 1-partitions for two-letter nonprimitive substitutions.

Throughout, the substitution acts on {a, b} with S(b) = b and |S(a)| > 1.
A 1-partition of a word chops it into blocks from {S(a), b} with a proper
suffix of a block in front and a proper prefix behind (full blocks are
canonically represented as blocks, not as boundary remainders).  For
minimal aperiodic systems all 1-partitions of a factor agree away from a
boundary strip of half-width L, which makes the cut positions locally
recognizable from symmetric 2L-windows, L letters on each side of a cut.

L is the least half-width, from the floor |S(a)| // 2 up, at which every
factor of length 2L has 1-partitions that agree at its centre: that window
check is its own certificate, and no bound on the powers in the language
is needed to read it.

`require_premises` is the one premise gate of the partition and
number-theory applications: a nonprimitive, certified minimal, aperiodic
system of the shape, whose S(a) then begins and ends with a.  So every
front remainder is followed by at most one block chain: the recognition
rule, `is_factor`, `desubstitute` and `linrep partition` read their cuts
from these forced parses (`front_parses`) and their preimages with
`preimage`, while `enumerate_one_partitions` serves any shape and is the
reference the forced parses are tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import words as wd
from .classify import APERIODIC, YES, ClassificationReport
from .substitution import Substitution, SubstitutionError, iterate_prefix


class ShapeError(SubstitutionError):
    """The substitution is not of the two-letter fixed-letter shape."""


MAX_PARTITIONS = 10**4
SCAN_WORD_LENGTH = 600  # uniqueness_scan covers every factor up to this length


def shape_letters(s: Substitution) -> tuple[str, str]:
    """Return (growing, fixed) for the two-letter fixed-letter shape, or raise."""
    if len(s.letters) != 2:
        raise ShapeError("requires a two-letter alphabet")
    fixed = [x for x in s.letters if s.rules[x] == x]
    if len(fixed) != 1:
        raise ShapeError("requires exactly one letter fixed by the substitution")
    b = fixed[0]
    a = next(x for x in s.letters if x != b)
    if len(s.rules[a]) <= 1:
        raise ShapeError("the non-fixed letter must have an image of length > 1")
    return a, b


@dataclass(frozen=True)
class OnePartition:
    """A decomposition target = z0 . blocks . z_end with blocks in {S(a), b}.

    cut_positions holds every block boundary, starting at |z0| and ending at
    |target| - |z_end|; consecutive cuts delimit exactly one block.
    """

    target: str
    z0: str
    blocks: tuple[str, ...]
    z_end: str
    cut_positions: tuple[int, ...]


def enumerate_one_partitions(s: Substitution, w: str) -> list[OnePartition]:
    """All 1-partitions of w, shorter front remainder first.

    Exhaustive search, tabulated bottom-up over the positions reachable
    from a front remainder, so long words need no deep recursion;
    deterministic ordering.  Raises when w uses letters outside the
    two-letter alphabet.
    """
    a, b = shape_letters(s)
    alpha = s.rules[a]
    foreign = set(w) - {a, b}
    if foreign:
        raise ValueError(f"word uses letters {sorted(foreign)} outside the alphabet")
    n = len(w)
    starts = [0] + [
        k for k in range(1, min(len(alpha), n + 1)) if alpha.endswith(w[:k])
    ]
    reachable = set(starts)
    for i in range(n):
        if i in reachable:
            if w.startswith(b, i):
                reachable.add(i + 1)
            if w.startswith(alpha, i):
                reachable.add(i + len(alpha))

    # bottom-up over the reachable positions; a partial partition is a linked
    # list (cut, rest), so extending one by a block costs O(1)
    memo: dict[int, list[tuple]] = {}
    for i in sorted(reachable, reverse=True):
        res: list[tuple] = []
        tail_len = n - i
        if tail_len == 0 or (tail_len < len(alpha) and alpha.startswith(w[i:])):
            res.append((i, None))
        if w.startswith(b, i):
            res.extend((i, rest) for rest in memo[i + 1])
        if w.startswith(alpha, i):
            res.extend((i, rest) for rest in memo[i + len(alpha)])
        if len(res) > MAX_PARTITIONS:
            raise SubstitutionError(f"more than {MAX_PARTITIONS} partitions; refusing")
        memo[i] = res

    out = []
    for z0len in starts:
        for node in memo[z0len]:
            cut_list = []
            while node is not None:
                cut_list.append(node[0])
                node = node[1]
            cuts = tuple(cut_list)
            blocks = tuple(w[c1:c2] for c1, c2 in zip(cuts, cuts[1:]))
            out.append(
                OnePartition(
                    target=w,
                    z0=w[:z0len],
                    blocks=blocks,
                    z_end=w[cuts[-1] :],
                    cut_positions=cuts,
                )
            )
    out.sort(key=lambda p: (len(p.z0), p.cut_positions))
    return out


def require_premises(s: Substitution, report: ClassificationReport) -> tuple[str, str]:
    """Return (a, b) = (growing, fixed) for a nonprimitive, certified minimal,
    aperiodic system of the shape whose image S(a) begins and ends with a.

    The last premise holds for every such system.  If S(a) began with b,
    then S^n(a) would begin with b^n for every n, so b^inf would lie in X; a
    minimal X would then be {b^inf}, which is periodic.  The end of S(a) is
    symmetric.  As b != a, a block S(a) and a block b never start at the
    same position, and a tail that is a proper prefix of S(a) starts with a
    but is shorter than S(a), so it starts no block either: each admissible
    front remainder is followed by at most one parse, and a word has at
    most |S(a)| 1-partitions.
    """
    if report.primitive.primitive:
        raise ShapeError("requires a nonprimitive substitution")
    if report.minimal != YES:
        raise SubstitutionError(f"requires certified minimality (got {report.minimal!r})")
    if report.periodicity.status != APERIODIC:
        raise SubstitutionError(
            f"requires aperiodicity (periodicity status {report.periodicity.status!r})"
        )
    a, b = shape_letters(s)
    alpha = s.rules[a]
    if alpha[0] != a or alpha[-1] != a:
        raise SubstitutionError("requires the image of the growing letter to start and end with it")
    return a, b


@dataclass
class RecognitionRule:
    """Cut positions c, L <= c <= |text| - L, of a factor are exactly those
    whose 2L-window text[c-L : c+L] is in `windows`."""

    half_width: int
    windows: frozenset[str]


def front_parses(alpha: str, b: str, w: str) -> list[tuple[int, ...]]:
    """Cut positions of the 1-partitions of w, in `enumerate_one_partitions` order.

    One cut tuple per front remainder whose forced parse reaches an
    admissible tail; requires alpha to begin and end with a letter other
    than b (`require_premises`).
    """
    n, width = len(w), len(alpha)
    out = []
    for front in range(min(width - 1, n) + 1):
        if front and not alpha.endswith(w[:front]):
            continue
        cuts = [front]
        i = front
        while True:
            if i == n or (n - i < width and alpha.startswith(w[i:])):
                out.append(tuple(cuts))
                break
            if w[i] == b:
                i += 1
            elif w.startswith(alpha, i):
                i += width
            else:
                break
            cuts.append(i)
    return out


def preimage(a: str, b: str, cuts: Sequence[int]) -> str:
    """The letters of the blocks between consecutive cuts: a one-letter block
    reads b, an S(a) block reads a."""
    return "".join(b if c2 - c1 == 1 else a for c1, c2 in zip(cuts, cuts[1:]))


def is_factor(s: Substitution, w: str) -> bool:
    """Whether w is a factor of the language, by desubstitution.

    The language is that of the iterates S^n(a).  Let n be least with w a
    factor of S^n(a).  For n <= 1, w is a factor of S(a) (the empty word and
    a included, as S(a) begins with a).  Otherwise S^n(a) = S(u),
    u = S^(n-1)(a): either w lies inside one S(a) block of S(u), so it is a
    factor of S(a), or the block partition of S(u) restricts to a
    1-partition of w whose preimage (its blocks' letters, with an a for
    each nonempty remainder) is a factor of u.  Conversely S(u) holds w for
    every such preimage u that is a factor.

    A preimage is never longer than its word.  It is as long only when the
    word holds no block S(a) and each remainder is the single letter a, and
    it is then the word itself: by the choice of n it is not the preimage
    that places w in S^n(a), so it is dropped.  Every word kept is thus
    shorter than the one it came from, and the chain ends.  The system must
    pass `require_premises`, so the 1-partitions are the forced parses.
    """
    a, b = shape_letters(s)
    alpha = s.rules[a]
    level = {w}
    while level:
        preimages = set()
        for v in level:
            if v in alpha:
                return True
            for cuts in front_parses(alpha, b, v):
                front = a if cuts[0] else ""
                preimages.add(front + preimage(a, b, cuts) + (a if cuts[-1] < len(v) else ""))
        preimages -= level
        level = preimages
    return False


def recognition_rule(
    s: Substitution,
    factors: wd.FactorSet,
    report: ClassificationReport,
) -> RecognitionRule:
    """The least half-width L whose window check passes, with its 2L-windows.

    The check at L: every factor W of length 2L has 1-partitions, and they
    all agree on whether the centre L is a cut; W joins `windows` when they
    all cut there.  L starts at the floor |S(a)| // 2, so 2L >= |S(a)| - 1,
    and rises by one until the check passes; `factors` is deepened, to
    twice its depth or to 2L, when 2L passes it.

    The check makes the rule exact.  Let f be any factor, P any
    1-partition of f and L <= i <= |f| - L, and W = f[i-L : i+L].  As
    |W| >= |S(a)| - 1, W does not lie strictly inside one S(a) block of P,
    so restricting P to W gives a 1-partition of W: a block cut by the left
    end of W leaves a proper suffix of S(a), one cut by the right end a
    proper prefix, and a b block is never cut.  `front_parses` lists every
    1-partition of W (`require_premises`), so i is a cut of P iff W is in
    `windows`.  Hence all 1-partitions of every factor agree on
    [L, |f| - L], and `desubstitute` reads their common cuts off any one.
    Below the floor this fails: a window strictly inside one S(a) block
    restricts to no 1-partition, and a check passed there certifies nothing.

    Above the floor the check is monotone, so the first L that passes is the
    least: if it passes at L, every factor of length 2L' > 2L has a
    1-partition (restrict the block partition of an iterate S(x) holding
    it), and each one restricts to a 1-partition of the central 2L letters,
    which agree at the centre.  The ascent ends by L0 + 1, where L0 is the
    half-width the paper reads off the powers in the language (the
    power-bound routes of `tests/bruteforce.py`), whose (2 L0 + 1)-windows
    all decide their centre.

    The system must pass `require_premises`; then S(a) begins and ends
    with a, and the 1-partitions are read from forced parses.
    """
    a, b = require_premises(s, report)
    alpha = s.rules[a]
    L = len(alpha) // 2
    while True:
        if factors.max_length < 2 * L:
            factors = wd.factor_language(s, max(2 * L, 2 * factors.max_length))
        factors.require_saturated()
        windows: set[str] = set()
        for w in factors.words_of_length(2 * L):
            center_cut = {L in parse for parse in front_parses(alpha, b, w)}
            if len(center_cut) != 1:
                break
            if center_cut == {True}:
                windows.add(w)
        else:
            return RecognitionRule(half_width=L, windows=frozenset(windows))
        L += 1


def desubstitute(s: Substitution, window: str, rule: RecognitionRule) -> tuple[str, int]:
    """Invert one substitution level on the interior of a factor.

    Reads the interior cuts L <= c <= |window| - L of the window's first
    forced parse, which on a factor are the rule's (`recognition_rule`);
    its cuts lie at most |S(a)| <= 2L + 1 apart from a front below |S(a)|,
    so a window longer than 4L + 2 holds one.  Returns the preimage of the
    blocks between them and the offset of the first.
    """
    a, b = shape_letters(s)
    L = rule.half_width
    if len(window) <= 4 * L + 2:
        raise ValueError(f"window must be longer than {4 * L + 2}, got {len(window)}")
    parses = front_parses(s.rules[a], b, window)
    if not parses:
        raise SubstitutionError("window admits no 1-partition; it is not a factor")
    cuts = [c for c in parses[0] if L <= c <= len(window) - L]
    return preimage(a, b, cuts), cuts[0]


@dataclass
class UniquenessScan:
    """Global uniqueness audit over a coverage sample.

    For every window start, every admissible front remainder whose block
    chain survives into the safety strip must land on the same first cut at
    or past the strip; deterministic parsing then forces identical interior
    cuts for every window of length >= 4L+2.  The landings of all starts are
    computed at once (`uniqueness_violations`), and `violations` holds the
    first 17 starts that fail.  Coverage of all factors up to
    `max_word_length` (SCAN_WORD_LENGTH) is certified by sizing the sample
    with the system's repetitivity constant.
    """

    ok: bool
    half_width: int
    positions_checked: int
    sample_length: int
    max_word_length: int
    violations: tuple[int, ...]


def uniqueness_violations(alpha: str, b: str, L: int, sample: str) -> tuple[int, ...]:
    """The first 17 window starts of `sample` whose fronts do not land on one cut.

    The starts are 0 .. len(sample) - (4L+2).  A front of a start is an
    offset o < |alpha| with sample[start : start+o] a suffix of alpha (o = 0
    always is one).  From start+o the block chain steps over a b, else over
    an alpha, until it reaches the strip start+L, and is dropped where
    neither block begins.  A start is a violation when none of its fronts
    lands, or when they land on different cuts.

    The sample is read as bytes below U+0100, else as code points.  Each
    front offset o is walked for all starts at once, in one int32 row: each
    round advances every chain still short of its strip by one block, so at
    most L rounds run, and the row's landings fold into each start's least
    and greatest landing.  Raises SubstitutionError past int32 positions.
    """
    n, width = len(sample), len(alpha)
    if n + width >= 2**31:
        raise SubstitutionError(f"a sample of {n} letters is past int32 positions")
    count = n - (4 * L + 2) + 1
    if count <= 0:
        return ()
    codes = wd.letter_codes(sample)
    # is_letter[ch][i]: sample[i] == ch; False past the end of the sample
    pad = np.zeros(width, dtype=bool)
    is_letter = {ch: np.concatenate((codes == ord(ch), pad)) for ch in set(alpha)}
    at_alpha = np.logical_and.reduce([is_letter[ch][k : k + n] for k, ch in enumerate(alpha)])
    index = np.arange(n, dtype=np.int32)
    nxt = np.full(n, -1, dtype=np.int32)
    nxt[at_alpha] = index[at_alpha] + width
    at_b = codes == ord(b)
    nxt[at_b] = index[at_b] + 1  # a b block takes precedence, as in front_parses

    starts = index[:count]
    # a front past the end compares only the n - start letters left
    late = starts[starts > n - width]
    late_front = np.array([alpha.endswith(sample[i:]) for i in late], dtype=bool)
    # a start with no landing keeps lo = n + width > hi = -1
    lo = np.full(count, n + width, dtype=np.int32)
    hi = np.full(count, -1, dtype=np.int32)
    for o in range(width):
        front = np.ones(count, dtype=bool)
        for j in range(o):
            front &= is_letter[alpha[width - o + j]][j : j + count]
        past = late > n - o
        front[late[past]] = late_front[past]
        pos = starts + o
        # the chains of row o, indexed by their start, short of the strip start + L
        live = np.flatnonzero(front) if o < L else starts[:0]
        while live.size:
            step = nxt[pos[live]]
            pos[live] = step
            live = live[(step >= 0) & (step < live + L)]
        landed = front & (pos >= 0)
        np.minimum(lo, np.where(landed, pos, n + width), out=lo)
        np.maximum(hi, np.where(landed, pos, -1), out=hi)
    return tuple(np.flatnonzero(lo != hi)[:17].tolist())


def uniqueness_scan(
    s: Substitution,
    report: ClassificationReport,
    factors: wd.FactorSet,
) -> UniquenessScan:
    """Certify unique interior cut-sets for every factor up to SCAN_WORD_LENGTH.

    The system must pass `require_premises` and carry its repetitivity
    constant lr.  With m = SCAN_WORD_LENGTH, the sample is the prefix of
    S^k(a) of length lr * m + 2m, and every start of a (4H+2)-window in it
    is checked by `uniqueness_violations`, which walks the block chains of
    all starts at once.  Raises ValueError when the sample is shorter than
    one window, and SubstitutionError, before the rule is read, past int32.

    The strip is H = 2L + |S(a)|, with L the half-width of
    `recognition_rule`, and at that H the rule implies the scan.  Take two
    chains of one start that land on different cuts: they share no cut, or
    they would run together from it.  Both parse the sample from the start
    to at least start + H, and the cuts of the first lie at most |S(a)|
    apart, so as H - 2L + 1 >= |S(a)| one of them, c, has [c-L, c+L) inside
    both chains.  Restricted to that 2L-factor they are two 1-partitions
    that disagree at its centre, which the rule's check excludes.  A start
    always lands, on the cut of the iterate's own block partition.  The
    scan's chains include block runs that die later, so they are not
    1-partitions, and at H = L the scan can fail where the rule passes.
    """
    a, b = require_premises(s, report)
    if report.lr is None:
        raise SubstitutionError("needs the explicit repetitivity constant for coverage sizing")
    alpha = s.rules[a]
    m = SCAN_WORD_LENGTH
    length = int(report.lr.value * m) + 2 * m
    if length + len(alpha) >= 2**31:
        raise SubstitutionError(f"lr = {report.lr.value} asks for {length} letters, past int32")
    L = 2 * recognition_rule(s, factors, report).half_width + len(alpha)
    sample = iterate_prefix(s, a, length)
    if len(sample) < 4 * L + 2:
        raise ValueError(
            f"sample of {len(sample)} letters is shorter than a window of {4 * L + 2}; "
            f"SCAN_WORD_LENGTH {m} is too small"
        )
    violations = uniqueness_violations(alpha, b, L, sample)
    return UniquenessScan(
        ok=not violations,
        half_width=L,
        positions_checked=len(sample) - (4 * L + 2) + 1,
        sample_length=len(sample),
        max_word_length=m,
        violations=violations,
    )

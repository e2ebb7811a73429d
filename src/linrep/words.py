"""Finite-word primitives and the factor language of a substitution.

Words are plain Python strings over single-character letters.  The factor
language of a substitution S collects every subword of length <= n of every
iterate S^k(a), a in the alphabet.  `factor_language` builds it by a closure
at the fixed depth n whose round k expands each run of new length-n windows
of round k-1 once, as the factor the run spans.  It stores only the maximal
words, the factors of length n and the whole iterates shorter than n, and
the end words, the last n letters of each S^k(a).  Every factor is a prefix
of a maximal word or of a suffix of an end word, so `FactorSet` derives the
full set and the words of one length only when asked; membership tests and
the return words read the maximal words and the roots directly.  The cost
follows the number of length-n factors, not the length of the iterates.

The walk of the periodicity core over the levels of the factors runs on
`code_words`: the words sorted and coded as integer rows, with the prefix
classes of every length and the suffix links as arrays, so a level costs a
few array passes and no string slicing.

Coverage lengths, the smallest L such that every factor of length L holds
every target, have one algorithm: `coverage_exact`, an exact fold over the
letter images that needs no factor set.  The pair coverage G reads it, and
so does the tests' reference repetitivity function R(n); the gap bound kappa
is the longest return word instead, and the tests check it against the fold.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .substitution import SubstitutionError

Word = str


class UnsaturatedFactorSetError(SubstitutionError):
    """An operation required a saturated factor set but got a capped one."""


@dataclass
class FactorSet:
    """Factors of a substitution language up to `max_length`, kept as maximal words.

    `maximal` holds every factor of length max_length and every whole
    iterate S^k(a) shorter than that.  `ends` holds each end word seen: the
    last max_length letters of S^k(a), or all of it.  Every factor is a
    subword of a maximal word and a prefix of a *root*: a maximal word or a
    proper suffix of an end word.

    `saturated` is True when the closure reached a fixed point, in which
    case `words` is exactly the set of nonempty factors of length
    <= max_length.  `roots` and `words` are derived on first use;
    `words_of_length` cuts the roots and `in` searches the maximal words.
    """

    substitution: object
    max_length: int
    maximal: frozenset[Word]
    ends: frozenset[Word]
    saturated: bool
    rounds: int

    @cached_property
    def roots(self) -> frozenset[Word]:
        """The maximal words and the proper suffixes of the end words."""
        return self.maximal.union(e[i:] for e in self.ends for i in range(1, len(e)))

    @cached_property
    def words(self) -> frozenset[Word]:
        # the prefixes of every root, longest first; the set stays
        # prefix-closed, so the first known prefix ends the walk
        words: set[Word] = set()
        for root in self.roots:
            for length in range(len(root), 0, -1):
                w = root[:length]
                if w in words:
                    break
                words.add(w)
        return frozenset(words)

    @cached_property
    def _text(self) -> tuple[str, str]:
        # the maximal words joined by a letter outside the alphabet
        letters = set(self.substitution.letters)
        sep = next(chr(i) for i in range(len(letters) + 1) if chr(i) not in letters)
        return sep, sep.join(self.maximal)

    def __contains__(self, w: Word) -> bool:
        if len(w) >= self.max_length:
            return len(w) == self.max_length and w in self.maximal
        sep, text = self._text
        return bool(w) and sep not in w and w in text

    def words_of_length(self, length: int) -> tuple[Word, ...]:
        """Sorted tuple of the factors of exactly the given length."""
        return tuple(sorted({r[:length] for r in self.roots if len(r) >= length}))

    def require_saturated(self) -> None:
        if not self.saturated:
            raise UnsaturatedFactorSetError(
                "factor set was capped before reaching its fixed point "
                f"(max_length={self.max_length}, rounds={self.rounds})"
            )


@dataclass(frozen=True)
class CodedWords:
    """Distinct words in sorted order, with the arrays that walk their prefix levels.

    Two words share a class at length L when their prefixes of length L are
    equal.  In sorted order the words of a class are neighbours, so the
    common prefixes `lcp` of neighbours give every class at every length:
    `classes(L)` numbers them in sorted order, and a class begins at each
    word whose lcp is below L.  `link` and `reach` are the suffix links:
    for each word w, words[link] begins with the first `reach` letters of
    w[1:], and no word begins with more of them.
    """

    words: list[Word]
    lcp: np.ndarray  # with the word before; -1 for the first
    link: np.ndarray
    reach: np.ndarray

    def classes(self, length: int) -> np.ndarray:
        """The class of each word at the given length."""
        return np.cumsum(self.lcp < length) - 1

    def prefixes(self, length: int, kept: np.ndarray) -> list[Word]:
        """The prefixes of the given length of the classes marked in `kept`, sorted."""
        first = np.flatnonzero(self.lcp < length)
        return [self.words[i][:length] for i in first[kept[: len(first)]]]


def letter_codes(word: Word) -> np.ndarray:
    """The code points of `word`: one byte each when every letter is below U+0100, else four."""
    try:
        return np.frombuffer(word.encode("latin-1"), "u1")
    except UnicodeEncodeError:
        return np.frombuffer(word.encode("utf-32-le", "surrogatepass"), "<u4")


def _common_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the length of the common prefix of each pair of rows
    differ = a != b
    return np.where(differ.any(axis=1), differ.argmax(axis=1), a.shape[1])


def _code_rows(words: list[Word], letters: list[str], width: int) -> np.ndarray:
    # one row per word: each letter coded as 1 + its rank, padded with 0;
    # one byte a letter up to 255 letters, else four bytes, big-endian
    known = set(letters)
    pad = next(chr(i) for i in range(len(letters) + 1) if chr(i) not in known)
    top = max(ord(letters[-1]), ord(pad))
    text = "".join(w.ljust(width, pad) for w in words)
    table = np.zeros(top + 1, "u1" if len(letters) < 256 else ">u4")
    table[[ord(a) for a in letters]] = range(1, len(letters) + 1)
    return table[letter_codes(text)].reshape(len(words), width)


def code_words(words: Iterable[Word], letters: Iterable[str]) -> CodedWords:
    """Sort `words` and code each letter as 1 + its rank in code point order.

    The rows are padded with code 0 to the longest word, so the codes sort
    as the words do.  They are one byte each up to 255 letters and four
    bytes, big-endian, beyond, so that the rows read as byte strings sort
    the same way: one `searchsorted` of the rows less their first letter
    then finds, for each word, the neighbour that shares the longest prefix
    with its suffix.
    """
    words = sorted(set(words))
    n = len(words)
    rows = _code_rows(words, sorted(letters), max(map(len, words), default=1))
    keys = rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()
    shifted = np.zeros_like(rows)
    shifted[:, :-1] = rows[:, 1:]
    at = np.searchsorted(keys, shifted.view(keys.dtype).ravel())
    below, above = np.maximum(at - 1, 0), np.minimum(at, n - 1)
    with_below = _common_prefix(shifted, rows[below])
    with_above = _common_prefix(shifted, rows[above])
    lengths = np.fromiter(map(len, words), int, n)
    lcp = np.full(n, -1)
    lcp[1:] = _common_prefix(rows[1:], rows[:-1])
    return CodedWords(
        words=words,
        lcp=lcp,
        link=np.where(with_above >= with_below, above, below),
        reach=np.minimum(np.maximum(with_below, with_above), lengths - 1),
    )


MAX_WORDS = 10**6  # the most maximal words factor_language stores


def factor_language(s, max_length: int) -> FactorSet:
    """Factors of length <= max_length of all iterates S^k(a), a in the alphabet.

    Closure at the fixed depth n = max_length over the maximal words.
    Round 0 seeds the letters.  New length-n factors arrive as runs of
    consecutive windows of one text, each queued as the factor r it spans,
    with c = |r| - n + 1 windows.  Round k applies S once to each run r of
    round k-1 and harvests the windows of S(r) that start before
    |S(r[:c])|, and every length-n window of the image of each letter's end
    word E_{k-1}(a): the last n letters of S^(k-1)(a), or all of it while it
    is shorter.  E_k(a) is the last n letters of that image; while S^k(a) is
    shorter than n it is stored whole as a maximal word.  Each end word is
    expanded once: an end word seen before keeps the end word of its image,
    and the windows and the short iterate of that image are stored already.

    Runs: a window of S(r) that starts inside S(r[j]), j < c, lies inside
    S(u) for the window u = r[j:j+n], as |S(u[1:])| >= n - 1.  So S(r)
    yields, in order, exactly the windows that expanding each u alone at
    the windows starting inside S(u[0]) would: every round finds the words
    of that per-window closure, and a letter is expanded about once per
    run, not once per window that holds it.

    Covering: S is non-erasing, so a window v of length <= n of
    S^k(a) = S(x), x = S^(k-1)(a), starts inside S(x[j]) for some j.  If
    j + n <= |x|, u = x[j:j+n] is a factor of length n, found in a round
    before k and expanded in its run in the round after, and v fits inside
    S(u).  Otherwise x[j] lies in the end word E_{k-1}(a), whose image is a
    suffix of S^k(a) holding v.  So after round k the windows of S^0(a),
    ..., S^k(a) over all letters a are F_k: the subwords of the stored
    maximal words.  A window of S^k(a) at p is a prefix of the length-n
    window at p or of a suffix of E_k(a), so F_k is also the set of
    prefixes of the roots, from which `FactorSet` derives its views.

    Stopping: the round adds nothing to F_k exactly when it finds no new
    length-n factor and every short iterate S^k(a) is already a subword of
    a stored word: a new word of length < n is a prefix of a new length-n
    factor or a subword of a suffix of E_k(a), and the subwords of a
    length-n E_k(a) that was known before are known.  Suppose
    F_k = F_{k-1}.  Each window v of S^(k+1)(a) lies, by the covering
    argument, in S(u) for some u of F_k, which lies in some S^i(b) with
    i < k, so v lies in S^(i+1)(b) and is in F_k.  Hence F_{k+1} = F_k,
    and by induction F_k holds every factor of length <= n.  A round that
    does not end the closure stores a new maximal word, so the rounds are
    at most one more than the maximal words, and MAX_WORDS alone bounds
    them: a round that leaves more than MAX_WORDS maximal words short of
    the fixed point yields an explicit unsaturated result, never a silent
    truncation.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    n = max_length
    apply = s.apply
    letters = list(s.letters)
    maximal: set[str] = set()
    ends: set[str] = set()
    fresh: list[str] = []  # runs of new length-n factors found in the current round

    def harvest(text: str, stop: int) -> None:
        # queue each run of new length-n windows starting before `stop`; i = top ends the last
        top = min(stop, len(text) - n + 1)
        first = 0
        for i in range(top + 1):
            if i < top and (w := text[i : i + n]) not in maximal:
                maximal.add(w)
                continue
            if first < i:
                fresh.append(text[first : i + n - 1])
            first = i + 1

    def advance(images: Iterable[str]) -> bool:
        # harvest each image and keep its end word; True when the round adds
        # nothing.  Short iterates are stored whether or not they are new,
        # and searched in the maximal words only in a round without new
        # length-n factors, the only round where that decides anything
        short: set[str] = set()
        for image in images:
            harvest(image, len(image))
            tail = image[-n:]
            ends.add(tail)
            if len(tail) < n and tail not in maximal:
                short.add(tail)
        quiet = not fresh and all(any(t in m for m in maximal) for t in short)
        maximal.update(short)
        return quiet

    tails = {a: a for a in letters}
    advance(letters)
    expanded: dict[str, str] = {}  # each end word expanded, to its image's end word

    saturated = False
    rounds = 0
    while not saturated and len(maximal) <= MAX_WORDS:
        rounds += 1
        batch, fresh = fresh, []
        for run in batch:
            c = len(run) - n + 1  # windows in the run
            head = apply(run[:c])
            harvest(head + apply(run[c:]), len(head))
        images = {end: apply(end) for end in tails.values() if end not in expanded}
        expanded.update((end, image[-n:]) for end, image in images.items())
        tails = {a: expanded[end] for a, end in tails.items()}
        saturated = advance(images.values())

    return FactorSet(
        substitution=s,
        max_length=max_length,
        maximal=frozenset(maximal),
        ends=frozenset(ends),
        saturated=saturated,
        rounds=rounds,
    )


class CoverageUndecidedError(SubstitutionError):
    """`coverage_exact` hit its round cap before its summaries repeated."""


# rounds of the coverage fold before it reports undecided
FOLD_ROUNDS = 1024


def coverage_exact(s, targets: Iterable[Word]) -> int:
    """Smallest L >= max |t| with: every factor of length L contains every target.

    It gives the pair-coverage length G of the repetitivity constant; for
    the gap bound kappa of a single letter, the longest return word gives
    the same value without a fold, and the tests compare the two.  Exact
    and without a factor set: with A the length of the longest factor
    of the language that avoids some target, the answer is
    max(max |t|, A + 1), and A is folded from the letter images.

    Summary: for a target t of length m, a word x is summarized by its first
    and last m - 1 letters (all of x while shorter), whether x is t-free,
    its longest t-free prefix and suffix, and |x| while x is t-free (else
    0).  The summary of a product xy follows from those of x and y: an
    occurrence of t in xy lies in x, in y, or crosses the seam, and a
    crossing one lies in the junction word suffix(x) + prefix(y), using s
    letters of x (1 <= s <= m - 1).  The t-free prefix of xy is that of x
    when x holds t, else it ends just before the end of the first crossing
    occurrence, else it runs into y; the suffix is symmetric.

    Crossing runs: a crossing occurrence rules out exactly the crossing
    runs with at least s letters of x and at least m - s of y, so the
    longest t-free run across the seam is x[-a:] y[:b] with a capped by the
    t-free suffix of x and by some s - 1, and b by the t-free prefix of y
    and by m - s - 1 for every occurrence with s <= a: at most m
    candidates.  A t-free factor of xy lies in x, in y or across the seam,
    so the longest one in S^k(a) is the longest of the letters' (1, or 0
    for t) and of the crossing runs of the joins that built it: the fold
    keeps their running maximum, and no summary carries it.

    Fold: round 0 summarizes the letters; round k + 1 summarizes
    S^(k+1)(a) by folding the summaries of S^k(b), b in S(a), over the
    letters of S(a).  The letters' summaries in round k + 1 and the
    crossing runs met on the way are functions of the summaries in round
    k, so once their tuple repeats, every later round repeats an earlier
    one and the fold stops.  Every factor is a subword of some S^k(a), so
    A is the running maximum then.  Dropping the longest t-free factor
    from the summaries only projects them, so the tuple repeats no later.

    Stopping: when A is finite, every number in a summary is at most A and
    the letter strings have at most m - 1 letters, so the tuple repeats.
    When some target is avoided by arbitrarily long factors (a letter
    without bounded gaps, or a target outside the language), the crossing
    runs grow without bound and nothing repeats; after FOLD_ROUNDS rounds,
    of sum |S(a)| joins per target each, `CoverageUndecidedError` says so.
    """
    targets = tuple(targets)
    if not targets or not all(targets):
        raise ValueError("coverage needs nonempty targets")
    rules = s.rules
    letters = list(s.letters)
    avoid = 0
    # a word free of t is free of every word containing t, so only the
    # targets inside no longer target can reach the maximum
    by_length = sorted(set(targets), key=len)
    lengths = [len(u) for u in by_length]
    for t in dict.fromkeys(targets):
        if any(t in u for u in by_length[bisect_right(lengths, len(t)) :]):
            continue
        m = len(t)
        k = m - 1

        def join(x, y):
            nonlocal avoid
            xpre, xsuf, xfree, xhead, xtail, xn = x
            ypre, ysuf, yfree, yhead, ytail, yn = y
            pre = xpre if len(xpre) == k else (xpre + ypre)[:k]
            suf = ysuf if len(ysuf) == k else (xsuf + ysuf)[-k:]
            seam = xsuf + ypre
            i = seam.find(t)
            if i < 0:  # nothing crosses the seam
                if xtail + yhead > avoid:
                    avoid = xtail + yhead
                free = xfree and yfree
                head = xn + yhead if xfree else xhead
                tail = xtail + yn if yfree else ytail
                return pre, suf, free, head, tail, xn + yn if free else 0
            # letters of x used by each occurrence of t across the seam
            cut = len(xsuf)
            uses = []
            while i >= 0:
                uses.append(cut - i)
                i = seam.find(t, i + 1)
            head = xn + m - uses[0] - 1 if xfree else xhead
            tail = yn + uses[-1] - 1 if yfree else ytail
            for cap in [xtail] + [u - 1 for u in uses]:
                a = min(xtail, cap)
                avoid = max(avoid, a + min([yhead] + [m - u - 1 for u in uses if u <= a]))
            return pre, suf, False, head, tail, 0

        free = {a: a != t for a in letters}
        level = {a: (a[:k], a[:k], f, int(f), int(f), int(f)) for a, f in free.items()}
        avoid = max(avoid, *map(int, free.values()))
        seen = set()
        for _ in range(FOLD_ROUNDS + 1):
            key = tuple(level.values())
            if key in seen:
                break
            seen.add(key)
            nxt = {}
            for a in letters:
                image = rules[a]
                acc = level[image[0]]
                for b in image[1:]:
                    acc = join(acc, level[b])
                nxt[a] = acc
            level = nxt
        else:
            raise CoverageUndecidedError(
                f"undecided-at-depth: the coverage fold for {t!r} did not repeat "
                f"within {FOLD_ROUNDS} rounds"
            )
    return max(max(map(len, targets)), avoid + 1)


def gap_bound(factors: FactorSet, v: Word) -> int:
    """Smallest L with: every factor of length L contains `v`, from `coverage_exact`."""
    return coverage_exact(factors.substitution, (v,))


def return_words(v: Word, factors: FactorSet) -> frozenset[Word]:
    """All x with xv in the language, xv starting with v and containing v exactly twice.

    Read from the roots: xv is a prefix of some root r, which then starts
    with v and has its next occurrence of v at |x|.  The set is complete
    when the factor set is at least kappa + |v| deep, with kappa a gap bound
    for v: a return word x longer than kappa would have a factor
    x[1:kappa + 1] of length kappa, holding a third occurrence of v.
    """
    factors.require_saturated()
    if v not in factors:
        raise ValueError(f"{v!r} is not a factor at depth {factors.max_length}")
    found = set()
    for r in factors.roots:
        if r.startswith(v):
            j = r.find(v, 1)
            if j > 0:
                found.add(r[:j])
    return frozenset(found)


def find_power(
    factors: FactorSet,
    base_constraint: Callable[[Word], bool],
    exponent: int,
) -> Word | None:
    """Shortest u with base_constraint(u) and u^exponent + u[0] in the language.

    Ties are broken lexicographically.  Returns None when nothing is found
    within the factor-set depth (a value, not an error: deeper sets may
    still succeed).
    """
    factors.require_saturated()
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    longest_base = (factors.max_length - 1) // exponent
    for m in range(1, longest_base + 1):
        powers = set(factors.words_of_length(m * exponent + 1))
        for u in factors.words_of_length(m):
            if base_constraint(u) and u * exponent + u[0] in powers:
                return u
    return None

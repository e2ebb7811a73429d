"""Finite-word primitives and the factor language of a substitution.

Words are plain Python strings over single-character letters.  The factor
language of a substitution S collects every subword of length <= n of every
iterate S^k(a), a in the alphabet.  `factor_language` builds it by a closure
at the fixed depth n: each round expands the length-n factors found in the
round before, only at the windows that start inside the image of their first
letter, plus the image of each letter's end word (the last n letters of
S^k(a)).  The cost follows the number of factors, not the length of the
iterates, and the set is exact once a round adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

Word = str


class UnsaturatedFactorSetError(ValueError):
    """An operation required a saturated factor set but got a capped one."""


def count_occurrences(pattern: Word, text: Word) -> int:
    """Number of (possibly overlapping) occurrences of `pattern` in `text`.

    The empty pattern is rejected: it would occur at every position and
    poisons every counting argument built on top of this.
    """
    if not pattern:
        raise ValueError("occurrence counting needs a nonempty pattern")
    count = 0
    start = 0
    while True:
        i = text.find(pattern, start)
        if i < 0:
            return count
        count += 1
        start = i + 1


def subwords(w: Word, max_length: int) -> set[Word]:
    """All nonempty factors of `w` of length <= max_length."""
    n = len(w)
    out: set[str] = set()
    for i in range(n):
        top = min(max_length, n - i)
        for length in range(1, top + 1):
            out.add(w[i : i + length])
    return out


@dataclass
class FactorSet:
    """Factors of a substitution language up to `max_length`.

    `saturated` is True when the closure iteration reached a fixed point, in
    which case `words` is exactly the set of nonempty factors of length
    <= max_length.  `witnesses` maps each factor w to a pair (a, n) with w a
    subword of S^n(a); witnesses are kept so they can be re-checked.
    """

    substitution: object
    max_length: int
    words: frozenset[Word]
    saturated: bool
    witnesses: dict[Word, tuple[str, int]]
    rounds: int
    _by_length: dict[int, tuple[Word, ...]] = field(default_factory=dict, repr=False)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def words_of_length(self, length: int) -> tuple[Word, ...]:
        """Sorted tuple of the factors of exactly the given length."""
        if not self._by_length:
            grouped: dict[int, list[Word]] = {}
            for w in self.words:
                grouped.setdefault(len(w), []).append(w)
            for k, ws in grouped.items():
                ws.sort()
                self._by_length[k] = tuple(ws)
        return self._by_length.get(length, ())

    def complexity(self, length: int) -> int:
        """Factor-count p(length)."""
        return len(self.words_of_length(length))

    def require_saturated(self) -> None:
        if not self.saturated:
            raise UnsaturatedFactorSetError(
                "factor set was capped before reaching its fixed point "
                f"(max_length={self.max_length}, rounds={self.rounds})"
            )


def factor_language(
    s,
    max_length: int,
    *,
    max_rounds: int | None = None,
    max_words: int = 10**6,
) -> FactorSet:
    """Factors of length <= max_length of all iterates S^k(a), a in the alphabet.

    Closure at the fixed depth n = max_length.  Round 0 seeds the letters.
    Round k expands, for every factor u of length n found in round k-1, the
    windows of S(u) that start inside S(u[0]), and every window of the image
    of each letter's end word E_{k-1}(a): the last n letters of S^(k-1)(a),
    or all of it while it is shorter.  A word found in round k lies in
    S^k(a), with a the witness letter of the factor or end word it came
    from, and (a, k) is kept as its witness.

    Covering: S is non-erasing, so a window v of length <= n of
    S^k(a) = S(x), x = S^(k-1)(a), starts inside S(x[j]) for some j.  If
    j + n <= |x|, then u = x[j:j+n] is a factor of length n and v fits
    inside S(u), because |S(u[1:])| >= n - 1; u was found in some round
    before k and expanded in the round after it.  Otherwise x[j] lies in the
    end word E_{k-1}(a), whose image is a suffix of S^k(a) holding v.  So
    after round k the set F_k is exactly the windows of S^0(a), ..., S^k(a)
    over all letters a.

    Stopping: suppose round k adds nothing, F_k = F_{k-1}.  Each window v of
    S^(k+1)(a) lies, by the covering argument, in S(u) for some u of F_k: a
    length-n factor of S^k(a) or its end word.  As u is in F_{k-1}, it lies
    in some S^i(b) with i < k, so v lies in S^(i+1)(b) and is in F_k.  Hence
    F_{k+1} = F_k, and by induction F_k holds every factor of length <= n.
    Hitting `max_rounds` (default max(64, 3 * max_length + 16)) or
    `max_words` yields an explicit unsaturated result, never a silent
    truncation.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if max_rounds is None:
        max_rounds = max(64, 3 * max_length + 16)
    n = max_length
    rules = s.rules
    apply = s.apply
    letters = list(s.letters)
    words: set[str] = set()
    witnesses: dict[str, tuple[str, int]] = {}
    fresh: list[str] = []  # factors of length n found in the current round

    def harvest(text: str, stop: int, origin: tuple[str, int]) -> None:
        # windows starting before `stop`; `words` stays prefix-closed: at each
        # position add windows longest first and stop at the first known one,
        # whose prefixes are all known
        for i in range(min(stop, len(text))):
            length = min(n, len(text) - i)
            while length >= 1:
                w = text[i : i + length]
                if w in words:
                    break
                words.add(w)
                witnesses[w] = origin
                if length == n:
                    fresh.append(w)
                length -= 1

    for a in letters:
        harvest(a, 1, (a, 0))
    ends = {a: a for a in letters}

    saturated = False
    rounds = 0
    for k in range(1, max_rounds + 1):
        rounds = k
        size = len(words)
        batch, fresh = fresh, []
        for u in batch:
            harvest(apply(u), len(rules[u[0]]), (witnesses[u][0], k))
        for a in letters:
            image = apply(ends[a])
            ends[a] = image[-n:]
            harvest(image, len(image), (a, k))
        if len(words) > max_words:
            break
        if len(words) == size:
            saturated = True
            break

    return FactorSet(
        substitution=s,
        max_length=max_length,
        words=frozenset(words),
        saturated=saturated,
        witnesses=witnesses,
        rounds=rounds,
    )


def repetitivity_function(factors: FactorSet, n: int) -> int | None:
    """Smallest L with: every factor of length L contains every factor of length n.

    Returns None when no such L exists within factors.max_length (the
    sentinel case; e.g. a letter that does not occur with bounded gaps).
    Monotone in L, so the first success of the upward scan is the minimum.
    """
    factors.require_saturated()
    if n < 1 or n > factors.max_length:
        raise ValueError(f"n={n} outside 1..{factors.max_length}")
    targets = factors.words_of_length(n)
    if not targets:
        raise ValueError(f"factor set has no words of length {n}")
    for L in range(n, factors.max_length + 1):
        candidates = factors.words_of_length(L)
        if candidates and all(t in w for w in candidates for t in targets):
            return L
    return None


def gap_bound(factors: FactorSet, v: Word) -> int | None:
    """Smallest L with: every factor of length L contains `v` (None if not found)."""
    factors.require_saturated()
    for L in range(len(v), factors.max_length + 1):
        candidates = factors.words_of_length(L)
        if candidates and all(v in w for w in candidates):
            return L
    return None


@dataclass(frozen=True)
class ReturnWordSet:
    """Return words of a word v, with a completeness certificate.

    `complete` is True when the factor set is provably deep enough to contain
    every return word: any return word x of v satisfies |x| <= kappa, where
    kappa is a certified gap bound for v (a strictly interior occurrence of v
    inside a window of length kappa would be a third occurrence), so depth
    kappa + |v| suffices.
    """

    base: Word
    words: frozenset[Word]
    complete: bool
    kappa: int | None
    max_observed_gap: int | None


def return_words(s, v: Word, factors: FactorSet) -> ReturnWordSet:
    """All x with xv in the language, xv starting with v and containing v exactly twice."""
    factors.require_saturated()
    if v not in factors:
        raise ValueError(f"{v!r} is not a factor at depth {factors.max_length}")
    found = set()
    max_gap = None
    for w in factors.words:
        if len(w) > len(v) and w.startswith(v) and w.endswith(v):
            if count_occurrences(v, w) == 2:
                x = w[: len(w) - len(v)]
                found.add(x)
                gap = len(x)
                max_gap = gap if max_gap is None else max(max_gap, gap)
    kappa = gap_bound(factors, v)
    complete = kappa is not None and factors.max_length >= kappa + len(v)
    return ReturnWordSet(
        base=v,
        words=frozenset(found),
        complete=complete,
        kappa=kappa,
        max_observed_gap=max_gap,
    )


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
        for u in factors.words_of_length(m):
            if base_constraint(u) and (u * exponent + u[0]) in factors:
                return u
    return None


def palindromes(factors: FactorSet) -> list[Word]:
    """All palindromic factors, sorted by length then lexicographically."""
    factors.require_saturated()
    return sorted((w for w in factors.words if w == w[::-1]), key=lambda w: (len(w), w))


def distinct_windows(text: str, length: int) -> set[str]:
    """Distinct length-`length` windows of a long sample string."""
    return {text[i : i + length] for i in range(len(text) - length + 1)}

"""Substitution morphisms: validity, bounded/growing letters, reduction, growth.

A substitution maps each letter of a finite alphabet to a nonempty word and
extends to words multiplicatively.  This module owns the exact combinatorial
machinery around it: the occurrence matrix (abelianization), the split of the
alphabet into bounded and growing letters, the reduced substitution obtained
by erasing bounded letters, primitivity, Perron growth constants, iterate
prefixes (the fixed-point words the applications read), and the
compatibility check between the finite-word language and the two-sided
subshift it generates.

All counting is done with exact integer arithmetic (one length table per
substitution over Python ints, int64 products only below 2^63, letter-set
orbits for primitivity); floating point only enters the growth-constant ratios.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np


class SubstitutionError(Exception):
    """Base error for invalid substitutions or unmet preconditions."""


class ErasingRuleError(SubstitutionError):
    pass


class UnknownLetterError(SubstitutionError):
    pass


class EmptySubshiftError(SubstitutionError):
    """No letter has unboundedly growing images; the subshift is empty."""


class NotPrimitiveError(SubstitutionError):
    pass


class Alphabet:
    """Ordered finite alphabet; every letter is one character carrying a real value.

    The values are the points of the real line the letters stand for; they
    are only consumed by the spectral operators.  Two letters may share a
    value only when explicitly allowed.
    """

    def __init__(
        self,
        letters: Iterable[str],
        values: Mapping[str, float] | None = None,
        *,
        allow_duplicate_values: bool = False,
    ):
        self.letters: tuple[str, ...] = tuple(letters)
        if not self.letters:
            raise SubstitutionError("alphabet must be nonempty")
        for ch in self.letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise SubstitutionError(f"letters must be single characters, got {ch!r}")
        if len(set(self.letters)) != len(self.letters):
            raise SubstitutionError("duplicate letters in alphabet")
        if values is None:
            values = {ch: float(i) for i, ch in enumerate(self.letters)}
        missing = [ch for ch in self.letters if ch not in values]
        if missing:
            raise SubstitutionError(f"missing values for letters {missing}")
        self.values: dict[str, float] = {ch: float(values[ch]) for ch in self.letters}
        for ch, v in self.values.items():
            if not math.isfinite(v):
                raise SubstitutionError(f"letter values must be finite, got {v} for {ch!r}")
        if not allow_duplicate_values:
            if len({self.values[ch] for ch in self.letters}) != len(self.letters):
                raise SubstitutionError(
                    "duplicate letter values (pass allow_duplicate_values=True to permit)"
                )

    def __contains__(self, ch: str) -> bool:
        return ch in self.values

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"


class _ByLetter(dict):
    """A lookup table by letter whose missing letters raise a typed error."""

    def __missing__(self, letter: str) -> str:
        raise UnknownLetterError(f"letter {letter!r} is not in the alphabet")


class Substitution:
    """A non-erasing substitution over an Alphabet.

    `rules[a]` is the image word of the letter a.  Instances are treated as
    immutable; derived data (image lengths, the alphabet split) is cached.
    """

    def __init__(self, alphabet: Alphabet, rules: Mapping[str, str], name: str | None = None):
        self.alphabet = alphabet
        self.name = name
        self.rules: dict[str, str] = {}
        for ch in alphabet.letters:
            if ch not in rules:
                raise SubstitutionError(f"no rule for letter {ch!r}")
            image = rules[ch]
            if not image:
                raise ErasingRuleError(f"rule for {ch!r} is erasing (empty image)")
            for x in image:
                if x not in alphabet:
                    raise UnknownLetterError(f"rule for {ch!r} uses unknown letter {x!r}")
            self.rules[ch] = image
        extra = set(rules) - set(alphabet.letters)
        if extra:
            raise UnknownLetterError(f"rules given for letters outside the alphabet: {sorted(extra)}")
        self._rank = _ByLetter((a, i) for i, a in enumerate(alphabet.letters))
        self._rows: list[list[int]] = [[1] * len(alphabet.letters)]
        self._image_of = _ByLetter(self.rules).__getitem__
        self._image_letters = {a: frozenset(w) for a, w in self.rules.items()}

    @classmethod
    def from_rules(
        cls,
        rules: Mapping[str, str],
        name: str | None = None,
        values: Mapping[str, float] | None = None,
        *,
        allow_duplicate_values: bool = False,
    ) -> "Substitution":
        alphabet = Alphabet(sorted(rules), values, allow_duplicate_values=allow_duplicate_values)
        return cls(alphabet, rules, name)

    @property
    def letters(self) -> tuple[str, ...]:
        return self.alphabet.letters

    def apply(self, w: str) -> str:
        return "".join(map(self._image_of, w))

    def iterate(self, w: str, n: int) -> str:
        for _ in range(n):
            w = self.apply(w)
        return w

    def abelianization(self) -> list[list[int]]:
        """Occurrence matrix M with M[i][j] = (count of letter j in the image of letter i)."""
        letters = self.letters
        return [[self.rules[a].count(b) for b in letters] for a in letters]

    def lengths(self, w: str, n: int) -> list[int]:
        """[|S^k(w)| for k = 0..n] in Python ints, from one table of the rows
        L_k = (|S^k(a)|)_a, grown on demand by L_(k+1) = M L_k over the
        nonzero entries of the occurrence matrix M (`abelianization`)."""
        if n < 0:
            raise ValueError(f"need n >= 0 for the lengths, got {n}")
        rows = self._rows
        while len(rows) <= n:
            last, row = rows[-1], []
            for step in self._steps:
                x = 0
                for j, m in step:
                    x += m * last[j]
                row.append(x)
            rows.append(row)
        total = [0] * (n + 1)
        for ch in dict.fromkeys(w):  # the first foreign letter raises
            i, k = self._rank[ch], w.count(ch)
            total = [x + k * row[i] for x, row in zip(total, rows)]
        return total

    @cached_property
    def _steps(self) -> list[list[tuple[int, int]]]:
        """The nonzero entries (j, M[i][j]) of each row i of the occurrence matrix."""
        return [[(j, m) for j, m in enumerate(row) if m] for row in self.abelianization()]

    @cached_property
    def split(self) -> "AlphabetSplit":
        """The bounded/growing split of the alphabet, from `bounded_letters`."""
        return bounded_letters(self)

    def letter_set_orbit(self, letter: str) -> tuple[list[frozenset[str]], int, int]:
        """The sequence letters(S^n(letter)) up to its cycle.

        Returns (sets, preperiod, period) with sets[n] = letters of S^n(letter)
        for n < preperiod + period; the tail repeats with the given period.
        """
        seen: dict[frozenset[str], int] = {}
        sets: list[frozenset[str]] = []
        cur = frozenset({letter})
        while cur not in seen:
            seen[cur] = len(sets)
            sets.append(cur)
            cur = frozenset().union(*map(self._image_letters.__getitem__, cur))
        preperiod = seen[cur]
        period = len(sets) - preperiod
        return sets, preperiod, period

    def __repr__(self) -> str:
        rules = ", ".join(f"{a}->{self.rules[a]}" for a in self.letters)
        label = f" {self.name!r}" if self.name else ""
        return f"Substitution({rules}{label})"


@dataclass(frozen=True)
class AlphabetSplit:
    """Bounded letters B (images stay bounded) versus growing letters C.

    `eternally_single` are the letters whose every iterated image is a single
    letter; they form the core of B.  B is invariant under the substitution.
    `orbits[a]` is `letter_set_orbit(a)`; `reach[a]`, the union of its sets,
    holds the letters of every S^n(a), since the tail repeats the cycle.
    The `candidates` are the growing letters that reach every letter, in
    alphabet order.  `shapes[c]`, for each growing letter c in alphabet
    order, is S(c) cut at its growing letters: the bounded runs and the
    growing letters alternate, runs at both ends (possibly empty), so
    `shapes[c][1::2]` are the growing letters of S(c), in order, and
    `shapes[c][0::2]` the runs before, between and after them.
    """

    bounded: frozenset[str]
    growing: frozenset[str]
    eternally_single: frozenset[str]
    orbits: dict[str, tuple[list[frozenset[str]], int, int]] = field(repr=False)
    reach: dict[str, frozenset[str]] = field(repr=False)
    candidates: tuple[str, ...]
    shapes: dict[str, tuple[str, ...]] = field(repr=False)


def stable_letters(step: Mapping[str, str]) -> frozenset[str]:
    """The letters a whose chain a -> step[a] -> step[step[a]] -> ... never
    leaves the keys of `step`: drop those stepping out until none do."""
    kept = set(step)
    while True:
        inside = {a for a in kept if step[a] in kept}
        if inside == kept:
            return frozenset(kept)
        kept = inside


def bounded_letters(s: Substitution) -> AlphabetSplit:
    """Exact B/C split via letter-content cycles, one orbit per letter.

    A letter is bounded iff every letter set on the cycle of
    n |-> letters(S^n(a)) consists of eternally-single letters: image length
    is non-decreasing, and any recurring letter that ever branches pumps the
    length up unboundedly.  Terminates because there are at most 2^|A|
    letter sets.  The orbits are kept on the split, with the reach and the
    candidates read off them, so no later stage walks the letter sets again;
    so is each growing letter's image, cut once at its growing letters by one
    `re.split`, so no later stage scans an image for them.  An image of a
    growing letter with no growing letter raises SubstitutionError.
    """
    eternally_single = stable_letters({a: w for a, w in s.rules.items() if len(w) == 1})
    orbits = {a: s.letter_set_orbit(a) for a in s.letters}
    bounded = frozenset(
        a
        for a, (sets, start, _) in orbits.items()
        if all(st <= eternally_single for st in sets[start:])
    )
    growing = frozenset(s.letters) - bounded
    reach = {a: frozenset().union(*sets) for a, (sets, _, _) in orbits.items()}
    candidates = tuple(a for a in s.letters if a in growing and len(reach[a]) == len(s.letters))
    shapes = {}
    if growing:
        cut = re.compile(f"([{''.join(map(re.escape, sorted(growing)))}])")
        for c in (a for a in s.letters if a in growing):
            shapes[c] = tuple(cut.split(s.rules[c]))
            if len(shapes[c]) == 1:
                raise SubstitutionError(f"the image of the growing letter {c!r} holds none")
    return AlphabetSplit(bounded, growing, eternally_single, orbits, reach, candidates, shapes)


@dataclass
class ValidationReport:
    """Outcome of structural validation of a substitution.

    `witness` is a growing letter chosen to maximize reachability; every
    letter occurs in some iterate of it (after which no pruning is needed)
    exactly when the split has candidates, `substitution.split.candidates`.
    """

    substitution: Substitution
    witness: str


def _real(x: object) -> float:
    """A JSON number as a float: true, false and numeric strings are not numbers."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def validate(definition: Mapping | Substitution) -> ValidationReport:
    """Build and validate a substitution from a definition mapping.

    The mapping uses the on-disk shape: {"name", "alphabet": [{"symbol",
    "value"}...], "rules": {...}}, or simply {"rules": ...}.  A Substitution
    instance is accepted as-is.  Raises EmptySubshiftError when no letter
    grows.
    """
    if isinstance(definition, Substitution):
        s = definition
    elif not isinstance(definition, Mapping):
        raise SubstitutionError(f"definition must be an object, got {type(definition).__name__}")
    else:
        name = definition.get("name")
        if name is not None and not isinstance(name, str):
            raise SubstitutionError(f"'name' must be a string, got {name!r}")
        rules = definition.get("rules")
        if not isinstance(rules, Mapping) or not rules:
            raise SubstitutionError("definition needs a nonempty 'rules' mapping")
        for k, v in rules.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise SubstitutionError(
                    f"rules must map symbol strings to word strings, got {k!r}: {v!r}"
                )
        allow_dupes = definition.get("allow_duplicate_values", False)
        if not isinstance(allow_dupes, bool):
            raise SubstitutionError(
                f"'allow_duplicate_values' must be true or false, got {allow_dupes!r}"
            )
        alpha_entries = definition.get("alphabet")
        if alpha_entries is not None:
            try:
                letters = [entry["symbol"] for entry in alpha_entries]
                values = {entry["symbol"]: _real(entry["value"]) for entry in alpha_entries}
            except (TypeError, KeyError, OverflowError) as exc:
                raise SubstitutionError(
                    "alphabet entries must be objects with 'symbol' and a real 'value' "
                    f"({exc!r})"
                ) from exc
            coupling = definition.get("potential_coupling")
            if coupling is not None:
                try:
                    coupling = _real(coupling)
                except (TypeError, OverflowError) as exc:
                    raise SubstitutionError(
                        f"'potential_coupling' must be a real number, got {coupling!r}"
                    ) from exc
                values = {ch: coupling * v for ch, v in values.items()}
            alphabet = Alphabet(letters, values, allow_duplicate_values=allow_dupes)
        else:
            alphabet = Alphabet(sorted(rules), allow_duplicate_values=allow_dupes)
        s = Substitution(alphabet, rules, name)

    split = s.split
    if not split.growing:
        raise EmptySubshiftError(
            "no letter has unbounded image growth; the two-sided subshift is empty"
        )
    # the growing letter that reaches the most letters (ties: alphabet order)
    witness = max((e for e in s.letters if e in split.growing), key=lambda e: len(split.reach[e]))
    return ValidationReport(substitution=s, witness=witness)


def _on_letters(s: Substitution, rules: dict[str, str], name: str | None) -> Substitution:
    """The substitution `rules` on the keys of `rules`, in order, with `s`'s letter values."""
    values = s.alphabet.values
    alphabet = Alphabet(rules, {a: values[a] for a in rules}, allow_duplicate_values=True)
    return Substitution(alphabet, rules, name)


def prune_to_reachable(s: Substitution, witness: str) -> Substitution:
    """Restrict the substitution to the letters reachable from `witness`."""
    keep = s.split.reach[witness]
    return _on_letters(s, {a: s.rules[a] for a in s.letters if a in keep}, s.name)


def reduced_substitution(s: Substitution) -> Substitution:
    """Erase bounded letters from every rule, leaving a substitution on the growing letters.

    With pi the erasure of the bounded letters B and S' the reduced
    substitution, pi(S^n(w)) = S'^n(pi(w)) for every word w and every n
    >= 0, so one check of the letters settles every depth.  Both pi o S and
    S' o pi are morphisms, so they agree on every word once they agree on
    every letter, and then the identity for n follows from the one for
    n - 1.  For a growing letter c, pi(S(c)) = S'(c) = S'(pi(c)) by the
    definition of S'.  For a bounded letter b, S'(pi(b)) is empty, and
    pi(S(b)) is empty exactly when S(b) lies in B*.  So erasure commutes
    with S exactly when no bounded letter's image holds a growing letter,
    which `bounded_letters` guarantees (B is invariant).  The result need
    not be primitive or even growing without a bounded-gaps certificate.
    """
    shapes = s.split.shapes
    if not shapes:
        raise EmptySubshiftError("cannot reduce: no growing letters")
    rules = {c: "".join(shape[1::2]) for c, shape in shapes.items()}
    return _on_letters(s, rules, s.name and s.name + "~")


@dataclass(frozen=True)
class PrimitivityResult:
    primitive: bool
    power: int | None
    zero_entry: tuple[int, str, str] | None


def is_primitive(s: Substitution) -> PrimitivityResult:
    """Primitivity read off the letter-set orbits of `s.split`.

    Row a of M^r has a nonzero entry at b exactly when b is a letter of
    S^r(a), so it is the set at step r of `orbits[a]`.  M^r is entrywise
    positive for some r exactly when every orbit cycles on the one set of
    all letters (a letter in no image leaves its column zero in every M^r,
    r >= 1), and the least such r >= 1 is the largest preperiod, since a
    set before the cycle differs from the sets on it.  Otherwise no power
    is positive; if one were, r = (n-1)^2 + 1 would already be, and the
    first zero entry of M^r at that bound, in row-major order, is returned
    as the certificate of failure.
    """
    letters = s.letters
    every = frozenset(letters)
    orbits = s.split.orbits
    if all(sets[start:] == [every] for sets, start, _ in orbits.values()):
        power = max(1, max(start for _, start, _ in orbits.values()))
        return PrimitivityResult(primitive=True, power=power, zero_entry=None)
    bound = (len(letters) - 1) ** 2 + 1
    for a in letters:
        sets, start, period = orbits[a]
        row = sets[bound] if bound < len(sets) else sets[start + (bound - start) % period]
        if row != every:
            b = next(b for b in letters if b not in row)
            return PrimitivityResult(primitive=False, power=None, zero_entry=(bound, a, b))


@dataclass
class GrowthEstimate:
    """Window constants for the growth sandwich lambda*theta^n <= |S^n(v)| <= rho*theta^n.

    lambda/rho are the extreme ratios |S^n(v)| / theta^n over v in `words`
    and 1 <= n <= n_checked; by construction the sandwich holds on exactly
    that range and nothing beyond it is claimed.
    """

    theta: float
    lambda_v: float
    rho_v: float
    words: tuple[str, ...]
    n_checked: int


def perron_growth(
    s: Substitution,
    words_with_growing: Iterable[str],
    n_max: int = 30,
) -> GrowthEstimate:
    """Growth constants for a finite set of words, each containing a growing letter.

    theta is the Perron eigenvalue of the reduced substitution, which must be
    primitive: by Perron-Frobenius that eigenvalue is the spectral radius of
    its occurrence matrix, the largest modulus among the eigenvalues of one
    dense solve.  That matrix is the growing-letter block of the occurrence
    matrix of `s` (`abelianization`), as `reduced_substitution` keeps
    exactly the growing letters of each growing letter's image.  Its orbits
    are those of `s` cut to the growing letters, so it is primitive exactly
    when every set on the cycle of each growing letter's orbit holds all
    growing letters (`is_primitive`); the reduced system is built only to
    name the zero entry when it is not.  The lambda/rho constants are
    empirical extrema of the exact integer lengths |S^n(v)| of the original
    substitution against theta^n for n up to n_max (>= 1).
    """
    if n_max < 1:
        raise ValueError(f"growth constants need n_max >= 1, got {n_max}")
    split = s.split
    if not split.growing:
        raise EmptySubshiftError("cannot reduce: no growing letters")
    for c in split.growing:
        sets, start, _ = split.orbits[c]
        if not all(split.growing <= st for st in sets[start:]):
            prim = is_primitive(reduced_substitution(s))
            raise NotPrimitiveError(
                f"reduced substitution is not primitive (zero at {prim.zero_entry})"
            )
    word_list = tuple(sorted(set(words_with_growing)))
    if not word_list:
        raise ValueError("need at least one word")
    for v in word_list:
        if split.growing.isdisjoint(v):
            raise ValueError(f"word {v!r} contains no growing letter")
    m, growing = s.abelianization(), [i for i, c in enumerate(s.letters) if c in split.growing]
    block = [[m[i][j] for j in growing] for i in growing]
    theta = float(np.abs(np.linalg.eigvals(block)).max())
    lo, hi = growth_ratio_range(s, word_list, theta, n_max)
    return GrowthEstimate(theta=theta, lambda_v=lo, rho_v=hi, words=word_list, n_checked=n_max)


def growth_ratio_range(
    s: Substitution, words: Iterable[str], theta: float, n_max: int
) -> tuple[float, float]:
    """Least and greatest ratio |S^n(v)| / theta^n over 1 <= n <= n_max and v in `words`.

    Raises SubstitutionError, naming n_max and theta, when theta^n or
    |S^n(v)| leaves the float range.  The powers theta^n are computed once,
    before any length is.  As |S^n(v)| = sum_a c_v(a) |S^n(a)|, c_v(a) the
    count of a in v, the whole table is one product of the words' letter
    counts with the letters' exact length columns (`Substitution.lengths`):
    in int64 when max |v| * max_a |S^n_max(a)| < 2^63, which bounds every
    entry and partial sum, and in Python ints past that.  Each length is
    rounded to a float once either way.
    """
    words = tuple(words)
    joined = "".join(words)
    if not set(joined) <= set(s.letters):
        raise UnknownLetterError("a word uses a letter outside the alphabet")
    try:
        powers = [theta**n for n in range(1, n_max + 1)]
        columns = [s.lengths(a, n_max)[1:] for a in s.letters]
        sizes = [len(v) for v in words]
        dtype = np.int64 if max(sizes) * max(c[-1] for c in columns) < 2**63 else object
        # one row of letter counts per word, each letter read as its rank
        ranks = {ord(a): i for i, a in enumerate(s.letters)}
        rank = np.frombuffer(joined.translate(ranks).encode("utf-32-le"), "<u4")
        row = np.repeat(np.arange(len(words)) * len(ranks), sizes)
        counts = np.bincount(row + rank, minlength=len(words) * len(ranks))
        table = counts.reshape(len(words), -1).astype(dtype) @ np.array(columns, dtype=dtype)
        # a Python int past the float range raises OverflowError on division
        ratios = table / np.array(powers, dtype=float if dtype is np.int64 else object)
        return float(ratios.min()), float(ratios.max())
    except OverflowError:
        raise SubstitutionError(
            f"|S^n(v)| / theta^n leaves the float range for n <= {n_max} (theta = {theta:.12g})"
        ) from None


def iterate_prefix(s: Substitution, seed: str, length: int) -> str:
    """First `length` letters of S^k(seed), k the first power that long.

    When S(seed) begins with seed, every S^k(seed) is a prefix of the next,
    so this is a prefix of the one-sided fixed point grown from the seed.
    When `length` > |seed| and the seed holds no growing letter, its images
    stop growing by S^d(seed), d the alphabet size, and SubstitutionError
    is raised if |S^d(seed)| < `length`: a path b -> (a letter of S(b))
    among the bounded letters that are not eternally single meets none
    twice, since a letter met twice recurs in its own images, so it grows
    if a letter on the way has a longer image and is eternally single if
    none has.  Reads of `Substitution.lengths` up to the levels 1, 2, 4, ...
    find k, and make that check from the first level n >= d on, where
    |S^n(seed)| = |S^d(seed)|.  S is non-erasing, so S^j(w)[:length] =
    S^m(S^(j-m)(w)[:length])[:length] with m = j // 2: the letters' S^m
    images, memoised per (letter, m) and built only for the letters of that
    word, are joined along it and cut at `length`.  Each halving meets at
    most two powers, so any seed costs O(|A| * `length` * log k) letters.
    A join is no longer than S^j(w), a factor of some S^i(seed) with i <= k,
    so none is longer than S^k(seed) = S(S^(k-1)(seed)), below max|S(c)| *
    `length`.
    """
    if len(seed) >= length:
        return seed[:length]
    n = 1
    while (lengths := s.lengths(seed, n))[-1] < length:
        if n >= len(s.letters) and s.split.growing.isdisjoint(seed):
            raise SubstitutionError(f"the seed has no growing letter: its images stay at "
                                    f"{lengths[-1]} < {length} letters")
        n *= 2
    k = next(k for k, x in enumerate(lengths) if x >= length)
    return _power_prefix(seed, k, length, {1: s.rules})


def _power_prefix(w: str, j: int, length: int, level: dict[int, dict[str, str]]) -> str:
    """S^j(w)[:length] for j >= 1, where level[m] holds the letters' S^m images
    cut at `length` built so far (level[1], the rules, holds every letter)."""
    u, m = (w, 1) if j == 1 else (_power_prefix(w, j - j // 2, length, level), j // 2)
    images = level.setdefault(m, {})
    for ch in set(u).difference(images):
        images[ch] = _power_prefix(ch, m, length, level)
    return "".join(map(images.__getitem__, u))[:length]


@dataclass
class CompatibilityResult:
    """Answer to: is every finite factor realized inside the subshift?

    status is "holds-certified" (`detail`: a letter that recurs inside its
    power-p image) or "fails-certified" (a factor blocked on one side).
    """

    status: str
    detail: dict


def interior_power(s: Substitution, e: str) -> int | None:
    """The least p >= 1 with e at neither end of S^p(e), or None when there is none.

    A letter of S^p(e) is the end of a walk of p steps from e, each from a
    letter a to a position of S(a), and it is the first (last) letter of
    S^p(e) exactly when every step takes a first (last) position.  So the
    walk follows the states (letter, took a non-first position, took a
    non-last position), and e lies strictly inside S^p(e) exactly when p
    steps reach (e, True, True).  A step from a to b of a closed walk from
    e lies on one of at most 2|A| - 1 steps, through shortest walks from e
    to a and from b to e; joining two of these, through a non-first and a
    non-last position, bounds the least p by 4|A| - 2.
    """
    rules = s.rules
    states = {(e, False, False)}
    for p in range(1, 4 * len(s.letters) - 1):
        states = {
            (b, left or i > 0, right or i < len(rules[a]) - 1)
            for a, left, right in states
            for i, b in enumerate(rules[a])
        }
        if (e, True, True) in states:
            return p
    return None


def check_compatibility(s: Substitution) -> CompatibilityResult:
    """Decide whether the factor language L equals the two-sided subshift's language.

    That holds exactly when every factor extends on both sides.  With e the
    least of the split's candidates, the growing letters that reach every
    letter (SubstitutionError when there is none), L is the set of factors
    of the S^n(e).

    (a) If S^p(e) = u e v with u, v nonempty, S^(n + jp)(e) holds S^n(e)
    with at least j letters on each side (S is non-erasing), so every
    factor extends: "holds-certified", with e and its `interior_power`.
    (b) Otherwise e occurs in each S^n(e), n >= 1, only at its ends.  A
    factor xe lies in some S^n(e), so at its end, and xey would put e
    inside some S^m(e).  So the factor e has no left extension or some xe
    has no right one: "fails-certified", naming the first blocked factor in
    sorted order of the shortest length, 1 or 2, the right side checked
    first, read off the saturated `words.factor_language` of depth 3.  L
    does not depend on e, so where e does not recur, no growing letter does.
    """
    if not s.split.candidates:
        raise SubstitutionError("no growing letter reaches the whole alphabet")
    e = min(s.split.candidates)
    p = interior_power(s, e)
    if p is not None:
        return CompatibilityResult(
            "holds-certified", {"kind": "interior-recurrence", "letter": e, "power": p}
        )
    from .words import factor_language  # words imports this module; a recurrence skips it

    factors = factor_language(s, 3)
    factors.require_saturated()
    levels = [factors.words_of_length(m) for m in (1, 2, 3)]
    for words, longer in zip(levels, levels[1:]):
        prefixes = {u[:-1] for u in longer}
        suffixes = {u[1:] for u in longer}
        for w in words:
            if w not in prefixes or w not in suffixes:
                side = "left" if w in prefixes else "right"
                return CompatibilityResult("fails-certified", {"blocked_factor": w, "side": side})
    raise SubstitutionError(f"{e!r} recurs only at the ends of its images, yet nothing is blocked")

"""Minimality and linear repetitivity for substitution subshifts, with certificates.

The decision pipeline rests on two exact analyses that need no factor
enumeration at all:

* bounded-letter block analysis: the maximal bounded-letter runs occurring
  anywhere in the language are generated by finitely many seed runs evolving
  deterministically (image of the run plus boundary margins contributed by
  the neighbouring growing letters).  Run contexts cycle, and a run grows
  without bound exactly when the margins picked up along one context cycle
  are nonempty; otherwise all runs stay bounded, and the maximum block
  length is read where each run stops lengthening.

* letter-content cycles: for a growing letter c the sets letters(S^n(c))
  are eventually periodic.  A candidate letter e occurs in every
  sufficiently long factor iff the bounded blocks are finite and every
  growing letter's cycle sets all contain e (a cycle set missing e pumps
  arbitrarily long e-free images; conversely, long factors contain deep
  images of growing letters once bounded blocks cannot stretch).

A positive decision is turned into a concrete certificate (reachability
witnesses, block bound); a negative one into a word-pumping counterexample.
Minimality and linear repetitivity coincide for these systems, and the
explicit repetitivity constant (3 + G) * theta * rho / lambda is assembled,
on the report's first read of it, from the return words of the certified
letter.  A certified system runs one
chain of return-word derivations (Durand 1998), `return_word_chain`: its
first step gives the return words of the certified letter, whose longest
length is the exact gap bound kappa, and the pairs of them that occur, with
no factor set, and the whole chain gives exact periodicity.  The
pair-coverage length G is the exact result of `words.coverage_exact`, a
fold over summaries of the letter images, not of a scan at some depth.
`check_compatibility` is exact as well, and reads a depth-3 set only to
refute.  Past that, `classify` builds a factor set only to walk the core of
`is_periodic`, for a chain past its cap or an uncertified system whose letter
data does not show its subshift infinite (`_power_not_minimal`, `_two_sided_pump`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import words as wd
from .substitution import (
    GrowthEstimate,
    PrimitivityResult,
    Substitution,
    SubstitutionError,
    check_compatibility,
    CompatibilityResult,
    EmptySubshiftError,
    is_primitive,
    perron_growth,
    prune_to_reachable,
    stable_letters,
)

YES = "yes"
NO = "no"
UNDECIDED = "undecided-at-depth"
# the periodicity statuses
PERIODIC = "periodic"
APERIODIC = "aperiodic-up-to-depth"

# is_periodic reads core complexities this many letters below the factor depth
CORE_MARGIN = 8
# classify reports aperiodicity this many letters past its depth
APERIODIC_MARGIN = 24
# letters return_word_chain counts, over all its steps, before it stops
DERIVATION_WORK = 10**7
# one return-word derivation step: the return words and the derived substitution
Step = tuple[list[str], tuple[str, ...]]


# ---------------------------------------------------------------------------
# bounded-letter block analysis


@dataclass(frozen=True)
class _RunTriple:
    """A maximal bounded-letter run with its growing-letter contexts.

    `left`/`right` are the nearest growing letters (None at a word
    boundary); `origin` = (letter, depth) places the run inside the iterate
    S^depth(letter).
    """

    left: str | None
    run: str
    right: str | None
    origin: tuple[str, int]


@dataclass
class BlockPump:
    """Certificate that bounded-letter blocks grow without bound."""

    seed: tuple[str | None, str, str | None]
    origin: tuple[str, int]
    cycle_length: int
    cycle_margin: int
    steps_to_cycle: int


@dataclass
class BlockAnalysis:
    """Outcome of the bounded-letter block analysis.

    bounded is always decided: True with the exact `max_block`, or False
    with a `pump`.
    """

    bounded: bool
    max_block: int | None
    pump: BlockPump | None

    def pumped_block(self, s: Substitution, min_length: int) -> tuple[str, tuple[str, int]]:
        """Grow the pumped run until it reaches min_length; returns (run, origin).

        A consistent pump gains at least one letter per context cycle once
        the cycle is reached, so it needs at most steps_to_cycle +
        cycle_length * min_length steps.
        """
        if self.pump is None:
            raise ValueError("no pump certificate")
        left, run, right = self.pump.seed
        letter, depth = self.pump.origin
        guard = self.pump.steps_to_cycle + self.pump.cycle_length * min_length
        while len(run) < min_length:
            left, run, right = _update_triple(s, left, run, right)
            depth += 1
            guard -= 1
            if guard < 0:
                raise SubstitutionError("pump failed to grow (inconsistent certificate)")
        return run, (letter, depth)


def _update_triple(
    s: Substitution, left: str | None, run: str, right: str | None
) -> tuple[str | None, str, str | None]:
    # one step of a bounded run between the growing letters left and right
    # (None at a word end), read off the ends of their cut images
    shapes = s.split.shapes
    new_left, lpart = shapes[left][-2:] if left is not None else (None, "")
    rpart, new_right = shapes[right][:2] if right is not None else ("", None)
    return new_left, lpart + s.apply(run) + rpart, new_right


def _context_cycle(s: Substitution, left: str | None, right: str | None) -> tuple[int, int, int]:
    """Walk the context pair (left, right) of a bounded run to its cycle: a
    step maps (l, r) to (last growing letter of S(l), first growing letter
    of S(r)), None staying None, and the run gains the margin, the B-suffix
    of S(l) and the B-prefix of S(r).  Returns the step at which the pairs
    enter their cycle, its length and its margin, summed over the cycle."""
    seen: dict[tuple[str | None, str | None], int] = {}
    margins: list[int] = []
    while (left, right) not in seen:
        seen[left, right] = len(margins)
        left, margin, right = _update_triple(s, left, "", right)
        margins.append(len(margin))
    start = seen[left, right]
    return start, len(margins) - start, sum(margins[start:])


def analyze_bounded_blocks(s: Substitution) -> BlockAnalysis:
    """Decide whether the bounded-letter-only factors have bounded length.

    The decision is exact: the margin sum over the context cycle.  An orbit
    with a cycle margin of 0 is measured exactly too.  Its margins are 0
    from the step `start` where its contexts enter their cycle, so from
    there each step applies S to the run.  A bounded letter that is not
    eternally single never recurs in its own images (it would grow, or be
    eternally single), so after at most |A| more steps the run holds only
    eternally single letters and keeps its length.  S is non-erasing, so
    no step shortens the run, and that length is the orbit's maximum.
    With no bounded letter every run is empty, so no orbit is walked.
    """
    if not s.split.bounded:
        return BlockAnalysis(bounded=True, max_block=0, pump=None)
    shapes = s.split.shapes

    seeds: list[_RunTriple] = []
    for a in s.letters:
        if a in shapes:
            seeds.append(_RunTriple(None, "", a, origin=(a, 0)))
            seeds.append(_RunTriple(a, "", None, origin=(a, 0)))
            # the runs between two growing letters of S(a)
            shape = shapes[a]
            seeds.extend(
                _RunTriple(l, run, r, origin=(a, 1))
                for l, run, r in zip(shape[1::2], shape[2:-1:2], shape[3::2])
            )
        else:
            seeds.append(_RunTriple(None, a, None, origin=(a, 0)))

    max_block = 0
    for seed in seeds:
        start, cycle_length, cycle_margin = _context_cycle(s, seed.left, seed.right)
        if cycle_margin > 0:
            return BlockAnalysis(
                bounded=False,
                max_block=None,
                pump=BlockPump(
                    seed=(seed.left, seed.run, seed.right),
                    origin=seed.origin,
                    cycle_length=cycle_length,
                    cycle_margin=cycle_margin,
                    steps_to_cycle=start,
                ),
            )
        # bounded orbit: its run only lengthens, up to its final length
        state = (seed.left, seed.run, seed.right)
        for _ in range(start):
            state = _update_triple(s, *state)
        while not set(state[1]) <= s.split.eternally_single:
            state = _update_triple(s, *state)
        max_block = max(max_block, len(state[1]))
    return BlockAnalysis(bounded=True, max_block=max_block, pump=None)


# ---------------------------------------------------------------------------
# bounded gaps


@dataclass
class BGCertificate:
    """Witness that `letter` occurs with bounded gaps.

    reachability_witnesses[c] is the first depth at which the letter shows
    up in the images of the growing letter c.  bblock_bound is the maximal
    bounded-letter block length.  The gap bound is the report's
    (`ClassificationReport.kappa`).
    """

    letter: str
    reachability_witnesses: dict[str, int]
    bblock_bound: int


@dataclass
class BGCounterexample:
    """Pump producing arbitrarily long factors that avoid the candidate letter."""

    letter: str
    kind: str  # "growing-letter-avoids" | "bounded-block-pump"
    detail: dict
    _s: Substitution = field(repr=False, default=None)
    _block_analysis: BlockAnalysis | None = field(repr=False, default=None)

    def avoiding_factor(self, min_length: int) -> tuple[str, tuple[str, int]]:
        """An actual factor of length >= min_length avoiding the letter, with provenance."""
        if self.kind == "bounded-block-pump":
            return self._block_analysis.pumped_block(self._s, min_length)
        c = self.detail["growing_letter"]
        n = self.detail["first_avoiding_depth"]
        period = self.detail["period"]
        word = self._s.iterate(c, n)
        while len(word) < min_length:
            word = self._s.iterate(word, period)
            n += period
        if self.letter in word:
            raise SubstitutionError(
                f"counterexample word from {c!r} at depth {n} contains {self.letter!r}"
            )
        return word, (c, n)


@dataclass
class BGDecision:
    status: str
    certificate: BGCertificate | None = None
    counterexample: BGCounterexample | None = None


def bounded_gaps(
    s: Substitution, e: str, *, block_analysis: BlockAnalysis | None = None
) -> BGDecision:
    """Decide whether the growing letter e occurs with bounded gaps.

    Exactly one of two things happens, from the block analysis and the
    letter-set cycles kept on the split alone: a certificate, or a
    counterexample pump.  No factor set is built, and the gap bound is left
    to `classify`.
    """
    if e not in s.split.growing:
        raise ValueError(f"candidate {e!r} is not a growing letter")
    if block_analysis is None:
        block_analysis = analyze_bounded_blocks(s)

    if not block_analysis.bounded:
        counter = BGCounterexample(
            letter=e,
            kind="bounded-block-pump",
            detail={
                "seed": list(block_analysis.pump.seed),
                "origin": list(block_analysis.pump.origin),
                "cycle_margin": block_analysis.pump.cycle_margin,
            },
            _s=s,
            _block_analysis=block_analysis,
        )
        return BGDecision(status=NO, counterexample=counter)

    # every growing letter must keep producing e along its whole letter-set cycle
    witnesses: dict[str, int] = {}
    for c in sorted(s.split.growing):
        sets, preperiod, period = s.split.orbits[c]
        for idx in range(preperiod, preperiod + period):
            if e not in sets[idx]:
                counter = BGCounterexample(
                    letter=e,
                    kind="growing-letter-avoids",
                    detail={
                        "growing_letter": c,
                        "first_avoiding_depth": idx,
                        "period": period,
                    },
                    _s=s,
                )
                return BGDecision(status=NO, counterexample=counter)
        witnesses[c] = next(i for i, st in enumerate(sets) if e in st)

    cert = BGCertificate(
        letter=e, reachability_witnesses=witnesses, bblock_bound=block_analysis.max_block
    )
    return BGDecision(status=YES, certificate=cert)


# ---------------------------------------------------------------------------
# linear repetitivity constant


@dataclass
class LRBound:
    """Explicit repetitivity constant (3 + G) * theta * rho / lambda.

    G is the smallest length such that every factor of length >= G contains
    every concatenation of two return words that is itself a factor, exact
    from `words.coverage_exact`.  The return words and the pairs come from
    step 1 of `return_word_chain`, with no factor set.  Valid insofar as
    lambda/rho are (n <= growth.n_checked); carried as a caveat.
    """

    value: float
    G: int
    pair_set: tuple[str, ...]
    return_words: frozenset[str]
    growth: GrowthEstimate
    caveats: tuple[str, ...]


def lr_constant_bound(
    s: Substitution, kappa: int | None, steps: list[Step], n_max: int
) -> LRBound:
    """Assemble the explicit linear-repetitivity constant of a certified letter.

    kappa is the letter's gap bound, below which G cannot lie.  The return
    words to the letter and the pairs of them that are factors come from
    step 1 of its `return_word_chain`, through `return_word_pairs`; no step
    1 (the chain passed DERIVATION_WORK) raises SubstitutionError.  The
    return words are also the words whose growth constants (n <= n_max)
    enter the constant, and G comes from `words.coverage_exact`.
    """
    if not steps:
        raise SubstitutionError(f"return-word derivation wrote more than {DERIVATION_WORK} letters")
    rw, pairs = return_word_pairs(steps[0])
    growth = perron_growth(s, rw, n_max)
    try:
        G = wd.coverage_exact(s, pairs)
    except wd.CoverageUndecidedError as exc:
        raise SubstitutionError(f"pair-coverage length {exc}") from None
    if G < kappa:
        raise SubstitutionError(f"pair-coverage length {G} is below the gap bound {kappa}")
    value = (3 + G) * growth.theta * growth.rho_v / growth.lambda_v
    return LRBound(
        value=value,
        G=G,
        pair_set=tuple(pairs),
        return_words=rw,
        growth=growth,
        caveats=(f"growth constants checked for n <= {growth.n_checked}",),
    )


# ---------------------------------------------------------------------------
# periodicity


@dataclass
class PeriodicityResult:
    status: str  # PERIODIC | APERIODIC | UNDECIDED
    period: str | None
    depth: int
    note: str | None = None


def _minimal_period(u: str) -> int:
    n = len(u)
    for p in range(1, n + 1):
        if all(u[i] == u[i + p] for i in range(n - p)):
            return p
    return n


def _walk_core(coded: wd.CodedWords, length: int):
    # The levels of the extendable core, longest first, as (length, kept):
    # kept marks the prefix classes of that length in the core.  `coded`
    # holds the words of the given length, which are all kept.  A word
    # without a kept extension on one side occurs in no two-sided sequence,
    # so the kept words of length L are those that are both a prefix and a
    # suffix of kept words of length L + 1: a class with a kept class below
    # it, hit by the suffix link of a kept word.  The core is only
    # trustworthy with a margin below the factor depth.
    kept = np.ones(len(coded.words), bool)
    classes = coded.classes(length)
    while length and kept.any():
        yield length, kept
        length -= 1
        live = kept[classes]
        classes = coded.classes(length)
        kept = np.zeros_like(live)
        kept[classes[live]] = True
        suffix = np.zeros_like(live)
        suffix[classes[coded.link[live & (coded.reach >= length)]]] = True
        kept &= suffix


def is_periodic(factors: wd.FactorSet) -> PeriodicityResult:
    """Bounded periodicity decision via factor complexity of the extendable core.

    The subshift only sees two-sided-extendable factors, so complexity is
    read off the pruned core, to the depth factors.max_length - CORE_MARGIN
    (the margin keeps it clear of boundary effects).  The core is walked on
    the factors of length max_length coded as integer levels
    (`words.code_words`): each level is an array of kept prefix classes,
    and only the level of the horizon, one past the depth, becomes words.
    Core complexity p(n) <= n at any n forces eventual periodicity; the
    period word is then extracted from a longest core factor and verified
    to tile every core factor.  Otherwise p(n) >= n + 1 throughout and the
    system is aperiodic up to the depth.  Every core word is a prefix of a
    longer one, so the tiling is checked on the core words of the horizon
    alone.  A finite language, with no factor of length max_length, raises
    SubstitutionError, and a set too shallow to leave a depth of 1,
    ValueError.
    """
    depth = factors.max_length - CORE_MARGIN
    if depth < 1:
        raise ValueError(
            f"the periodicity core needs a factor set of depth >= {CORE_MARGIN + 1}, "
            f"got {factors.max_length}"
        )
    if not factors.saturated:
        return PeriodicityResult(
            status=UNDECIDED,
            period=None,
            depth=0,
            note=f"factor set did not saturate at depth {factors.max_length}",
        )
    horizon = depth + 1  # lengths safe from boundary effects
    longest = [w for w in factors.maximal if len(w) == factors.max_length]
    if not longest:
        raise SubstitutionError(
            f"the language is finite: it has no factor of length {factors.max_length}"
        )
    coded = wd.code_words(longest, factors.substitution.letters)
    top: list[str] = []  # the core words of the horizon
    sizes: dict[int, int] = {}
    for length, kept in _walk_core(coded, factors.max_length):
        if length <= horizon:
            sizes[length] = int(np.count_nonzero(kept))
        if length == horizon:
            top = coded.prefixes(length, kept)
    for n in range(1, depth + 1):
        if sizes.get(n, 0) <= n:
            u = min(top)
            q = _minimal_period(u)
            period = u[:q]
            tiling_ok = all(f in period * (len(f) // q + 2) for f in top)
            if tiling_ok:
                canonical = min(period[i:] + period[:i] for i in range(q))
                return PeriodicityResult(status=PERIODIC, period=canonical, depth=n)
            return PeriodicityResult(
                status=UNDECIDED,
                period=None,
                depth=n,
                note="low core complexity but no single periodic word tiles the core",
            )
    return PeriodicityResult(status=APERIODIC, period=None, depth=depth)


def _period_result(u: str) -> PeriodicityResult:
    # x = u^infinity: its least period q divides |u|, and the walk would stop
    # at the first n with at most n cyclic factors of length n (n <= q)
    n = len(u)
    q = next(q for q in range(1, n + 1) if n % q == 0 and u == u[:q] * (n // q))
    doubled = u[:q] * 2
    depth = next(m for m in range(1, q + 1) if len({doubled[i : i + m] for i in range(q)}) <= m)
    canonical = min(doubled[i : i + q] for i in range(q))
    return PeriodicityResult(status=PERIODIC, period=canonical, depth=depth)


def _cut(image: str, c: str, names: dict[str, str], words: list[str]) -> str:
    # image, which begins with c, cut before each c and coded by the names of
    # its pieces; a new piece gets the next name and joins `words`
    pieces = image[1:].split(c)
    for piece in pieces:
        if piece not in names:
            names[piece] = chr(len(words))
            words.append(c + piece)
    return "".join(map(names.__getitem__, pieces))


def derive_return_words(
    table: Mapping[int, str] | tuple[str, ...], c: str, budget: int
) -> tuple[list[str], tuple[str, ...], int] | None:
    """One return-word derivation under `table`, from the iterates of c.

    table maps each letter (by code point, as `str.translate` reads it) to
    its image, and the image of c is beta c ... with beta free of c.  The
    first return word to c is read between the first two c in the iterates
    of c; when beta is empty, these are prefixes of the fixed point of
    `table` that begins with c.  A return word r maps to beta^-1 table(r)
    beta, cut before each c, and these images close the set.  Returns the
    return words to c in breadth-first discovery order, the derived
    substitution over chr(0), chr(1), ... (the image of return word i, coded
    by the names of its pieces), and the number of image letters written;
    None once that number exceeds `budget`.
    """
    prefix, work = c, 0
    while prefix.count(c) < 2:
        prefix = prefix.translate(table)
        work += len(prefix)
        if work > budget:
            return None
    i = prefix.index(c)
    j = prefix.index(c, i + 1)
    beta = table[ord(c)].split(c, 1)[0]
    names, words, images = {prefix[i + 1 : j]: chr(0)}, [prefix[i:j]], []
    for r in words:
        image = r.translate(table)
        images.append(_cut(image[len(beta) :] + beta, c, names, words))
        work += len(image)
        if work > budget:
            return None
    return words, tuple(images), work


def return_word_chain(s: Substitution, e: str) -> list[Step]:
    """The iterated return-word derivation of a certified system from e.

    Each step takes the least k >= 1 with c in table^k(c) (at most the
    number of letters, since c recurs) and runs `derive_return_words` under
    table^k from c, giving (return words, tau): step 1 under S from e, and
    every later step under the tau of the step before from chr(0).  The
    chain stops at a one-letter tau or at a tau it has seen before.  Its
    steps share one budget of DERIVATION_WORK letters, those of each
    table^k and those `derive_return_words` writes; past it the chain ends
    early, on a step that is neither or on no step at all.
    """
    table, c = {ord(a): s.rules[a] for a in s.letters}, e
    steps: list[Step] = []
    work = 0
    while True:
        found, lengths = {c}, dict.fromkeys(table, 1)
        for k in range(1, len(table) + 1):
            found = {b for a in found for b in table[ord(a)]}
            lengths = {a: sum(lengths[ord(b)] for b in w) for a, w in table.items()}
            if c in found:
                break
        else:
            raise SubstitutionError(f"{c!r} occurs in no iterate of its own image")
        work += sum(lengths.values())  # counted before table^k is built
        if work > DERIVATION_WORK:
            return steps
        power = table
        for _ in range(k - 1):
            power = {a: w.translate(table) for a, w in power.items()}
        step = derive_return_words(power, c, DERIVATION_WORK - work)
        if step is None:
            return steps
        words, tau, written = step
        work += written
        repeat = any(tau == seen for _, seen in steps)
        steps.append((words, tau))
        if len(tau) == 1 or repeat:
            return steps
        table, c = dict(enumerate(tau)), chr(0)


def return_word_pairs(step: Step) -> tuple[frozenset[str], list[str]]:
    """The return words to the certified letter e and the sorted pairs z1 z2
    of them that are factors, from step 1 of `return_word_chain`.

    That step maps a return word r to sigma(r) = beta^-1 S^k(r) beta, cut
    before each e, where S^k(e) = beta e ...: r e is a factor, so S^k(r)
    beta is followed by e.  For any return word r0, sigma^n(r0) codes a
    factor of length |S^(nk)(r0)| followed by e; by minimality, for large n
    it holds every factor of length 2 * kappa + 1, hence every return word a
    and every 2-factor (a, b), the pairs with z_a z_b e a factor.  So the
    2-factors are those inside each sigma(a), closed under (a, b) -> (last
    sigma(a), first sigma(b)).  z1 z2 is a factor iff z1 = z_a and z2 is a
    prefix of z_b for a 2-factor (a, b): z2 holds e only in front, so the
    return word after z1 extends it.
    """
    words, images = step
    adjacent = {pair for coded in images for pair in zip(coded, coded[1:])}
    todo = list(adjacent)
    while todo:
        a, b = todo.pop()
        pair = (images[ord(a)][-1], images[ord(b)][0])
        if pair not in adjacent:
            adjacent.add(pair)
            todo.append(pair)
    # the return words that are prefixes of each return word
    known = set(words)
    prefixes = [[w[:j] for j in range(1, len(w) + 1) if w[:j] in known] for w in words]
    pairs = {words[ord(a)] + z for a, b in adjacent for z in prefixes[ord(b)]}
    return frozenset(words), sorted(pairs)


def derived_periodicity(steps: list[Step], depth: int) -> PeriodicityResult:
    """Exact periodicity of a certified minimal system from its `return_word_chain`.

    Step j codes the return words to a word W_j: W_1 = e, and W_(j+1) =
    r W_j for the first return word r of step j (over the letters of S),
    which step j + 1 derives from as chr(0); r W_j holds W_j at its two
    ends only, so the W_j grow strictly.

    * One return word means x = r^infinity: the result is "periodic" with
      r (expanded through the return words of the steps before) reduced to
      its least period and its least rotation, at the first depth n with at
      most n cyclic factors of length n, where `is_periodic` detects it.
    * A repeated tau means aperiodic: from there the chain cycles without
      reaching one letter, while a periodic system of least period q has
      one return word to each of its words at least q long, as some W_j
      is.  The verdict keeps the status "aperiodic-up-to-depth" at `depth`
      that the core walk would give: an aperiodic minimal subshift has
      complexity at least n + 1 (Morse-Hedlund).

    Derived sequences of a primitive substitutive sequence are finitely many
    (Durand 1998), so one of the two happens unless the chain passed
    DERIVATION_WORK: then the result is undecided.
    """
    taus = [tau for _, tau in steps]
    if taus and len(taus[-1]) == 1:
        u = steps[-1][0][0]
        for words, _ in reversed(steps[:-1]):
            u = u.translate(words)
        return _period_result(u)
    if taus and taus[-1] in taus[:-1]:
        counts = [len(words) for words, _ in steps]
        note = f"return-word derivation repeats after {len(steps)} steps; return words {counts}"
        return PeriodicityResult(APERIODIC, None, depth, note)
    note = f"return-word derivation wrote more than {DERIVATION_WORK} letters"
    return PeriodicityResult(status=UNDECIDED, period=None, depth=0, note=note)


# ---------------------------------------------------------------------------
# full classification


@dataclass
class ClassificationReport:
    """Everything `classify` decides about one substitution.

    kappa is the gap bound of the certified letter e, the least length with
    every factor that long holding e: the length of the longest return word
    to e (`return_word_chain`, step 1).  It is None without a certificate or
    when the chain passed its cap before step 1.  kappa + 1 bounds |r e| for
    every return word r; it is reported as the certificate's factor_depth
    only, and no factor set of that depth is built.

    The repetitivity constant `lr` (and its `growth`) is assembled on first
    read, from step 1 of `chain` with growth constants for n <= growth_nmax,
    so a caller that never reads it never pays for it.  `depth_caveats`
    holds its caveat first, for a certified system, then other_caveats.
    """

    substitution: Substitution
    compatibility: CompatibilityResult
    primitive: PrimitivityResult
    minimal: str
    certificate: BGCertificate | None
    kappa: int | None
    counterexample: BGCounterexample | None
    periodicity: PeriodicityResult
    factor_depth: int
    growth_nmax: int
    chain: list[Step] = field(repr=False)
    other_caveats: tuple[str, ...]

    @property
    def linearly_repetitive(self) -> str:
        """Coincides with minimality for substitution subshifts."""
        return self.minimal

    @property
    def uniquely_ergodic(self) -> str:
        """Minimality forces unique ergodicity; the converse fails, so a
        non-minimal system gets no verdict from this analysis."""
        return YES if self.minimal == YES else UNDECIDED

    @cached_property
    def _repetitivity(self) -> tuple[LRBound | None, tuple[str, ...]]:
        """The constant of a certified system and its caveat, or None and why not."""
        if self.minimal != YES:
            return None, ()
        try:
            lr = lr_constant_bound(self.substitution, self.kappa, self.chain, self.growth_nmax)
        except SubstitutionError as exc:
            return None, (f"repetitivity constant undecided: {exc}",)
        return lr, lr.caveats

    @property
    def lr(self) -> LRBound | None:
        return self._repetitivity[0]

    @property
    def growth(self) -> GrowthEstimate | None:
        return None if self.lr is None else self.lr.growth

    @property
    def depth_caveats(self) -> tuple[str, ...]:
        return self._repetitivity[1] + self.other_caveats

    @cached_property
    def factors(self) -> wd.FactorSet:
        """The factor set of depth factor_depth: the core walk's, or built on first read."""
        return wd.factor_language(self.substitution, self.factor_depth)

    def to_json_dict(self) -> dict:
        s = self.substitution
        out: dict = {
            "schema_version": "1",
            "name": s.name,
            "letters": list(s.letters),
            "rules": dict(s.rules),
            "growing_letters": sorted(s.split.growing),
            "bounded_letters": sorted(s.split.bounded),
            "witness_pool": list(s.split.candidates),
            "compatibility": {
                "status": self.compatibility.status,
                "detail": self.compatibility.detail,
            },
            "primitive": {
                "primitive": self.primitive.primitive,
                "power": self.primitive.power,
                "zero_entry": list(self.primitive.zero_entry) if self.primitive.zero_entry else None,
            },
            "minimal": {"status": self.minimal},
            "linearly_repetitive": {
                "status": self.linearly_repetitive,
                "note": "coincides with minimality for substitution subshifts",
            },
            "uniquely_ergodic": {
                "status": self.uniquely_ergodic,
                "note": "follows from linear repetitivity when minimal; "
                "not determined by this analysis otherwise",
            },
            "periodic": {
                "status": self.periodicity.status,
                "period": self.periodicity.period,
                "depth": self.periodicity.depth,
            },
            "depth_caveats": list(self.depth_caveats),
        }
        if self.certificate is not None:
            out["minimal"]["certificate"] = {
                "letter": self.certificate.letter,
                "kappa": self.kappa,
                "reachability_witnesses": dict(self.certificate.reachability_witnesses),
                "bblock_bound": self.certificate.bblock_bound,
                "factor_depth": None if self.kappa is None else self.kappa + 1,
            }
        if self.counterexample is not None:
            sample, origin = self.counterexample.avoiding_factor(40)
            out["minimal"]["counterexample"] = {
                "letter": self.counterexample.letter,
                "kind": self.counterexample.kind,
                "detail": self.counterexample.detail,
                "sample_factor": sample[:60],
                "sample_origin": list(origin),
            }
        if self.growth is not None:
            out["growth"] = {
                "theta": self.growth.theta,
                "lambda": self.growth.lambda_v,
                "rho": self.growth.rho_v,
                "words": list(self.growth.words),
                "n_checked": self.growth.n_checked,
            }
        if self.lr is not None:
            out["lr_bound"] = {
                "value": self.lr.value,
                "G": self.lr.G,
                "pair_set": list(self.lr.pair_set),
                "return_words": sorted(self.lr.return_words),
                "kappa": self.kappa,
                "caveats": list(self.lr.caveats),
            }
        return out


def decide_minimality(s: Substitution) -> BGDecision:
    """The minimality decision alone: the bounded-gaps decision of the first
    of the split's candidates (`s.split.candidates`, the growing letters
    that reach the whole alphabet) that is certified, else the first
    candidate's counterexample.  The gap bound comes from the return words,
    in `classify`."""
    if not s.split.growing:
        raise EmptySubshiftError(
            "no letter has unbounded image growth; the two-sided subshift is empty"
        )
    if not s.split.candidates:
        raise SubstitutionError(
            "no growing letter reaches the whole alphabet; prune unreachable letters first"
        )

    block_analysis = analyze_bounded_blocks(s)
    decision: BGDecision | None = None
    for e in s.split.candidates:
        d = bounded_gaps(s, e, block_analysis=block_analysis)
        if d.status == YES:
            return d
        decision = decision or d
    return decision


def _power_not_minimal(s: Substitution, letter: str, power: int) -> bool:
    """Whether T, S^p on the letters e reaches under it, is not minimal, for
    a letter e with S^p(e) = u e v, u and v nonempty: the compatibility
    letter and its power, or any growing letter strictly inside its own
    image, with p = 1.

    Then the walk answers aperiodic at every depth, compatible or not:
    T^(k+1)(e) holds T^k(e) with at least one letter on each side, so the
    factors of the T^k(e) = S^(kp)(e) extend on both sides and lie in the
    language of the subshift X, and X holds the subshift X_0 of T.  X_0 is
    transitive, and a finite transitive subshift is one periodic orbit,
    which is minimal, so X_0 and X are infinite and p_X(n) >= n + 1 at
    every n (Morse-Hedlund 1938).  With p = 1 and e a candidate, T is S,
    which `classify` asks about only when it is not certified minimal: yes,
    with nothing built.  Else S^p's images, summed from their exact lengths
    first (`Substitution.lengths`), count against DERIVATION_WORK: past it,
    or when T is minimal, the walk decides.
    """
    if power == 1 and letter in s.split.candidates:
        return True
    if s.lengths("".join(s.letters), power)[-1] > DERIVATION_WORK:
        return False
    rules = {a: s.iterate(a, power) for a in s.letters}
    t = prune_to_reachable(Substitution(s.alphabet, rules), letter)
    return decide_minimality(t).status != YES


def _two_sided_pump(s: Substitution) -> bool:
    """Whether some factor b1 g b2, g a growing letter, has both bounded
    runs b1 and b2 as long as wanted, read from the letter images.

    A seed (l, g, r) is a growing letter g of some S(a) with its nearest
    growing letters l and r (None where the image ends).  When S(g) holds
    exactly one growing letter g', S maps l b1 g b2 r into (last growing
    letter of S(l)) b1' g' b2' (first growing letter of S(r)), where b1' is
    the B-suffix of S(l), S(b1) and the B-prefix of S(g), b2' likewise; B is
    invariant and S non-erasing, so neither run shrinks.  So while g stays single, the pairs (l, g) and
    (g, r) follow the context map of the block analysis, and each run gains
    its pair's margins.  The seed pumps exactly when g's chain g -> g'
    cycles without meeting an image with two or more growing letters and
    both pairs have positive cycle margins: the triples then cycle, with a
    common multiple of the pairs' cycle lengths, so each run gains a
    multiple of its pair's cycle margin a turn.  Then the language holds
    b1 g b2 with both runs unbounded.  Centred at g, these words have a
    limit point x in the subshift X (its factors lie in the language) with
    exactly one growing letter.  So x is not periodic, X is infinite and
    p_X(n) >= n + 1 at every n (Morse-Hedlund 1938).
    """
    images = {g: shape[1::2] for g, shape in s.split.shapes.items()}
    chained = stable_letters({g: image[0] for g, image in images.items() if len(image) == 1})
    return any(
        g in chained and _context_cycle(s, l, g)[2] > 0 and _context_cycle(s, g, r)[2] > 0
        for image in images.values()
        for l, g, r in zip([None, *image], image, [*image[1:], None])
    )


def classify(
    s: Substitution,
    *,
    depth: int = 16,
    growth_nmax: int = 30,
) -> ClassificationReport:
    """Full classification: compatibility, primitivity, minimality (with
    certificate or counterexample), linear repetitivity with its explicit
    constant, periodicity, unique ergodicity.

    A certified minimal system runs one `return_word_chain` from its
    certified letter: step 1 gives its return words, the longest of which
    is the certificate's gap bound kappa, and the whole chain its
    periodicity (`derived_periodicity`), with no factor set.  The report
    keeps the chain and assembles the constant from step 1 (the return
    words' pairs, their growth constants for n <= growth_nmax and G) when
    `lr`, `growth`, `depth_caveats` or `to_json_dict` is first read;
    growth_nmax < 1 raises ValueError here, before any of that.  An
    aperiodic verdict has the status "aperiodic-up-to-depth" at
    aperiodic_depth = depth + APERIODIC_MARGIN.  A system that is not
    certified gets that verdict, with no factor set, when letter data shows
    its subshift infinite: a compatible system whose S^p is not minimal
    (`_power_not_minimal`, asked first), a factor b1 g b2 whose bounded runs
    both pump (`_two_sided_pump`), or a growing letter strictly inside its
    own image on whose letters S is not minimal (`_power_not_minimal` with
    p = 1).  Any other system, and a certified one whose chain passes
    DERIVATION_WORK (with a caveat naming the cap, which in step 1 leaves
    kappa and the repetitivity constant undecided), walks the core of
    `is_periodic` to aperiodic_depth on the factor set of
    `report.factor_depth` = aperiodic_depth + CORE_MARGIN."""
    decision = decide_minimality(s)
    minimal, cert = decision.status, decision.certificate
    aperiodic_depth = depth + APERIODIC_MARGIN
    factor_depth = aperiodic_depth + CORE_MARGIN
    compatibility = check_compatibility(s)
    primitive = is_primitive(s)

    if growth_nmax < 1:
        raise ValueError(f"growth constants need n_max >= 1, got {growth_nmax}")

    caveats: list[str] = []
    periodicity = kappa = None
    steps: list[Step] = []
    if minimal == YES:
        steps = return_word_chain(s, cert.letter)
        if steps:
            # r less its first letter is e-free for each return word r, and
            # by minimality every e-free factor lies inside one of them
            kappa = max(map(len, steps[0][0]))
            if kappa < cert.bblock_bound + 1:
                raise SubstitutionError(
                    f"gap bound {kappa} for {cert.letter!r} does not exceed "
                    f"the block bound {cert.bblock_bound}"
                )
        periodicity = derived_periodicity(steps, aperiodic_depth)
        if periodicity.status == UNDECIDED:  # the chain passed its work cap
            cap = periodicity.note
            caveats.append(f"periodicity from the core walk to depth {aperiodic_depth}: {cap}")
            periodicity = None
    compatible = compatibility.status == "holds-certified"
    detail = compatibility.detail
    # letter data that shows the subshift infinite; S^p of a compatible system first
    if minimal != YES and (
        (compatible and _power_not_minimal(s, detail["letter"], detail["power"]))
        or _two_sided_pump(s)
        or any(
            _power_not_minimal(s, c, 1)
            for c in s.letters
            if c in s.split.growing and c in s.rules[c][1:-1]
        )
    ):
        periodicity = PeriodicityResult(APERIODIC, None, aperiodic_depth)
    factors = None
    if periodicity is None:
        factors = wd.factor_language(s, factor_depth)
        periodicity = is_periodic(factors)
    if periodicity.status == UNDECIDED:
        caveats.append(f"periodicity undecided: {periodicity.note}")
    if not compatible:
        caveats.append(
            "statements describe the finite-word language; its compatibility "
            f"with the two-sided subshift is {compatibility.status}, so the "
            "subshift itself may behave differently"
        )

    report = ClassificationReport(
        substitution=s,
        compatibility=compatibility,
        primitive=primitive,
        minimal=minimal,
        certificate=cert,
        kappa=kappa,
        counterexample=decision.counterexample,
        periodicity=periodicity,
        factor_depth=factor_depth,
        growth_nmax=growth_nmax,
        chain=steps,
        other_caveats=tuple(caveats),
    )
    if factors is not None:
        report.factors = factors  # primes the cached property
    return report

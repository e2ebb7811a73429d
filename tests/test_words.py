import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linrep as lr
from linrep import words as wd
from linrep.classify import decide_minimality, return_word_chain, return_word_pairs
from linrep.substitution import Substitution, SubstitutionError
from linrep.words import (
    CoverageUndecidedError,
    UnsaturatedFactorSetError,
    coverage_exact,
    factor_language,
    find_power,
    gap_bound,
    return_words,
)

from bruteforce import (
    closure_factor_language,
    coverage_fold_with_run,
    distinct_windows,
    naive_count,
    naive_factors,
    naive_find_power,
    naive_return_words,
    per_window_factor_language,
    repetitivity_function,
    scan_coverage_length,
)
from conftest import CATALOG_NAMES, CLASSIFY_SLOW_RULES, sweep_rules

DATA = Path(__file__).parent / "data"


def test_factor_language_fibonacci_depth2(fib):
    fs = factor_language(fib, 2)
    assert fs.saturated
    assert fs.words == {"a", "b", "ab", "ba", "aa"}


def test_factor_language_remark1b_depth2():
    s = lr.load("remark1b")
    fs = factor_language(s, 2)
    assert fs.saturated
    assert fs.words == {"0", "1", "10", "11"}


def test_factor_language_identity():
    s = Substitution.from_rules({"a": "a"})
    fs = factor_language(s, 5)
    assert fs.saturated
    assert fs.words == {"a"}


# iterates grow fast while new factors arrive slowly; each with a depth at
# which the naive oracle saturates before its strings reach their size cap
SLOW_SYSTEMS = {
    "0-01001-1-1": ({"0": "01001", "1": "1"}, 6),
    "a-a-b-abba": ({"a": "a", "b": "abba"}, 10),
    "a-abc-b-bc-c-c": ({"a": "abc", "b": "bc", "c": "c"}, 10),
}


@pytest.mark.parametrize(
    "name", ["fibonacci", "thue-morse", "remarkc", "minimal-nonprimitive", *SLOW_SYSTEMS]
)
def test_factor_language_matches_bruteforce(name, catalog_subs):
    if name in SLOW_SYSTEMS:
        rules, depth = SLOW_SYSTEMS[name]
        s = Substitution.from_rules(rules)
    else:
        s, depth = catalog_subs[name], 10
    fs = factor_language(s, depth)
    assert fs.saturated
    assert fs.words == naive_factors(s.rules, depth)


def test_unsaturated_is_flagged_not_truncated(monkeypatch):
    s = lr.load("remark1b")  # saturates at depth 20 with 22 maximal words
    monkeypatch.setattr(wd, "MAX_WORDS", 10)
    fs = factor_language(s, 20)
    assert not fs.saturated
    with pytest.raises(UnsaturatedFactorSetError):
        repetitivity_function(fs, 1)


def test_rounds_are_bounded_by_the_maximal_words(level_systems):
    # a round that does not end the closure stores a new maximal word, so
    # MAX_WORDS bounds the rounds
    for s in level_systems:
        for depth in [*range(1, 20), 48]:
            fs = factor_language(s, depth)
            assert fs.rounds <= len(fs.maximal) + 1, (s.rules, depth)


def test_slow_closure_saturates():
    # new factors arrive slowly: the depth-48 closure takes 191 rounds
    rules = json.loads((DATA / "wide-compat-12.json").read_text())["rules"]
    fs = factor_language(Substitution.from_rules(rules), 48)
    assert (fs.saturated, fs.rounds, len(fs.maximal)) == (True, 191, 13720)


def test_repetitivity_fibonacci(fib_factors):
    assert repetitivity_function(fib_factors, 1) == 3


def test_repetitivity_single_letter():
    s = Substitution.from_rules({"a": "aa"})
    fs = factor_language(s, 8)
    assert repetitivity_function(fs, 1) == 1


def test_repetitivity_sentinel_remarkc():
    s = lr.load("remarkc")
    fs = factor_language(s, 14)
    assert fs.saturated
    with pytest.raises(CoverageUndecidedError):  # a letter without bounded gaps
        repetitivity_function(fs, 1)


def test_return_words_fibonacci(fib_factors):
    assert return_words("a", fib_factors) == {"a", "ab"}
    assert return_words("b", fib_factors) == {"ba", "baa"}


def test_return_words_abaa():
    s = lr.load("minimal-nonprimitive")
    fs = factor_language(s, 16)
    assert return_words("a", fs) == {"a", "ab"}


def test_return_words_periodic_point():
    s = Substitution.from_rules({"a": "aa"})
    fs = factor_language(s, 8)
    assert return_words("a", fs) == {"a"}


@pytest.mark.parametrize("name", ["fibonacci", "minimal-nonprimitive", "thue-morse"])
def test_return_words_match_bruteforce(name, catalog_subs):
    s = catalog_subs[name]
    fs = factor_language(s, 12)
    for v in sorted(s.letters):
        got = return_words(v, fs)
        assert got == naive_return_words(naive_factors(s.rules, 12), v)


def test_find_power_fibonacci(fib):
    fs = factor_language(fib, 16)
    u = find_power(fs, lambda w: w[0] == "a", 3)
    assert u == "abaab"  # independently derived by brute-force scanning
    assert u * 3 + "a" in fs


def test_find_power_thue_morse_cube_free(catalog_subs):
    s = catalog_subs["thue-morse"]
    fs = factor_language(s, 16)
    assert find_power(fs, lambda w: True, 3) is None


def test_find_power_trivial():
    s = Substitution.from_rules({"a": "aa"})
    fs = factor_language(s, 8)
    assert find_power(fs, lambda w: True, 3) == "a"


@pytest.mark.parametrize("name", ["fibonacci", "period-doubling"])
def test_find_power_matches_bruteforce(name, catalog_subs):
    s = catalog_subs[name]
    fs = factor_language(s, 12)
    mine = find_power(fs, lambda w: True, 3)
    naive = naive_find_power(naive_factors(s.rules, 12), lambda w: True, 3, 12)
    assert mine == naive


def test_gap_bound_fibonacci(fib_factors):
    assert gap_bound(fib_factors, "a") == 2
    assert gap_bound(fib_factors, "b") == 3


def test_distinct_windows():
    assert distinct_windows("ababa", 2) == {"ab", "ba"}


# --- language-level properties -------------------------------------------------

rule_strategy = st.fixed_dictionaries(
    {
        "a": st.text(alphabet="ab", min_size=1, max_size=3),
        "b": st.text(alphabet="ab", min_size=1, max_size=3),
    }
)


@given(rule_strategy, st.text(alphabet="ab", min_size=1, max_size=6),
       st.text(alphabet="ab", min_size=1, max_size=6), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_morphism_length_additivity(rules, u, v, n):
    s = Substitution.from_rules(rules)
    assert s.lengths(u + v, n) == [x + y for x, y in zip(s.lengths(u, n), s.lengths(v, n))]


@given(st.text(alphabet="abc", min_size=0, max_size=50))
def test_counting_consistency(w):
    assert sum(naive_count(ch, w) for ch in "abc") == len(w)


@given(st.integers(2, 30))
def test_overlap_counting(n):
    # naive_return_words needs overlapping occurrences counted
    assert naive_count("aa", "a" * n) == n - 1


def test_restriction_consistency(fib):
    deep = factor_language(fib, 9)
    shallow = factor_language(fib, 5)
    assert {w for w in deep.words if len(w) <= 5} == shallow.words


# --- maximal-word representation against the reference closure -----------------

def _random_rules(seed: int) -> dict[str, str]:
    rng = random.Random(seed)
    letters = "abc"[: rng.choice((2, 3))]
    return {c: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4))) for c in letters}


# some factors here occur only near the end of iterates: they start no
# factor of length n, so only the suffixes of the end words yield them
END_SUFFIX_SYSTEMS = {
    "a-aa-b-b-c-abb": {"a": "aa", "b": "b", "c": "abb"},
    "a-c-b-aab-c-a": {"a": "c", "b": "aab", "c": "a"},
    "a-bb-b-a-c-bac": {"a": "bb", "b": "a", "c": "bac"},
    "a-bab-b-ab-c-ac": {"a": "bab", "b": "ab", "c": "ac"},
    "a-a-b-cc-c-ac": {"a": "a", "b": "cc", "c": "ac"},
}

ORACLE_SYSTEMS = [
    *CATALOG_NAMES,
    *SLOW_SYSTEMS,
    *END_SUFFIX_SYSTEMS,
    *(f"random-{seed}" for seed in range(8)),
]


def _oracle_substitution(name: str, catalog_subs) -> Substitution:
    if name in SLOW_SYSTEMS:
        return Substitution.from_rules(SLOW_SYSTEMS[name][0])
    if name in END_SUFFIX_SYSTEMS:
        return Substitution.from_rules(END_SUFFIX_SYSTEMS[name])
    if name.startswith("random-"):
        return Substitution.from_rules(_random_rules(int(name.split("-")[1])))
    return catalog_subs[name]


@pytest.mark.parametrize(
    "name,depth",
    [(name, depth) for name in ORACLE_SYSTEMS for depth in (16, 48, 128)]
    + [(name, 4) for name in END_SUFFIX_SYSTEMS]
    + [(name, 256) for name in ("fibonacci", "thue-morse", "minimal-nonprimitive", "random-6")],
)
def test_factor_language_matches_closure_oracle(name, depth, catalog_subs):
    s = _oracle_substitution(name, catalog_subs)
    fs = factor_language(s, depth)
    words, saturated, rounds = closure_factor_language(s, depth)
    assert (fs.saturated, fs.rounds) == (saturated, rounds)
    assert fs.words == words


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_words_of_length_match_closure_oracle(name, catalog_subs):
    s = catalog_subs[name]
    fs = factor_language(s, 24)
    words, *_ = closure_factor_language(s, 24)
    for n in range(1, 25):
        assert fs.words_of_length(n) == tuple(sorted(w for w in words if len(w) == n)), n


@pytest.mark.parametrize(
    "name", ["fibonacci", "remarkc", "random-1", "random-2", *SLOW_SYSTEMS, *END_SUFFIX_SYSTEMS]
)
def test_membership_reads_maximal_words(name, catalog_subs):
    s = _oracle_substitution(name, catalog_subs)
    fs = factor_language(s, 20)
    words, *_ = closure_factor_language(s, 20)
    probes = sorted({w + x for w in words for x in s.letters} | {x + w for w in words for x in s.letters})
    assert all(w in fs for w in words)
    assert [w for w in probes if w in fs] == [w for w in probes if w in words]
    assert "" not in fs
    assert "words" not in fs.__dict__  # answered without deriving the full set


@pytest.mark.parametrize("name", [*SLOW_SYSTEMS, *END_SUFFIX_SYSTEMS, "random-0", "random-5"])
def test_return_words_match_closure_oracle(name, catalog_subs):
    s = _oracle_substitution(name, catalog_subs)
    fs = factor_language(s, 12)
    words, *_ = closure_factor_language(s, 12)
    for v in sorted(s.letters):
        expected = naive_return_words(words, v)
        assert return_words(v, fs) == expected, v


def test_deep_slow_system_saturates_below_word_cap():
    # all factors of length <= 256 number about 2.7 million, over the
    # MAX_WORDS cap; the 32,045 maximal words are not
    s = Substitution.from_rules(SLOW_SYSTEMS["0-01001-1-1"][0])
    fs = factor_language(s, 256)
    assert fs.saturated and fs.rounds == 257
    assert len(fs.maximal) == 32045


def test_word_cap_counts_maximal_words(monkeypatch):
    s = lr.load("fibonacci")
    stored = len(factor_language(s, 64).maximal)  # 65 of length 64 plus the short iterates
    monkeypatch.setattr(wd, "MAX_WORDS", stored)
    assert factor_language(s, 64).saturated
    monkeypatch.setattr(wd, "MAX_WORDS", stored - 1)
    capped = factor_language(s, 64)
    assert not capped.saturated
    with pytest.raises(UnsaturatedFactorSetError):
        repetitivity_function(capped, 1)


# --- runs of new windows against the per-window closure --------------------------

@pytest.fixture(scope="module")
def per_window_systems():
    """(name, substitution) pairs: the catalog, tests/data, the classify-slow
    systems and 300 seeded random systems over 2-4 letters with images of
    1-5 letters, so that bounded letters (single-letter images) occur."""
    named = {p.stem: json.loads(p.read_text())["rules"] for p in sorted(DATA.glob("*.json"))}
    named.update((f"slow-{i}", rules) for i, rules in enumerate(CLASSIFY_SLOW_RULES))
    rng = random.Random(3030)
    for i in range(300):
        letters = "abcd"[: rng.randint(2, 4)]
        named[f"random-{i}"] = {a: "".join(rng.choices(letters, k=rng.randint(1, 5))) for a in letters}
    systems = [(name, lr.load(name)) for name in CATALOG_NAMES]
    return systems + [(name, Substitution.from_rules(rules)) for name, rules in named.items()]


@pytest.mark.parametrize("depth", [1, 2, 7, 48])
def test_factor_language_matches_per_window_oracle(depth, per_window_systems):
    for name, s in per_window_systems:
        # cycles-45045 needs 45,046 rounds at depth 7, seconds for each closure
        if depth > 2 and name == "cycles-45045":
            continue
        fs = factor_language(s, depth)
        want = per_window_factor_language(s, depth)
        assert (fs.maximal, fs.ends, fs.saturated, fs.rounds) == want, (name, depth)


@pytest.mark.parametrize("cap", [10, 100, 1000])
def test_capped_closure_matches_per_window_oracle(cap, monkeypatch):
    # a closure stopped by MAX_WORDS stops after the same round, with the same words
    monkeypatch.setattr(wd, "MAX_WORDS", cap)
    capped = 0
    for rules in CLASSIFY_SLOW_RULES:
        s = Substitution.from_rules(rules)
        fs = factor_language(s, 48)
        want = per_window_factor_language(s, 48, max_words=cap)
        assert (fs.maximal, fs.ends, fs.saturated, fs.rounds) == want, rules
        capped += not fs.saturated
    assert capped


@pytest.mark.parametrize("depth,rounds,words", [(48, 49, 1092), (256, 257, 32045)])
def test_runs_expand_few_letters_per_word(depth, rounds, words):
    # each run of new windows is expanded once: about 5 letters per maximal
    # word here, where expanding each window alone takes depth + 2
    s = Substitution.from_rules({"0": "01001", "1": "1"})
    expanded = []
    apply = s.apply
    s.apply = lambda w: expanded.append(len(w)) or apply(w)
    fs = factor_language(s, depth)
    assert (fs.saturated, fs.rounds, len(fs.maximal)) == (True, rounds, words)
    assert sum(expanded) <= 10 * words


@pytest.mark.parametrize("depth,rounds,words", [(2, 144, 404), (4, 9010, 14316)])
def test_end_words_are_expanded_once(depth, rounds, words):
    # cycles-45045 keeps 47 end words over thousands of rounds, each finding
    # a few new words: expanding each end word once applies about 3 letters
    # per maximal word, where expanding all 46 letters' end words in every
    # round applied 34 per word at depth 4
    s = Substitution.from_rules(json.loads((DATA / "cycles-45045.json").read_text())["rules"])
    expanded = []
    apply = s.apply
    s.apply = lambda w: expanded.append(w) or apply(w)
    fs = factor_language(s, depth)
    assert (fs.saturated, fs.rounds, len(fs.maximal), len(fs.ends)) == (True, rounds, words, 47)
    assert sum(map(len, expanded)) <= 3 * words


# --- integer-coded word levels ---------------------------------------------------


def _check_coding(words, letters):
    # every field of code_words against its definition on the strings
    coded = wd.code_words(words, letters)
    ws = sorted(set(words))
    assert coded.words == ws
    for i, w in enumerate(ws):
        if i:
            assert coded.lcp[i] == len(os.path.commonprefix([ws[i - 1], w]))
        tail = w[1:]
        for length in range(1, len(w)):
            occurs = any(v.startswith(tail[:length]) for v in ws)
            assert occurs == (length <= coded.reach[i]), (w, length)
            if occurs:
                assert ws[coded.link[i]].startswith(tail[:length])
    for length in range(1, max(map(len, ws), default=0) + 1):
        prefixes = sorted({w[:length] for w in ws})
        assert [prefixes.index(w[:length]) for w in ws] == list(coded.classes(length))


def test_code_words_match_their_definitions():
    rng = random.Random(2122)
    _check_coding([], "ab")
    _check_coding(["a"], "ab")
    for letters in ["ab", "abc", "αβж"]:
        for _ in range(30):
            words = ["".join(rng.choices(letters, k=rng.randint(1, 7))) for _ in range(40)]
            _check_coding(words, letters)


def test_code_words_past_255_letters():
    # 300 letters, chr(0) among them: the codes are four bytes, big-endian,
    # and code 256 holds zero bytes, yet the rows still sort as the words do
    letters = [chr(i) for i in range(300)]
    rng = random.Random(2123)
    for _ in range(5):
        words = ["".join(rng.choices(letters, k=rng.randint(1, 5))) for _ in range(200)]
        words += [w + letters[256] + letters[0] for w in words[:50]]
        _check_coding(words, letters)


# --- the exact coverage fold against the reference scan ------------------------

def _check_fold_against_scan(s, target_sets, depth) -> int:
    """Compare coverage_exact with the scan; returns how many values were compared."""
    words, saturated, _ = closure_factor_language(s, depth)
    assert saturated
    compared = 0
    for targets in target_sets:
        expected = scan_coverage_length(words, targets, depth)
        try:
            got = coverage_exact(s, targets)
        except CoverageUndecidedError:
            assert expected is None, targets
            continue
        if not any(len(w) == got for w in words):
            # past the depth, or vacuous past the longest factor of a finite
            # language; the scan skips lengths without factors
            assert expected is None, targets
        else:
            assert got == expected, targets
            compared += 1
    return compared


def _coverage_target_sets(fs):
    letters = sorted(fs.substitution.letters)
    return [
        *([a] for a in letters),
        letters,
        list(fs.words_of_length(2)),
        list(fs.words_of_length(3))[:2],
        [letters[0] * 3, letters[-1] * 2],
        [letters[0] * fs.max_length],
        [letters[0] + "x"],  # not a factor at all
    ]


@pytest.mark.parametrize(
    "rules,depth",
    [
        ({"a": "ab", "b": "a"}, 24),
        ({"a": "abb", "b": "ba"}, 16),
        ({"a": "a", "b": "abbb"}, 12),  # the letter a is a short iterate forever
        ({"a": "a"}, 5),  # the language is the single word a
        ({"a": "b", "b": "b"}, 6),
        ({"0": "01001", "1": "1"}, 16),
        ({"a": "abc", "b": "bc", "c": "c"}, 20),
        ({"a": "aab", "b": "b"}, 18),
        *((rules, 6) for rules in END_SUFFIX_SYSTEMS.values()),
    ]
    + [(_random_rules(seed), 14) for seed in range(8)],
)
def test_coverage_length_matches_scan(rules, depth):
    s = Substitution.from_rules(rules)
    fs = factor_language(s, depth)
    target_sets = [targets for targets in _coverage_target_sets(fs) if targets]
    _check_fold_against_scan(s, target_sets, depth)


def test_coverage_length_quick_rejection():
    # remarkc has a letter missing from a factor of length 14: the fold
    # finds no gap bound for it, and the scan none within that depth
    s = lr.load("remarkc")
    fs = factor_language(s, 14)
    missing = [a for a in s.letters if any(a not in w for w in fs.words_of_length(14))]
    assert missing
    words, *_ = closure_factor_language(s, 14)
    for a in missing:
        with pytest.raises(CoverageUndecidedError):
            coverage_exact(s, [a])
        assert scan_coverage_length(words, [a], 14) is None


def test_coverage_length_short_iterates():
    s = Substitution.from_rules({"a": "a", "b": "abbb"})
    fs = factor_language(s, 12)
    assert "a" in fs.maximal  # S^k(a) = a stays shorter than the depth
    assert _check_fold_against_scan(s, [["a"]], 12) == 1
    assert coverage_exact(s, ["a"]) == 4
    with pytest.raises(CoverageUndecidedError):
        coverage_exact(s, ["b"])  # S^k(b) starts with a^k
    single = Substitution.from_rules({"a": "a"})
    assert coverage_exact(single, ["a"]) == 1
    # the language is {a}: no factor has length 2, so 2 holds vacuously,
    # where the scan, which skips empty lengths, answers None
    assert coverage_exact(single, ["aa"]) == 2
    assert _check_fold_against_scan(single, [["a"], ["aa"]], 5) == 1


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_coverage_exact_matches_scan_catalog(name, catalog_subs, catalog_reports):
    s, rep = catalog_subs[name], catalog_reports[name]
    letters = sorted(s.letters)
    target_sets = [[a] for a in letters] + [letters]
    depth = 24
    if rep.lr is not None:
        # the report's kappa and G, checked against the scan below
        letter, pairs = rep.certificate.letter, list(rep.lr.pair_set)
        assert coverage_exact(s, [letter]) == rep.kappa
        assert coverage_exact(s, pairs) == rep.lr.G
        target_sets += [[letter], pairs]
        depth = rep.lr.G + 2
    compared = _check_fold_against_scan(s, target_sets, depth)
    if rep.lr is not None:
        assert compared == len(target_sets)  # minimal: every target has bounded gaps


@pytest.mark.parametrize("rules", CLASSIFY_SLOW_RULES)
def test_coverage_exact_matches_scan_slow_systems(rules):
    s = Substitution.from_rules(rules)
    fs = factor_language(s, 20)
    letters = sorted(s.letters)
    target_sets = [
        *([a] for a in letters),
        letters,
        list(fs.words_of_length(2)),
        *([w] for w in fs.words_of_length(3)),
    ]
    # none of these is minimal: most targets are avoided by arbitrarily long factors
    assert _check_fold_against_scan(s, target_sets, 20) >= 1


def test_coverage_exact_matches_scan_random():
    rng = random.Random(780)
    compared = systems = 0
    while systems < 24:
        letters = "abc"[: rng.choice((2, 3))]
        rules = {c: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4))) for c in letters}
        s = Substitution.from_rules(rules)
        if not lr.bounded_letters(s).growing:
            continue  # a finite language: every long length holds every target vacuously
        systems += 1
        pool = sorted(factor_language(s, 4).words)
        target_sets = [
            rng.sample(pool, min(len(pool), rng.randint(1, 3))) for _ in range(4)
        ] + [["".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))]]
        compared += _check_fold_against_scan(s, target_sets, 40)
    assert compared >= 40


@pytest.mark.parametrize(
    "rules,targets",
    [
        # targets longer than the letters and the short iterates: the kept
        # first and last |t| - 1 letters must not wrap around
        ({"a": "ab", "b": "a"}, ["aba", "abaab", "baababaa", "abaababaabaab"]),
        # two occurrences across one seam: the longest run across it stops
        # short of the occurrence that uses more letters of the left word
        ({"a": "bb", "b": "babbb"}, ["bbbab", "bbbba", "abbbba"]),
    ],
)
def test_coverage_exact_seam_cases(rules, targets):
    s = Substitution.from_rules(rules)
    words, *_ = closure_factor_language(s, 40)
    for t in targets:
        assert coverage_exact(s, [t]) == scan_coverage_length(words, [t], 40), t


def test_coverage_exact_caps_rounds():
    # "ba" never occurs in the iterates a b^k: the avoiding factors grow
    # without bound, so the fold stops at its cap with a typed result
    s = Substitution.from_rules({"a": "ab", "b": "b"})
    with pytest.raises(CoverageUndecidedError, match="undecided-at-depth"):
        coverage_exact(s, ["ba"])
    with pytest.raises(ValueError):
        coverage_exact(s, [""])


# --- the coverage fold against the fold that keeps the longest t-free factor ----

def _fold_outcome(fold, s, targets):
    # the value, or the message of CoverageUndecidedError
    try:
        return fold(s, targets)
    except CoverageUndecidedError as exc:
        return str(exc)


def _run_fold(s, targets):
    return coverage_fold_with_run(s, targets)[0]


def test_coverage_exact_matches_run_fold_random():
    # seeded random systems with growing letters, targets drawn from their
    # short factors and now and then a random word: values and messages agree
    rng = random.Random(2626)
    decided = undecided = 0
    while decided + undecided < 1500:
        letters = "abc"[: rng.choice((2, 3))]
        rules = {c: "".join(rng.choices(letters, k=rng.randint(1, 4))) for c in letters}
        s = Substitution.from_rules(rules)
        if not lr.bounded_letters(s).growing:
            continue
        pool = sorted(factor_language(s, 5).words)
        for _ in range(3):
            targets = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
            if rng.random() < 0.05:
                targets.append("".join(rng.choices(letters, k=rng.randint(1, 6))))
            targets += rng.sample(targets, rng.randint(0, 1))  # a repeated target now and then
            expected = _fold_outcome(_run_fold, s, targets)
            assert _fold_outcome(coverage_exact, s, targets) == expected, (rules, targets)
            decided += isinstance(expected, int)
            undecided += isinstance(expected, str)
    assert decided >= 950 and undecided >= 500


def _certified_systems():
    systems = [lr.load(name) for name in CATALOG_NAMES]
    systems += [Substitution.from_rules(rules) for rules in sweep_rules()]
    for path in sorted(DATA.glob("*.json")):
        systems.append(Substitution.from_rules(json.loads(path.read_text())["rules"]))
    for s in systems:
        rep = lr.classify(s)
        if rep.certificate is not None:
            yield s, rep


# the letter cycles of lengths 5, 7, 11 and 13 of tests/data/kappa-lcm.json
# repeat the tuple of its gap-bound fold only at round 10,015
KAPPA_FOLD_ROUNDS = 20000


def test_kappa_and_G_of_certified_systems_match_run_fold(monkeypatch):
    # every certified system of the catalog, the classify-sweep workload and
    # tests/data: kappa and G, or G's undecided message, as the fold with the
    # longest t-free factor in its summaries gives them
    certified = with_G = 0
    for s, rep in _certified_systems():
        e = rep.certificate.letter
        with monkeypatch.context() as m:
            m.setattr(wd, "FOLD_ROUNDS", KAPPA_FOLD_ROUNDS)
            assert rep.kappa == _run_fold(s, [e]) == coverage_exact(s, [e]), s
        certified += 1
        steps = return_word_chain(s, e)
        if not steps:
            continue  # the chain passed its work cap: no pairs to cover
        pairs = return_word_pairs(steps[0])[1]
        expected = _fold_outcome(_run_fold, s, pairs)
        assert _fold_outcome(coverage_exact, s, pairs) == expected, s
        if rep.lr is None:
            assert f"pair-coverage length {expected}" in " ".join(rep.depth_caveats), s
        else:
            assert rep.lr.G == expected, s
            with_G += 1
    assert certified == 116 and with_G == 114


def _first_letter_cycle(s, letters):
    # whether a -> the first letter of S(a) has a cycle of length >= 2 inside `letters`
    for a in letters:
        b, steps = s.rules[a][0], 1
        while b in letters and b != a and steps <= len(letters):
            b, steps = s.rules[b][0], steps + 1
        if b == a and steps >= 2:
            return True
    return False


def _cycle_systems(seed):
    # seeded random systems over 2-8 letters, about a third of the images a
    # single letter; in 60% of them a cycle of letters whose images begin
    # with the next one, either single letters (bounded, with the other
    # images beginning and ending outside the cycle, so that bounded runs
    # cannot pump) or growing letters followed by a tail
    rng = random.Random(seed)
    while True:
        letters = [chr(ord("a") + i) for i in range(rng.randint(2, 8))]
        rules = {
            a: rng.choice(letters) if rng.random() < 0.35
            else "".join(rng.choices(letters, k=rng.randint(2, 5)))
            for a in letters
        }
        mode = rng.random()
        if mode < 0.6:
            cycle = rng.sample(letters, rng.randint(2, max(2, len(letters) - 1)))
            single = mode < 0.3
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                tail = "" if single else "".join(rng.choices(letters, k=rng.randint(1, 3)))
                rules[a] = b + tail
            if single:
                outer = [a for a in letters if a not in cycle]
                for a in outer:
                    middle = "".join(rng.choices(letters, k=rng.randint(0, 3)))
                    rules[a] = rng.choice(outer) + middle + rng.choice(outer)
        yield Substitution.from_rules(rules)


def test_kappa_is_the_longest_return_word(monkeypatch):
    # the gap bound kappa of a certified letter e is the length of its
    # longest return word, from step 1 of the chain: r e is a factor and r
    # less its first letter is e-free, and by minimality every e-free
    # factor lies inside a return word after its first letter.  Checked
    # against the coverage fold for e on 2,000 seeded certified systems with
    # cycles of bounded letters and of growing letters; the certified
    # systems of the catalog, the classify-sweep workload and tests/data are
    # checked through the report's kappa in
    # test_kappa_and_G_of_certified_systems_match_run_fold
    monkeypatch.setattr(wd, "FOLD_ROUNDS", KAPPA_FOLD_ROUNDS)

    def chain_kappa(s, e):
        return max(map(len, return_word_chain(s, e)[0][0]))

    certified = bounded_cycles = growing_cycles = 0
    for s in _cycle_systems(11):
        if certified == 2000:
            break
        try:
            decision = decide_minimality(s)
        except SubstitutionError:
            continue  # empty subshift or unreachable letters
        if decision.certificate is None:
            continue
        e = decision.certificate.letter
        assert chain_kappa(s, e) == coverage_exact(s, [e]), s
        certified += 1
        bounded_cycles += _first_letter_cycle(s, s.split.eternally_single)
        growing_cycles += _first_letter_cycle(s, s.split.growing)
    assert bounded_cycles >= 500 and growing_cycles >= 1000


def test_coverage_fold_rounds_never_exceed_run_fold(monkeypatch):
    # the projected summary tuple repeats no later than the whole one: capped
    # at the rounds the fold with the longest t-free factor took, the fold
    # still decides, with the same value
    rng = random.Random(2627)
    checked = 0
    while checked < 400:
        letters = "abc"[: rng.choice((2, 3))]
        rules = {c: "".join(rng.choices(letters, k=rng.randint(1, 4))) for c in letters}
        s = Substitution.from_rules(rules)
        pool = sorted(factor_language(s, 6).words)
        for t in rng.sample(pool, min(len(pool), 3)):
            try:
                expected, rounds = coverage_fold_with_run(s, [t], fold_rounds=64)
            except CoverageUndecidedError:
                continue
            monkeypatch.setattr(wd, "FOLD_ROUNDS", rounds)
            assert coverage_exact(s, [t]) == expected, (rules, t)
            monkeypatch.undo()
            checked += 1

import json
import math
import random
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linrep as lr
from linrep.substitution import (
    Alphabet,
    EmptySubshiftError,
    ErasingRuleError,
    NotPrimitiveError,
    Substitution,
    SubstitutionError,
    UnknownLetterError,
    bounded_letters,
    check_compatibility,
    growth_ratio_range,
    interior_power,
    is_primitive,
    perron_growth,
    prune_to_reachable,
    reduced_substitution,
    validate,
)
from linrep.classify import decide_minimality, return_word_pairs
from linrep.words import factor_language

from conftest import CATALOG_NAMES, sweep_rules

from bruteforce import (
    apply_rules,
    bfs_reach,
    growth_sandwich_holds,
    interior_power_by_strings,
    levels_blocked_factor,
    length_columns,
    mat_pow,
    project,
    short_factors_by_strings,
    word_image_lengths,
)

DATA = Path(__file__).parent / "data"


# --- construction and validation -------------------------------------------------


def test_erasing_rule_rejected():
    with pytest.raises(ErasingRuleError):
        Substitution.from_rules({"a": ""})


def test_unknown_letter_rejected():
    with pytest.raises(UnknownLetterError):
        Substitution(Alphabet("ab"), {"a": "ac", "b": "b"})


def test_apply_rejects_letter_outside_alphabet():
    s = lr.load("fibonacci")
    assert s.apply("abba") == "abaaab"
    with pytest.raises(UnknownLetterError):
        s.apply("abz")
    with pytest.raises(UnknownLetterError):
        s.iterate("z", 2)


def test_duplicate_values_rejected_by_default():
    with pytest.raises(SubstitutionError):
        Alphabet("ab", {"a": 1.0, "b": 1.0})
    al = Alphabet("ab", {"a": 1.0, "b": 1.0}, allow_duplicate_values=True)
    assert al.values["a"] == al.values["b"] == 1.0


@pytest.mark.parametrize(
    "value, coupling",
    [(True, None), (False, None), ("2.5", None), ("1", None), (None, None), (1, True), (1, "2")],
    ids=["true", "false", "string", "digit-string", "null", "coupling-true", "coupling-string"],
)
def test_letter_values_must_be_json_numbers(value, coupling):
    # JSON true read as 1.0 and "2.5" as 2.5
    definition = {
        "rules": {"a": "ab", "b": "a"},
        "alphabet": [{"symbol": "a", "value": value}, {"symbol": "b", "value": 0}],
    }
    if coupling is not None:
        definition["potential_coupling"] = coupling
    field = "a real 'value'" if coupling is None else "'potential_coupling' must be a real number"
    with pytest.raises(SubstitutionError, match=field):
        validate(definition)


def test_validate_fibonacci(fib):
    report = validate(fib)
    assert report.witness == "a"
    assert fib.split.candidates == ("a", "b")
    assert fib.split.reach[report.witness] == {"a", "b"}
    assert fib.split.growing == {"a", "b"}


def test_validate_remark1b():
    report = validate(lr.load("remark1b"))
    assert report.witness == "0"
    assert report.substitution.split.candidates == ("0",)
    assert report.substitution.split.growing == {"0"}


def test_validate_empty_subshift():
    with pytest.raises(EmptySubshiftError):
        validate(Substitution.from_rules({"a": "b", "b": "a"}))


def test_validate_reports_pruning():
    # c lives in its own component, unreachable from a and reaching nothing else
    s = Substitution.from_rules({"a": "ab", "b": "a", "c": "cc"})
    report = validate(s)
    assert report.witness == "a"
    assert not s.split.candidates
    assert s.split.reach[report.witness] == {"a", "b"}
    pruned = prune_to_reachable(s, "a")
    assert pruned.letters == ("a", "b")


def test_derived_substitutions_keep_order_values_and_name():
    # the alphabet is not in code-point order and its values repeat; x is
    # bounded, and z grows but is reached from no other letter
    definition = {
        "name": "mixed",
        "allow_duplicate_values": True,
        "alphabet": [{"symbol": a, "value": v} for a, v in
                     [("c", 2), ("z", 2), ("a", 0.5), ("x", 2)]],
        "rules": {"c": "cxa", "z": "zz", "a": "acx", "x": "x"},
    }
    report = validate(definition)
    s = report.substitution
    assert report.witness == "c"
    pruned = prune_to_reachable(s, "c")
    assert pruned.letters == ("c", "a", "x")
    assert pruned.alphabet.values == {"c": 2.0, "a": 0.5, "x": 2.0}
    assert list(pruned.rules.items()) == [("c", "cxa"), ("a", "acx"), ("x", "x")]
    assert pruned.name == "mixed"
    for base, letters, rules in [
        (s, ("c", "z", "a"), {"c": "ca", "z": "zz", "a": "ac"}),
        (pruned, ("c", "a"), {"c": "ca", "a": "ac"}),
    ]:
        red = reduced_substitution(base)
        assert red.letters == letters
        assert red.alphabet.values == {a: s.alphabet.values[a] for a in letters}
        assert list(red.rules.items()) == list(rules.items())
        assert red.name == "mixed~"
    # an unnamed system stays unnamed
    assert reduced_substitution(Substitution.from_rules({"a": "ab", "b": "a"})).name is None


def _shuffled_draws():
    # seeded systems of 2-6 letters whose alphabets come in shuffled order,
    # with their validation reports; empty subshifts are skipped
    rng = random.Random(35)
    for _ in range(2000):
        letters = list("abcdef"[: rng.randint(2, 6)])
        rng.shuffle(letters)
        lengths = [1 if rng.random() < 1 / 3 else rng.randint(2, 4) for _ in letters]
        rules = {a: "".join(rng.choices(letters, k=k)) for a, k in zip(letters, lengths)}
        alphabet = [{"symbol": a, "value": i} for i, a in enumerate(letters)]
        try:
            yield letters, rules, validate({"rules": rules, "alphabet": alphabet})
        except EmptySubshiftError:
            continue


def test_reach_and_candidates_equal_bfs():
    # on the shuffled draws, the split's reach is each letter's breadth-first
    # reach, its candidates are the growing letters that reach every letter,
    # in alphabet order, validate's witness reaches the most letters (ties:
    # alphabet order), the minimality decision is about a candidate, and the
    # compatibility letter is the first candidate in sorted order
    differs = {"witness": 0, "compatibility": 0, "no candidate": 0}
    for letters, rules, report in _shuffled_draws():
        s = report.substitution
        reach = {a: bfs_reach(rules, [a]) for a in letters}
        assert s.split.reach == reach
        growing = [a for a in letters if a in s.split.growing]
        candidates = tuple(a for a in growing if reach[a] == set(letters))
        assert s.split.candidates == candidates, rules
        most = max(len(reach[a]) for a in growing)
        assert report.witness == next(a for a in growing if len(reach[a]) == most), rules
        differs["witness"] += report.witness != growing[0]
        if not candidates:
            with pytest.raises(SubstitutionError):
                check_compatibility(s)
            differs["no candidate"] += 1
            continue
        decision = decide_minimality(s)
        assert (decision.certificate or decision.counterexample).letter in candidates
        compatibility = check_compatibility(s)
        if compatibility.status == "holds-certified":
            assert compatibility.detail["letter"] == min(candidates), rules
            differs["compatibility"] += min(candidates) != candidates[0]
    assert differs == {"witness": 574, "compatibility": 591, "no candidate": 267}


def test_shapes_cut_each_growing_image(catalog_subs):
    # the split cuts S(c) of each growing letter c at its growing letters:
    # joined back it is S(c), its letters are the growing letters of S(c)
    # in order, its runs hold none, and the reduced substitution keeps the
    # letters; on the catalog, the shuffled draws and letters that are
    # special inside a regular-expression character class
    rules = {"-": "-^]", "]": "\\[-", "\\": "]^", "^": "[", "[": "^"}
    special = Substitution.from_rules(rules)
    systems = [*catalog_subs.values(), *(r.substitution for *_, r in _shuffled_draws()), special]
    for s in systems:
        growing, shapes = s.split.growing, s.split.shapes
        assert list(shapes) == [c for c in s.letters if c in growing], s
        for c, shape in shapes.items():
            assert "".join(shape) == s.rules[c], s
            assert shape[1::2] == tuple(ch for ch in s.rules[c] if ch in growing), s
            assert all(growing.isdisjoint(run) for run in shape[0::2]), s
        erased = {c: "".join(ch for ch in s.rules[c] if ch not in s.split.bounded) for c in shapes}
        assert reduced_substitution(s).rules == erased, s
    assert special.split.growing == {"-", "]", "\\"}


def test_definition_mapping_roundtrip():
    defn = {
        "name": "x",
        "alphabet": [{"symbol": "a", "value": 1.0}, {"symbol": "b", "value": -1.0}],
        "rules": {"a": "ab", "b": "a"},
        "potential_coupling": 2.0,
    }
    rep = validate(defn)
    assert rep.substitution.alphabet.values["a"] == 2.0
    assert rep.substitution.alphabet.values["b"] == -2.0


# --- bounded letters --------------------------------------------------------------


def test_bounded_letters_abaa():
    split = bounded_letters(Substitution.from_rules({"a": "abaa", "b": "b"}))
    assert split.bounded == {"b"}
    assert split.growing == {"a"}
    assert split.eternally_single == {"b"}


def test_bounded_letters_remarkc():
    split = bounded_letters(lr.load("remarkc"))
    assert split.bounded == {"1"}
    assert split.growing == {"0"}


def test_bounded_letters_swap():
    split = bounded_letters(Substitution.from_rules({"a": "b", "b": "a"}))
    assert split.bounded == {"a", "b"}
    assert split.growing == frozenset()


def test_bounded_letters_rebranching_chain():
    # b -> c -> bb: bounded letters may wander before branching, so b, c both grow
    split = bounded_letters(Substitution.from_rules({"a": "ab", "b": "c", "c": "bb"}))
    assert split.growing == {"a", "b", "c"}


def test_b_invariance(catalog_subs):
    for s in catalog_subs.values():
        split = bounded_letters(s)
        for b in split.bounded:
            assert set(s.rules[b]) <= set(split.bounded)


def test_split_is_computed_once(fib):
    assert fib.split is fib.split
    assert fib.split == bounded_letters(fib)


# --- reduction --------------------------------------------------------------------


def test_reduced_abaa():
    s = Substitution.from_rules({"a": "abaa", "b": "b"})
    assert reduced_substitution(s).rules == {"a": "aaa"}


def test_reduced_primitive_unchanged(fib):
    assert reduced_substitution(fib).rules == fib.rules


def test_reduced_remarkc_not_growing():
    # erasing the bounded letter from 101 leaves a single 0: reduction must
    # not assume the reduced substitution grows
    s = lr.load("remarkc")
    red = reduced_substitution(s)
    assert red.rules == {"0": "0"}
    assert red.lengths("0", 10)[-1] == 1


def test_reduced_requires_growing_letter():
    s = Substitution.from_rules({"a": "b", "b": "a"})
    with pytest.raises(EmptySubshiftError, match="cannot reduce: no growing letters"):
        reduced_substitution(s)


def _random_substitution(rng, letters="abc", max_len=3):
    k = rng.randint(2, len(letters))
    chosen = letters[:k]
    rules = {
        ch: "".join(rng.choice(chosen) for _ in range(rng.randint(1, max_len)))
        for ch in chosen
    }
    return Substitution.from_rules(rules)


def test_erasure_intertwines_iteration_random():
    rng = random.Random(20240808)
    done = 0
    while done < 60:
        s = _random_substitution(rng)
        if not s.split.growing:
            continue
        red = reduced_substitution(s)
        w = "".join(rng.choice(s.letters) for _ in range(rng.randint(1, 5)))
        n = rng.randint(0, 6)
        image = s.iterate(w, n)
        if len(image) > 50000:
            continue
        assert project(s, image) == red.iterate(project(s, w), n)
        done += 1


def test_erasure_never_lengthens():
    # the upper half of the reduced/original length comparison holds for
    # every word, with or without any recurrence certificate
    rng = random.Random(4)
    done = 0
    while done < 40:
        s = _random_substitution(rng)
        if not s.split.growing:
            continue
        w = "".join(rng.choice(s.letters) for _ in range(rng.randint(1, 5)))
        for n in range(0, 6):
            if s.lengths(w, n)[-1] > 50000:
                break
            image = s.iterate(w, n)
            assert len(project(s, image)) <= len(image)
        done += 1


def test_reduced_length_comparable_under_bounded_gaps():
    # with a bounded-gaps certificate the reduced lengths stay within a
    # uniform factor of the original ones for words with a growing letter
    from linrep.classify import YES, classify

    s = Substitution.from_rules({"a": "abaa", "b": "b"})
    rep = classify(s)
    assert rep.minimal == YES
    kappa = rep.kappa
    for v in ("a", "ab", "aba"):
        for n in range(1, 12):
            full = s.iterate(v, n)
            reduced_len = len(project(s, full))
            assert reduced_len <= len(full)
            assert reduced_len >= len(full) / kappa - 2


# --- abelianization ---------------------------------------------------------------


def test_abelianization_fibonacci(fib):
    assert fib.abelianization() == [[1, 1], [1, 0]]


@given(
    st.fixed_dictionaries(
        {
            "a": st.text(alphabet="ab", min_size=1, max_size=3),
            "b": st.text(alphabet="ab", min_size=1, max_size=3),
        }
    ),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_abelianization_functoriality(rules, n):
    s = Substitution.from_rules(rules)
    m = s.abelianization()
    power = mat_pow(m, n)
    # occurrence counts of the n-th iterate: #_b(S^n(a)) entrywise
    for i, a in enumerate(s.letters):
        image = s.iterate(a, n)
        for j, b in enumerate(s.letters):
            assert power[i][j] == image.count(b)


def test_image_lengths_match_row_sums(fib):
    m = fib.abelianization()
    p = mat_pow(m, 9)
    for i, a in enumerate(fib.letters):
        assert fib.lengths(a, 9)[-1] == sum(p[i])


def test_lengths_match_the_length_recursion():
    # the one length table equals the letter-by-letter recursion on Python
    # ints, bit for bit, on every catalog, classify-sweep and tests/data
    # system, read at levels out of order so the table grows between reads,
    # and equals the iterates' own lengths below 10^5 letters
    systems = [(name, lr.load(name)) for name in CATALOG_NAMES]
    systems += [(f"sweep-{i}", Substitution.from_rules(r)) for i, r in enumerate(sweep_rules())]
    for path in sorted(DATA.glob("*.json")):
        systems.append((path.stem, Substitution.from_rules(json.loads(path.read_text())["rules"])))
    rng = random.Random(41)
    past_int64 = []
    for name, s in systems:
        words = list(s.letters) + ["".join(s.letters)]
        words += ["".join(rng.choices(s.letters, k=rng.randint(1, 12))) for _ in range(3)]
        for w in words:
            want = word_image_lengths(s.rules, w, 40)
            for n in (5, 40, 17, 0):
                assert s.lengths(w, n) == want[: n + 1], (name, w, n)
            image = w
            for n, length in enumerate(want):
                if length >= 10**5:
                    break
                assert len(image) == length, (name, w, n)
                image = s.apply(image)
        if s.lengths("".join(s.letters), 40)[-1] >= 2**63:
            past_int64.append(name)
    # the table passes 2^63 on slow-theta-100 and on 70 of the 100 sweep
    # systems by level 40, so lengths on both sides of int64 are compared
    assert "slow-theta-100" in past_int64
    assert sum(name.startswith("sweep-") for name in past_int64) == 70


def test_lengths_raise_typed_errors(fib):
    # a foreign letter and a negative level are refused at the one entry,
    # also after the table has grown past the level asked for
    assert fib.lengths("ab", 3) == [2, 3, 5, 8]
    with pytest.raises(UnknownLetterError, match="letter 'z' is not in the alphabet"):
        fib.lengths("az", 3)
    with pytest.raises(ValueError, match="n >= 0"):
        fib.lengths("ab", -1)


# --- primitivity ------------------------------------------------------------------


def test_primitive_fibonacci(fib):
    res = is_primitive(fib)
    assert res.primitive and res.power == 2


def test_primitive_remark1b_not():
    res = is_primitive(lr.load("remark1b"))
    assert not res.primitive
    assert res.zero_entry is not None
    r, a, b = res.zero_entry
    # the zero entry certifies that letter b never occurs in S^r(a)
    s = lr.load("remark1b")
    assert b not in s.iterate(a, r)


def test_primitive_one_letter():
    assert is_primitive(Substitution.from_rules({"a": "aa"})).power == 1


def test_primitivity_matches_integer_powers():
    # the zero patterns of exact integer powers M^r, r up to the Wielandt bound
    rng = random.Random(433)
    for _ in range(300):
        letters = "abcde"[: rng.randint(1, 5)]
        rules = {x: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for x in letters}
        s = Substitution.from_rules(rules)
        m = s.abelianization()
        bound = (len(m) - 1) ** 2 + 1
        power = next((r for r in range(1, bound + 1) if all(map(all, mat_pow(m, r)))), None)
        zero = None
        if power is None:
            p = mat_pow(m, bound)
            i, j = next((i, j) for i, row in enumerate(p) for j, x in enumerate(row) if x == 0)
            zero = (bound, s.letters[i], s.letters[j])
        res = is_primitive(s)
        assert (res.primitive, res.power, res.zero_entry) == (power is not None, power, zero), rules


def _primitivity_by_zero_patterns(s):
    # the zero pattern of M^r is the boolean product of M^(r-1) and M
    m = [[x > 0 for x in row] for row in s.abelianization()]
    bound = (len(m) - 1) ** 2 + 1
    p = m
    for r in range(1, bound + 1):
        if all(map(all, p)):
            return True, r, None
        if r < bound:
            p = [[any(x and y for x, y in zip(row, col)) for col in zip(*m)] for row in p]
    i, j = next((i, j) for i, row in enumerate(p) for j, x in enumerate(row) if not x)
    return False, None, (bound, s.letters[i], s.letters[j])


def test_primitivity_on_wide_alphabets(catalog_subs):
    # every catalog system and every data system of at most 16 letters, so
    # the orbit sets read at the Wielandt bound are checked on wide alphabets
    systems = list(catalog_subs.values())
    for path in sorted(DATA.glob("*.json")):
        s = validate(json.loads(path.read_text())).substitution
        if len(s.letters) <= 16:
            systems.append(s)
    assert len(systems) == 17
    for s in systems:
        res = is_primitive(s)
        assert (res.primitive, res.power, res.zero_entry) == _primitivity_by_zero_patterns(s), s

# --- growth -----------------------------------------------------------------------


def test_perron_theta_one_letter():
    s = Substitution.from_rules({"a": "abaa", "b": "b"})
    g = perron_growth(s, ["a"], 30)
    assert g.theta == pytest.approx(3.0, abs=1e-12)


def test_perron_theta_fibonacci(fib):
    g = perron_growth(fib, ["a", "ab"], 30)
    assert abs(g.theta - (1 + math.sqrt(5)) / 2) < 1e-8
    assert growth_sandwich_holds(g, fib)
    # internal consistency: n=1 ratios are inside the window
    for v in g.words:
        ratio = word_image_lengths(fib.rules, v, 1)[1] / g.theta
        assert g.lambda_v <= ratio + 1e-12
        assert ratio <= g.rho_v + 1e-12


def test_perron_theta_constant_length():
    s = Substitution.from_rules({"a": "ab", "b": "ab"})
    assert perron_growth(s, ["a"], 10).theta == pytest.approx(2.0, abs=1e-12)


def test_perron_matches_growth_ratio_at_40(fib):
    red = reduced_substitution(fib)
    theta = perron_growth(fib, ["a"], 1).theta
    lengths = word_image_lengths(red.rules, "a", 41)
    ratio = lengths[41] / lengths[40]
    assert abs(theta - ratio) < 1e-8


def test_perron_theta_of_a_slowly_mixing_matrix():
    # M = [[100, 1], [1, 99]] has eigenvalues (199 +- sqrt 5) / 2 with ratio
    # 1 - 2.2e-2, so a power iteration from the ones vector closes in slowly,
    # and one that stops on a small step ends 1.7e-11 short of theta
    s = Substitution.from_rules({"a": "a" * 100 + "b", "b": "b" * 99 + "a"})
    theta = perron_growth(s, ["a"], 1).theta
    assert abs(theta - (199 + math.sqrt(5)) / 2) <= 1e-14 * theta


def test_perron_theta_of_wide_16():
    # mpmath at 40 digits: 3.19525262489496...
    rules = json.loads((DATA / "wide-16.json").read_text())["rules"]
    s = Substitution.from_rules(rules)
    assert f"{perron_growth(s, sorted(s.split.growing), 1).theta:.12g}" == "3.19525262489"


def test_perron_rejects_nonprimitive_reduction():
    s = lr.load("remarkc")
    # the 1x1 reduction 0 -> 0 is "primitive" as a matrix, so growth runs,
    # but theta = 1 reflects that the reduction lost all growth
    g = perron_growth(s, ["0"], 10)
    assert g.theta == pytest.approx(1.0)


def test_perron_rejects_bounded_only_words(fib):
    s = Substitution.from_rules({"a": "abaa", "b": "b"})
    with pytest.raises(ValueError):
        perron_growth(s, ["b"], 5)
    with pytest.raises(UnknownLetterError):
        perron_growth(s, ["az"], 5)


def test_perron_growth_reads_the_reduced_system_off_the_split():
    # seeded random systems, most with bounded letters: perron_growth refuses
    # exactly those whose reduced system is not primitive, naming its zero
    # entry, and otherwise its theta is the reduced matrix's, bit for bit
    rng = random.Random(40)
    refused = accepted = 0
    while refused < 100 or accepted < 100:
        letters = string.ascii_lowercase[: rng.randint(2, 5)]
        rules = {a: "".join(rng.choices(letters, k=rng.choice([1, 1, 2, 3]))) for a in letters}
        s = Substitution.from_rules(rules)
        if not s.split.growing:
            continue
        red = reduced_substitution(s)
        growing = sorted(s.split.growing)
        prim = is_primitive(red)
        if prim.primitive:
            theta = float(np.abs(np.linalg.eigvals(red.abelianization())).max())
            assert perron_growth(s, growing, 3).theta == theta, rules
            accepted += 1
        else:
            with pytest.raises(NotPrimitiveError, match=re.escape(f"zero at {prim.zero_entry})")):
                perron_growth(s, growing, 3)
            refused += 1


@pytest.mark.parametrize("n_max", [0, -2])
def test_perron_growth_rejects_empty_range(fib, n_max):
    # with no exponent checked lambda would stay inf and rho 0
    with pytest.raises(ValueError, match="n_max >= 1"):
        perron_growth(fib, ["a"], n_max)


def test_perron_growth_past_float_range_builds_no_length_table(fib, monkeypatch):
    def no_table(self, w, n_max):
        pytest.fail(f"length table of {w!r} up to {n_max} built")

    monkeypatch.setattr(Substitution, "lengths", no_table)
    with pytest.raises(SubstitutionError, match=r"n <= 2000 \(theta = 1\.61803398875\)"):
        perron_growth(fib, ["a", "ab"], 2000)


def test_growth_table_product_matches_python_ints():
    # lambda and rho from the product of letter counts and length columns
    # equal the ratios of the per-word Python-int tables, bit for bit, on
    # every certified catalog, classify-sweep and tests/data system, for its
    # return words (or, past the chain's cap, its growing letters); lengths
    # past int64 take the product in Python ints
    systems = [(name, lr.load(name)) for name in CATALOG_NAMES]
    systems += [(f"sweep-{i}", Substitution.from_rules(r)) for i, r in enumerate(sweep_rules())]
    for path in sorted(DATA.glob("*.json")):
        systems.append((path.stem, Substitution.from_rules(json.loads(path.read_text())["rules"])))
    python_ints, int64 = [], 0
    for name, s in systems:
        rep = lr.classify(s)
        if rep.certificate is None:
            continue
        words = return_word_pairs(rep.chain[0])[0] if rep.chain else s.split.growing
        g = perron_growth(s, words, 30)
        columns = length_columns(s.rules, 30)
        longest = max(columns[a][-1] for a in s.letters)
        if max(map(len, g.words)) * longest >= 2**63:
            python_ints.append(name)
        else:
            int64 += 1
        ratios = [
            sum(columns[ch][n] for ch in v) / g.theta**n for v in g.words for n in range(1, 31)
        ]
        assert (g.lambda_v, g.rho_v) == (min(ratios), max(ratios)), name
    sweep = [name for name in python_ints if name.startswith("sweep-")]
    assert "slow-theta-100" in python_ints and len(sweep) == 18
    assert int64 >= 90 and "cycles-45045" not in python_ints


def test_growth_table_errors_do_not_depend_on_magnitude():
    # a foreign letter and a length past the float range raise the same
    # errors whether the product runs in int64 or in Python ints
    small = Substitution.from_rules({"a": "ab", "b": "a"})
    large = Substitution.from_rules({"a": "a" * 40 + "b", "b": "a"})
    assert (
        2 * word_image_lengths(large.rules, "a", 12)[-1]
        >= 2**63
        > 2 * word_image_lengths(small.rules, "a", 12)[-1]
    )
    for s in (small, large):
        with pytest.raises(UnknownLetterError):
            growth_ratio_range(s, ["az"], 1.5, 12)
    with pytest.raises(SubstitutionError, match="leaves the float range"):
        growth_ratio_range(large, ["ab"], 1.0, 200)
    ratios = [x / 40.0**n for n, x in enumerate(word_image_lengths(large.rules, "ab", 12)) if n]
    assert growth_ratio_range(large, ["ab"], 40.0, 12) == (min(ratios), max(ratios))


def test_perron_growth_without_growing_letters():
    # as when the reduced system was built first: no growing letter is a
    # SubstitutionError of its own, before any word is read
    s = Substitution.from_rules({"a": "b", "b": "a"})
    with pytest.raises(EmptySubshiftError, match="cannot reduce: no growing letters"):
        perron_growth(s, ["a"], 5)


def test_growth_sandwich_exact_integers():
    s = Substitution.from_rules({"a": "abaa", "b": "b"})
    g = perron_growth(s, ["a", "ab"], 30)
    for v in g.words:
        for n, length in enumerate(word_image_lengths(s.rules, v, 30)[1:], 1):
            assert g.lambda_v * g.theta**n * (1 - 1e-9) <= length
            assert length <= g.rho_v * g.theta**n * (1 + 1e-9)


# --- fixed points -----------------------------------------------------------------


def test_iterate_prefix_matches_letter_by_letter_oracle():
    # seeded random systems with bounded letters; most seeds start no fixed point;
    # the lengths are checked against the length recursion on the way
    rng = random.Random(808)
    for _ in range(150):
        letters = "abcd"[: rng.randint(2, 4)]
        rules = {x: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3))) for x in letters}
        s = Substitution.from_rules(rules)
        growing = bounded_letters(s).growing
        seed = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        assert s.lengths(seed, 12) == word_image_lengths(rules, seed, 12)
        for length in (0, len(seed) - 1, len(seed), rng.randint(1, 40), rng.randint(100, 3000)):
            if length > len(seed) and not growing & set(seed):
                with pytest.raises(SubstitutionError):
                    lr.iterate_prefix(s, seed, length)
                continue
            w = seed
            while len(w) < length:
                w = apply_rules(rules, w)
            assert lr.iterate_prefix(s, seed, length) == w[:length], (rules, seed, length)


def test_iterate_prefix_rejects_seed_without_growing_letter():
    s = lr.load("minimal-nonprimitive")
    with pytest.raises(SubstitutionError):
        lr.iterate_prefix(s, "b", 10)
    with pytest.raises(SubstitutionError):
        lr.iterate_prefix(s, "", 1)
    with pytest.raises(UnknownLetterError):
        lr.iterate_prefix(s, "az", 10)
    # b's images lengthen from 1 to 2 letters before they settle
    s = Substitution.from_rules({"a": "aab", "b": "cc", "c": "c"})
    message = "the seed has no growing letter: its images stay at 2 < 10 letters"
    with pytest.raises(SubstitutionError) as info:
        lr.iterate_prefix(s, "b", 10)
    assert str(info.value) == message
    assert lr.iterate_prefix(s, "b", 2) == "cc"



def test_iterate_prefix_on_slowly_growing_seeds():
    # the images of these seeds grow linearly ({a -> ab, b -> b}: S^k(a) =
    # a b^k) or quadratically ({a -> abc, b -> bc, c -> c}: S^k(b) = b c^k
    # and S^k(a) = a bc bc^2 ... bc^k), so the power k is near `length` or
    # its square root; halving the power keeps the work near length * log k
    s = Substitution.from_rules({"a": "ab", "b": "b"})
    for n in (1, 2, 3, 1000, 20001, 200000):
        assert lr.iterate_prefix(s, "a", n) == "a" + "b" * (n - 1), n
    s = Substitution.from_rules({"a": "abc", "b": "bc", "c": "c"})
    fixed = "a" + "".join("b" + "c" * i for i in range(1, 700))
    assert len(fixed) > 200000
    for n in (1, 2, 5, 1000, 50001, 200000):
        assert lr.iterate_prefix(s, "a", n) == fixed[:n], n
        assert lr.iterate_prefix(s, "b", n) == "b" + "c" * (n - 1), n


def _naive_fixed_point_prefix(s, zero, n):
    k = 0
    while word_image_lengths(s.rules, zero, k)[-1] < n:
        k += 1
    return s.iterate(zero, k)[:n]


def test_iterate_prefix_is_the_fixed_point_prefix():
    # S(0) begins with 0, so every S^k(0) is a prefix of the fixed point;
    # the four two-letter shapes of the catalog, then seeded random images
    # of the growing letter that begin with it
    shapes = [
        "minimal-nonprimitive",
        "minimal-nonprimitive-noaa",
        "stutter-doubled",
        "stutter-separated",
    ]
    for name in shapes:
        s = lr.load(name)
        zero = next(a for a in s.letters if len(s.rules[a]) > 1)
        for n in (1, 2, 7, 100, 1001, 20000):
            assert lr.iterate_prefix(s, zero, n) == _naive_fixed_point_prefix(s, zero, n), (name, n)
    rng = random.Random(1707)
    for _ in range(1000):
        image = "0" + "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        if "0" not in image[1:]:
            image += "0"
        s = Substitution.from_rules({"0": image, "1": "1"})
        n = rng.randint(1, 3000)
        assert lr.iterate_prefix(s, "0", n) == _naive_fixed_point_prefix(s, "0", n), (image, n)


# --- compatibility ----------------------------------------------------------------


def test_compatibility_remark1b_fails():
    s = lr.load("remark1b")
    res = check_compatibility(s)
    assert res.status == "fails-certified"
    assert res.detail["blocked_factor"] == "0"
    assert res.detail["side"] == "right"


def test_compatibility_fibonacci_holds(fib):
    res = check_compatibility(fib)
    assert res.status == "holds-certified"


def test_compatibility_swapped_thue_morse():
    s = Substitution.from_rules({"a": "ba", "b": "ab"})
    res = check_compatibility(s)
    assert res.status == "holds-certified"


def test_compatibility_one_sided_prefix_point_fails():
    # a -> ab, b -> b grows a one-sided fixed point whose first letter can
    # never be extended to the left, so the two-sided language is smaller
    s = Substitution.from_rules({"a": "ab", "b": "b"})
    res = check_compatibility(s)
    assert res.status == "fails-certified"
    assert res.detail == {"blocked_factor": "a", "side": "left"}


def test_compatibility_rejects_shallow_factor_set(fib):
    # a recurrence needs no factors, but {a -> ab, b -> b}, where no letter
    # recurs inside its images, reads the factors of length <= 3 from
    # factor_language at depth 3 to name the blocked one
    assert check_compatibility(fib).status == "holds-certified"
    s = Substitution.from_rules({"a": "ab", "b": "b"})
    res = check_compatibility(s)
    assert res.detail == {"blocked_factor": "a", "side": "left"}


def test_compatibility_matches_a_string_closure():
    # the check reads the factors of length <= 3 from factor_language(s, 3);
    # on seeded systems of 2-26 letters with mostly one-letter images that
    # set saturates, its levels equal those of a closure that applies the
    # rules to every factor found as strings, and the verdict equals the one
    # read off those levels: fails-certified naming the first factor of
    # length 1, then 2, in sorted order with no right (checked first) or no
    # left extension, else holds-certified
    rng = random.Random(5)
    verdicts = {"holds-certified": 0, "fails-certified": 0, "raises": 0}
    for _ in range(1000):
        letters = string.ascii_lowercase[: rng.randint(2, 26)]
        rules = {a: "".join(rng.choices(letters, k=rng.choice([1, 1, 2, 3]))) for a in letters}
        s = Substitution.from_rules(rules)
        levels = short_factors_by_strings(rules)
        fs = factor_language(s, 3)
        assert fs.saturated, rules
        assert [sorted(v) for v in levels] == [list(fs.words_of_length(m)) for m in (1, 2, 3)], rules
        if not s.split.candidates:
            with pytest.raises(SubstitutionError):
                check_compatibility(s)
            verdicts["raises"] += 1
            continue
        blocked = [
            {"blocked_factor": w, "side": "left" if any(u.startswith(w) for u in longer) else "right"}
            for words, longer in zip(levels, levels[1:])
            for w in sorted(words)
            if not (any(u.startswith(w) for u in longer) and any(u.endswith(w) for u in longer))
        ]
        want = blocked[0] if blocked else None
        got = check_compatibility(s)
        if want is None:
            assert got.status == "holds-certified", rules
        else:
            assert (got.status, got.detail) == ("fails-certified", want), rules
        verdicts[got.status] += 1
    assert verdicts == {"holds-certified": 93, "fails-certified": 146, "raises": 761}


def test_interior_power_matches_string_oracle():
    # the letter walk against S^p(e) built as strings for p up to 8|A|, on
    # seeded systems over 2-8 letters with mostly one-letter images, so that
    # least powers run long and many letters never recur inside their images
    rng = random.Random(2323)
    found = never = 0
    for _ in range(1200):
        letters = "abcdefgh"[: rng.randint(2, 8)]
        rules = {
            a: "".join(rng.choices(letters, k=rng.choice([1, 1, 1, 1, 2, 3]))) for a in letters
        }
        s = Substitution.from_rules(rules)
        for e in letters:
            got = interior_power(s, e)
            want, checked = interior_power_by_strings(s, e, cap=2000)
            assert got is None or got <= 4 * len(letters) - 2, (rules, e)
            if want is not None or checked == 8 * len(letters):
                assert got == want, (rules, e)
                found += want is not None
                never += want is None
            else:  # the words passed the cap after `checked` powers
                assert got is None or got > checked, (rules, e)
    assert found >= 1000 and never >= 1000, (found, never)


def test_compatibility_refutation_matches_all_levels_oracle(level_systems):
    # the exact check against the oracle that scans every level up to 48 of
    # a saturated depth-49 set as strings: compatibility holds exactly where
    # nothing is blocked, and fails naming the oracle's factor; a system
    # without a growing letter that reaches every letter raises
    verdicts = {"holds-certified": 0, "fails-certified": 0, "raises": 0}
    for s in level_systems:
        if all(s.split.reach[e] != set(s.letters) for e in s.split.growing):
            with pytest.raises(SubstitutionError):
                check_compatibility(s)
            verdicts["raises"] += 1
            continue
        got = check_compatibility(s)
        fs = factor_language(s, 49)
        if not fs.saturated:
            continue
        want = levels_blocked_factor(fs, 48)
        if want is None:
            assert got.status == "holds-certified", s
        else:
            assert (got.status, got.detail) == ("fails-certified", want), s
        verdicts[got.status] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_compatibility_scan_memory_stays_at_two_levels():
    # {a -> abc, b -> bc, c -> c}: a never recurs inside its images, so the
    # check reads its factors of length <= 3; every factor of every length
    # up to 121 at once as strings peaks near 28 MB
    import tracemalloc

    s = Substitution.from_rules({"a": "abc", "b": "bc", "c": "c"})
    tracemalloc.start()
    try:
        res = check_compatibility(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "fails-certified"
    assert peak < 10**7, peak

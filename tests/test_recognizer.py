import itertools
import json
import random
from pathlib import Path

import pytest

import linrep as lr
from linrep import numtheory as nt
from linrep import recognizer as rec
from linrep import words as wd
from linrep.classify import YES
from linrep.substitution import Substitution, SubstitutionError

from bruteforce import (
    MAX_WIDTH_DEPTH,
    ShallowFactorSetError,
    center_disagreement,
    distinct_windows,
    interior_cuts,
    max_power_exponent,
    naive_partitions,
    power_bound,
    rule_cuts,
    uniqueness_walk,
    window_desubstitute,
    window_half_width,
)

# the catalog's minimal aperiodic two-letter fixed-letter systems
SHAPES = ["minimal-nonprimitive", "minimal-nonprimitive-noaa", "stutter-doubled", "stutter-separated"]


@pytest.fixture(scope="module")
def abaa():
    return lr.load("minimal-nonprimitive")


@pytest.fixture(scope="module")
def abaa_report(abaa):
    return lr.classify(abaa)


@pytest.fixture(scope="module")
def abaa_factors(abaa):
    return wd.factor_language(abaa, 64)


@pytest.fixture(scope="module")
def abaa_rule(abaa, abaa_factors, abaa_report):
    return rec.recognition_rule(abaa, abaa_factors, abaa_report)


def test_shape_gate():
    assert rec.shape_letters(lr.load("minimal-nonprimitive")) == ("a", "b")
    with pytest.raises(rec.ShapeError):
        rec.shape_letters(lr.load("fibonacci"))
    with pytest.raises(rec.ShapeError):
        rec.shape_letters(Substitution.from_rules({"a": "abc", "b": "b", "c": "c"}))


def test_enumerate_pinned_toy():
    toy = Substitution.from_rules({"a": "aba", "b": "b"})
    parts = rec.enumerate_one_partitions(toy, "abab")
    assert [(p.z0, p.blocks, p.z_end) for p in parts] == [
        ("", ("aba", "b"), ""),
        ("a", ("b",), "ab"),
    ]
    assert [p.cut_positions for p in parts] == [(0, 3, 4), (1, 2)]


def test_enumerate_single_b():
    toy = Substitution.from_rules({"a": "aba", "b": "b"})
    parts = rec.enumerate_one_partitions(toy, "b")
    assert len(parts) == 1
    assert parts[0].blocks == ("b",)
    assert parts[0].z0 == "" and parts[0].z_end == ""


def test_enumerate_full_block():
    toy = Substitution.from_rules({"a": "aba", "b": "b"})
    parts = rec.enumerate_one_partitions(toy, "aba")
    assert parts[0].blocks == ("aba",)


def test_enumerate_rejects_foreign_letters(abaa):
    with pytest.raises(ValueError):
        rec.enumerate_one_partitions(abaa, "abc")


def test_enumerate_partition_cap_is_a_substitution_error(abaa, monkeypatch):
    # "abaab" has more 1-partitions than a cap of 0 allows
    monkeypatch.setattr(rec, "MAX_PARTITIONS", 0)
    with pytest.raises(SubstitutionError, match="more than 0 partitions"):
        rec.enumerate_one_partitions(abaa, "abaab")


def test_enumerate_matches_naive_recursion(abaa):
    rng = random.Random(5)
    sample = lr.iterate_prefix(abaa, "a", 400)
    for _ in range(40):
        i = rng.randrange(0, len(sample) - 12)
        w = sample[i : i + rng.randint(2, 12)]
        mine = [p.cut_positions for p in rec.enumerate_one_partitions(abaa, w)]
        assert sorted(mine) == naive_partitions(abaa.rules["a"], "b", w)


def test_enumerate_matches_naive_on_random_shapes():
    # includes images starting with the fixed letter, where block choice
    # genuinely branches
    rng = random.Random(303)
    for _ in range(60):
        alpha = "".join(rng.choice("ab") for _ in range(rng.randint(2, 5)))
        s = Substitution.from_rules({"a": alpha, "b": "b"})
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 14)))
        mine = [p.cut_positions for p in rec.enumerate_one_partitions(s, w)]
        assert sorted(mine) == naive_partitions(alpha, "b", w), (alpha, w)


@pytest.mark.parametrize("name", SHAPES)
def test_front_parses_match_enumeration(name):
    # the catalog's minimal shapes: S(a) begins and ends with a, so parses are forced
    s = lr.load(name)
    a, b = rec.shape_letters(s)
    alpha = s.rules[a]
    fs = wd.factor_language(s, 12)
    rng = random.Random(17)
    words = [w for m in range(1, 13) for w in sorted(fs.words_of_length(m))]
    words += ["".join(rng.choice((a, b)) for _ in range(rng.randint(0, 16))) for _ in range(300)]
    for w in words:
        parses = rec.front_parses(alpha, b, w)
        assert parses == [p.cut_positions for p in rec.enumerate_one_partitions(s, w)], w
        assert parses == naive_partitions(alpha, b, w), w


def _shape_system(name):
    if name == "long-power":
        path = Path(__file__).parent / "data" / "long-power.json"
        return Substitution.from_rules(json.loads(path.read_text())["rules"])
    return lr.load(name)


@pytest.mark.parametrize("name", [*SHAPES, "long-power"])
def test_is_factor_matches_the_language(name):
    # every word up to length 12 against the factor set, then seeded windows
    # of a long iterate with one letter changed against the iterate itself
    s = _shape_system(name)
    a, b = rec.shape_letters(s)
    short = wd.factor_language(s, 12).words
    for m in range(13):
        for letters in itertools.product((a, b), repeat=m):
            w = "".join(letters)
            assert rec.is_factor(s, w) == (w in short or not w), w
    text = lr.iterate_prefix(s, a, 400000)
    rng = random.Random(name)
    refused = 0
    for _ in range(100):
        n = rng.randint(13, 300)
        start = rng.randrange(len(text) - n)
        w = list(text[start : start + n])
        i = rng.randrange(n)
        w[i] = a if w[i] == b else b
        w = "".join(w)
        assert rec.is_factor(s, w) == (w in text), (start, n, i)
        refused += w not in text
        assert rec.is_factor(s, text[start : start + 20 * n])
    assert refused >= 90
    if name == "long-power":
        # 100,000-letter windows, and each with one letter changed, which the
        # 13 letters around the change show to be no factor
        for _ in range(5):
            start = rng.randrange(len(text) - 100000)
            w = text[start : start + 100000]
            assert rec.is_factor(s, w), start
            i = rng.randrange(6, len(w) - 6)
            w = w[:i] + (a if w[i] == b else b) + w[i + 1 :]
            assert w[i - 6 : i + 7] not in short, (start, i)
            assert not rec.is_factor(s, w), (start, i)


@pytest.mark.parametrize("name", [*SHAPES, "long-power"])
def test_is_factor_builds_no_factor_set(monkeypatch, name):
    # the chain of preimages ends at a factor of S(a), so no factor set is read
    s = _shape_system(name)
    a, b = rec.shape_letters(s)
    short = wd.factor_language(s, 8).words
    text = lr.iterate_prefix(s, a, 5000)

    def refuse(*args, **kwargs):
        raise AssertionError("is_factor built a factor set")

    monkeypatch.setattr(wd, "factor_language", refuse)
    for m in range(9):
        for letters in itertools.product((a, b), repeat=m):
            w = "".join(letters)
            assert rec.is_factor(s, w) == (w in short or not w), w
    assert rec.is_factor(s, text)


def test_recognition_rule_requires_bordered_image(abaa_factors, abaa_report):
    s = Substitution.from_rules({"a": "baa", "b": "b"})
    with pytest.raises(SubstitutionError, match="start and end"):
        rec.recognition_rule(s, abaa_factors, abaa_report)


@pytest.mark.parametrize(
    "name, message",
    [
        ("fibonacci", "requires a nonprimitive substitution"),
        ("remarkc", "requires certified minimality (got 'no')"),
        ("periodic-ab", "requires aperiodicity (periodicity status 'periodic')"),
        ("unbordered", "requires the image of the growing letter to start and end with it"),
    ],
)
def test_applications_share_one_premise_gate(name, message, abaa_report):
    if name == "unbordered":
        # a report forged from minimal-nonprimitive for an image starting with b
        s, rep = Substitution.from_rules({"a": "baa", "b": "b"}), abaa_report
    else:
        s = lr.load(name)
        rep = lr.classify(s)
    calls = [
        lambda: rec.recognition_rule(s, rep.factors, rep),
        lambda: rec.uniqueness_scan(s, rep, rep.factors),
        lambda: nt.detect_case(s, rep),
    ]
    raised = set()
    for call in calls:
        with pytest.raises(SubstitutionError) as info:
            call()
        raised.add((info.type, str(info.value)))
    expected = rec.ShapeError if name == "fibonacci" else SubstitutionError
    assert raised == {(expected, message)}


def test_partition_concatenation_invariant(abaa):
    sample = lr.iterate_prefix(abaa, "a", 200)
    for w in (sample[3:40], sample[10:90]):
        for p in rec.enumerate_one_partitions(abaa, w):
            assert p.z0 + "".join(p.blocks) + p.z_end == w
            for block in p.blocks:
                assert block in (abaa.rules["a"], "b")


def test_cut_density(abaa):
    alpha_len = len(abaa.rules["a"])
    sample = lr.iterate_prefix(abaa, "a", 300)
    for p in rec.enumerate_one_partitions(abaa, sample[5:250]):
        gaps = {b - a for a, b in zip(p.cut_positions, p.cut_positions[1:])}
        assert gaps <= {1, alpha_len}


def test_image_not_shift_of_itself():
    # for valid systems the growing image is neither a prefix of b+image nor
    # a suffix of image+b (otherwise it would be a pure fixed-letter power
    # and the system periodic)
    for name in ("minimal-nonprimitive", "minimal-nonprimitive-noaa"):
        s = lr.load(name)
        a, b = rec.shape_letters(s)
        alpha = s.rules[a]
        assert alpha != (b + alpha)[: len(alpha)]
        assert alpha != (alpha + b)[-len(alpha) :]


def test_front_remainder_bound(abaa):
    # two partitions that both start with the full image block agree except
    # within |S(a)b| of the right end
    alpha = abaa.rules["a"]
    sample = lr.iterate_prefix(abaa, "a", 400)
    idx = sample.find(alpha * 2)
    w = sample[idx : idx + 90]
    parts = [
        p for p in rec.enumerate_one_partitions(abaa, w) if p.blocks and p.blocks[0] == alpha
    ]
    bound = len(alpha) + 1
    for p1 in parts:
        for p2 in parts:
            left1 = {c for c in p1.cut_positions if c <= len(w) - bound}
            left2 = {c for c in p2.cut_positions if c <= len(w) - bound}
            assert left1 == left2


def test_power_bound_abaa(abaa, abaa_factors):
    assert power_bound(abaa, abaa_factors) == 12  # (abaa)^3 occurs, 4th powers do not


def test_window_width_routes(abaa, abaa_factors):
    # the power-bound routes, kept as oracles of the recognition half-width
    assert window_half_width(abaa, abaa_factors) == ("doubled-letter", 12 + 2 * 5)

    noaa = lr.load("minimal-nonprimitive-noaa")
    fs = wd.factor_language(noaa, 64)
    L = (max_power_exponent(noaa, fs) + 2) * 2 * len(noaa.rules["a"])
    assert window_half_width(noaa, fs) == ("no-doubled-letter", L)


def test_propagation_below_threshold(abaa, abaa_factors):
    # once a word is long enough, a partition starting with a doubled image
    # block forces every partition to start that way
    alpha = abaa.rules["a"]
    L0 = power_bound(abaa, abaa_factors)
    threshold = 2 * len(alpha) + L0
    for length in range(threshold + 1, min(2 * threshold, abaa_factors.max_length) + 1):
        for w in abaa_factors.words_of_length(length):
            parts = rec.enumerate_one_partitions(abaa, w)
            starts_double = [
                p.blocks[:2] == (alpha, alpha) and p.z0 == "" for p in parts
            ]
            if any(starts_double):
                assert all(starts_double)


def test_one_partitions_agree_on_samples(abaa, abaa_rule):
    # the exhaustive enumerator, independent of the forced parses, finds one
    # interior cut-set on sampled factors of length 2L and longer
    sample = lr.iterate_prefix(abaa, "a", 3000)
    rng = random.Random(17)
    L = abaa_rule.half_width
    for _ in range(25):
        i = rng.randrange(0, len(sample) - 6 * L)
        w = sample[i : i + rng.randint(2 * L, 6 * L)]
        parts = rec.enumerate_one_partitions(abaa, w)
        assert parts
        assert len({interior_cuts(p, L) for p in parts}) == 1, w


def test_recognition_rule_refuses_periodic():
    s = lr.load("periodic-ab")
    rep = lr.classify(s)
    with pytest.raises(SubstitutionError, match="aperiodicity"):
        rec.recognition_rule(s, wd.factor_language(s, 32), rep)


def test_window_ladder_ends_at_the_width_cap(monkeypatch):
    # periodic-ab (a -> aba) holds every power (ab)^n, so no depth certifies
    # the exponent bound: from a depth-17 set the ladder doubles to 34, 68
    # and 136, builds MAX_WIDTH_DEPTH itself last, and then raises
    s = lr.load("periodic-ab")
    factors = wd.factor_language(s, 17)
    calls = []
    build = wd.factor_language

    def counted(s, max_length, **kwargs):
        calls.append(max_length)
        return build(s, max_length, **kwargs)

    monkeypatch.setattr(wd, "factor_language", counted)
    with pytest.raises(ShallowFactorSetError, match=r"'ab'\^129 exceeds factor depth 256$"):
        window_half_width(s, factors)
    assert calls == [34, 68, 136, 256] and calls[-1] == MAX_WIDTH_DEPTH


def test_window_width_does_not_depend_on_the_starting_depth(catalog_subs):
    # a certified exponent is exact, so the ladder from a saturated set of
    # depth 17 and from one of the classify depth 48 ends at the same width,
    # or at the same refusal at MAX_WIDTH_DEPTH
    shapes = 0
    for name, s in catalog_subs.items():
        try:
            rec.shape_letters(s)
        except rec.ShapeError:
            continue
        outcomes = []
        for depth in (17, 48):
            factors = wd.factor_language(s, depth)
            assert factors.saturated, (name, depth)
            try:
                outcomes.append(window_half_width(s, factors))
            except ShallowFactorSetError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], name
        shapes += 1
    assert shapes == 7


def _rule_or_refusal(s, factors, report):
    try:
        rule = rec.recognition_rule(s, factors, report)
    except SubstitutionError as exc:
        return str(exc)
    return rule.half_width, rule.windows


def test_floor_depth_set_gives_the_report_set_rule(catalog_subs):
    # `linrep partition` hands the rule the factors of length 2 * (|S(a)| // 2),
    # the depth of its first check, instead of the report's depth-48 set
    systems = dict(catalog_subs)
    definition = json.loads((Path(__file__).parent / "data" / "long-power.json").read_text())
    systems["long-power"] = lr.validate(definition).substitution
    ruled = []
    for name, s in systems.items():
        try:
            a, _ = rec.shape_letters(s)
        except rec.ShapeError:
            continue
        report = lr.classify(s)
        floor = wd.factor_language(s, 2 * (len(s.rules[a]) // 2))
        got = _rule_or_refusal(s, floor, report)
        assert got == _rule_or_refusal(s, report.factors, report), name
        if not isinstance(got, str):
            ruled.append((name, got[0]))
    assert sorted(ruled) == [
        ("long-power", 132),
        ("minimal-nonprimitive", 3),
        ("minimal-nonprimitive-noaa", 5),
        ("stutter-doubled", 3),
        ("stutter-separated", 3),
    ]


def test_no_doubled_letter_run_arithmetic():
    # in the no-doubled-letter case, the fixed-letter runs between image
    # blocks are pinned: every full-block decomposition of an aligned image
    # reads off one and the same run sequence (an offset variant would force
    # a long power, which the language does not contain)
    noaa = lr.load("minimal-nonprimitive-noaa")
    alpha = noaa.rules["a"]
    preimages = lr.iterate_prefix(noaa, "a", 400)
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        i = rng.randrange(0, len(preimages) - 14)
        x = preimages[i : i + rng.randint(4, 14)]
        j = x.find("a")
        k = x.rfind("a")
        if j < 0 or k <= j:
            continue
        w = noaa.apply(x[j : k + 1])  # starts and ends with a full image block
        runs = set()
        for p in rec.enumerate_one_partitions(noaa, w):
            if p.z0 == "" and p.z_end == "" and p.blocks[0] == alpha and p.blocks[-1] == alpha:
                runs.add(tuple(len(b) for b in p.blocks))
        assert len(runs) == 1
        checked += 1
    assert checked > 20


def test_recognition_rule_and_round_trip(abaa, abaa_rule, abaa_report):
    rule = abaa_rule
    rng = random.Random(31)
    sample = lr.iterate_prefix(abaa, "a", 20000)
    L = rule.half_width
    for _ in range(30):
        i = rng.randrange(0, len(sample) - (4 * L + 60))
        window = sample[i : i + 4 * L + 3 + rng.randrange(40)]
        preimage, offset = rec.desubstitute(abaa, window, rule)
        assert abaa.apply(preimage) == window[offset : offset + len(abaa.apply(preimage))]
        # the preimage is itself admissible
        assert preimage in wd.factor_language(abaa, len(preimage)).words


def _harvested_windows(s, L):
    """The 2L-windows centered at the cuts of every 1-partition of every
    factor of length 4L, away from the ends."""
    a, b = rec.shape_letters(s)
    fs = wd.factor_language(s, 4 * L)
    fs.require_saturated()
    out = set()
    for f in fs.words_of_length(4 * L):
        cuts = {c for parse in rec.front_parses(s.rules[a], b, f) for c in parse}
        out.update(f[c - L : c + L] for c in cuts if L <= c <= len(f) - L)
    return out


@pytest.fixture(scope="module")
def shape_rules():
    out = {}
    for name in SHAPES:
        s = lr.load(name)
        rep = lr.classify(s)
        out[name] = (s, rep, rec.recognition_rule(s, rep.factors, rep))
    return out


@pytest.mark.parametrize("name", SHAPES)
def test_rule_cuts_match_parses_on_fresh_samples(shape_rules, name):
    # windows longer than any the rule was read from, spread over a deep
    # iterate: every 1-partition cuts exactly where the rule does
    s, _, rule = shape_rules[name]
    a, b = rec.shape_letters(s)
    L = rule.half_width
    fresh = sorted(distinct_windows(lr.iterate_prefix(s, a, 10**4), 6 * L + 100))
    checked = 0
    for f in fresh[:: max(1, len(fresh) // 120)]:
        parses = rec.front_parses(s.rules[a], b, f)
        assert parses, f
        for cuts in parses:
            assert rule_cuts(rule, f) == [c for c in cuts if L <= c <= len(f) - L], f
        assert rec.desubstitute(s, f, rule) == window_desubstitute(s.rules, f, rule), f
        checked += 1
    assert checked >= 100


def test_rule_windows_match_4l_harvest(shape_rules):
    # the catalog shapes, then every a -> a w a, b -> b with |w| <= 6 that
    # is minimal and aperiodic
    for s, _, rule in shape_rules.values():
        assert rule.windows == _harvested_windows(s, rule.half_width), s.rules
    checked = 0
    for m in range(7):
        for letters in itertools.product("ab", repeat=m):
            if "b" not in letters:
                continue  # b unreachable
            s = Substitution.from_rules({"a": "a" + "".join(letters) + "a", "b": "b"})
            rep = lr.classify(s)
            if rep.minimal != YES or rep.periodicity.status != "aperiodic-up-to-depth":
                continue
            rule = rec.recognition_rule(s, rep.factors, rep)
            assert rule.windows == _harvested_windows(s, rule.half_width), s.rules
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("name", SHAPES)
def test_rule_refuses_too_narrow_half_width(shape_rules, name):
    # the catalog shapes' half-widths 3, 5, 3 and 3 are the least: all lie
    # above the floor |S(a)| // 2, and at L - 1 some factor of length 2L - 2
    # has 1-partitions that disagree at its centre
    s, _, rule = shape_rules[name]
    a, b = rec.shape_letters(s)
    alpha, L = s.rules[a], rule.half_width
    assert L == {"minimal-nonprimitive-noaa": 5}.get(name, 3)
    assert L - 1 >= len(alpha) // 2
    fs = wd.factor_language(s, 2 * L)
    assert center_disagreement(alpha, b, L, fs.words_of_length(2 * L)) is None
    assert center_disagreement(alpha, b, L - 1, fs.words_of_length(2 * L - 2)) is not None


def test_desubstitute_rejects_short_window(abaa, abaa_rule):
    with pytest.raises(ValueError):
        rec.desubstitute(abaa, "abaa", abaa_rule)


def test_recognition_no_doubled_letter_route(monkeypatch):
    # S(a) = ababba holds no aa, so the paper's route is the exponent bound:
    # 60, far above the least half-width 5
    noaa = lr.load("minimal-nonprimitive-noaa")
    rep = lr.classify(noaa)
    fs = wd.factor_language(noaa, 64)
    rule = rec.recognition_rule(noaa, fs, rep)
    assert window_half_width(noaa, fs) == ("no-doubled-letter", 60)
    L = rule.half_width
    assert L == 5
    sample = lr.iterate_prefix(noaa, "a", 6 * (4 * L + 80))
    rng = random.Random(41)
    for _ in range(10):
        i = rng.randrange(0, len(sample) - (4 * L + 80))
        window = sample[i : i + 4 * L + 3 + rng.randrange(60)]
        preimage, offset = rec.desubstitute(noaa, window, rule)
        image = noaa.apply(preimage)
        assert image == window[offset : offset + len(image)]
    monkeypatch.setattr(rec, "SCAN_WORD_LENGTH", 240)
    scan = lr.uniqueness_scan(noaa, rep, fs)
    assert scan.ok


def test_uniqueness_scan_moderate(abaa, abaa_report, abaa_factors, monkeypatch):
    monkeypatch.setattr(rec, "SCAN_WORD_LENGTH", 240)
    scan = lr.uniqueness_scan(abaa, abaa_report, abaa_factors)
    assert scan.ok
    assert scan.positions_checked > 10000


def test_uniqueness_scan_refuses_an_empty_audit(abaa, abaa_report, abaa_factors, monkeypatch):
    # the strip is 2L + |S(a)| = 2 * 3 + 4 = 10, so a window is 42 letters;
    # SCAN_WORD_LENGTH 0 sizes an empty sample, so no start would be checked,
    # and 1 sizes a 73-letter sample with 32 starts
    monkeypatch.setattr(rec, "SCAN_WORD_LENGTH", 0)
    with pytest.raises(ValueError, match="shorter than a window of 42"):
        lr.uniqueness_scan(abaa, abaa_report, abaa_factors)
    monkeypatch.setattr(rec, "SCAN_WORD_LENGTH", 1)
    scan = lr.uniqueness_scan(abaa, abaa_report, abaa_factors)
    assert scan.ok and (scan.half_width, scan.sample_length, scan.positions_checked) == (10, 73, 32)


def _walk_case(rng):
    """A random (alpha, L, sample): half are random strings over a random
    alpha, half prefixes of S^k(a) for a bordered alpha with 1-3 letters
    flipped."""
    if rng.random() < 0.5:
        alpha = "".join(rng.choice("ab") for _ in range(rng.randint(1, 7)))
        L = rng.randint(0, 12)
        sample = "".join(rng.choice("aab") for _ in range(4 * L + rng.randint(-4, 150)))
        return alpha, L, sample
    middle = "".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
    alpha = "a" + (middle if "b" in middle else middle + "b") + "a"
    L = rng.randint(2, 4 * len(alpha) + 8)
    sample = "a"
    while len(sample) < 4 * L + 200:
        sample = "".join(alpha if ch == "a" else ch for ch in sample)
    letters = list(sample[: 4 * L + 2 + rng.randrange(200)])
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(letters))
        letters[i] = "b" if letters[i] == "a" else "a"
    return alpha, L, "".join(letters)


def test_uniqueness_violations_match_the_walk():
    # fronts 6 and 7 both compare the whole sample "aaaaab" with a suffix of
    # alpha, as front 7 runs past the end, and they land apart at 6 and 7
    assert rec.uniqueness_violations("bbaaaaab", "b", 1, "aaaaab") == (0,)
    assert uniqueness_walk("bbaaaaab", "b", 1, "aaaaab") == (0,)
    rng = random.Random(14)
    outcomes = {"clean": 0, "some": 0, "capped": 0}
    for _ in range(2400):
        alpha, L, sample = _walk_case(rng)
        expected = uniqueness_walk(alpha, "b", L, sample)
        assert rec.uniqueness_violations(alpha, "b", L, sample) == expected, (alpha, L, sample)
        if not expected:
            outcomes["clean"] += 1
        else:
            outcomes["capped" if len(expected) == 17 else "some"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_uniqueness_violations_match_the_walk_past_the_end_and_past_u0100():
    # fronts that reach past the end of the sample (|alpha| > 4L + 2), and
    # the shape on the letters U+0100 and U+0101, read as code points
    rng = random.Random(36)
    wide = str.maketrans("ab", "\u0100\u0101")
    past_end = 0
    for _ in range(600):
        alpha, L, sample = _walk_case(rng)
        if rng.random() < 0.5:
            alpha = "a" + "".join(rng.choice("ab") for _ in range(rng.randint(4, 14))) + "a"
            L = rng.randint(0, 2)
            sample = sample[: 4 * L + 2 + rng.randrange(len(alpha))]
        past_end += len(alpha) > 4 * L + 2 and len(sample) >= 4 * L + 2
        expected = uniqueness_walk(alpha, "b", L, sample)
        assert rec.uniqueness_violations(alpha, "b", L, sample) == expected, (alpha, L, sample)
        got = rec.uniqueness_violations(alpha.translate(wide), "\u0101", L, sample.translate(wide))
        assert got == expected, (alpha, L, sample)
    assert past_end >= 200, past_end


def test_uniqueness_violations_memory(abaa, abaa_report):
    # the minimal-nonprimitive scan sample, 43,950 letters at the strip
    # L = 10: one byte per letter and one int32 row of positions at a time,
    # where an (|alpha|, starts) array of int64 positions peaked near 5 MB
    import tracemalloc

    sample = lr.iterate_prefix(abaa, "a", int(abaa_report.lr.value * 600) + 1200)
    assert len(sample) == 43950
    tracemalloc.start()
    try:
        violations = rec.uniqueness_violations("abaa", "b", 10, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == ()
    assert peak <= 3.5 * 10**6, peak


def test_uniqueness_scan_refuses_a_sample_past_int32():
    # tests/data/long-power.json has lr = 4,635,976, so the sample would
    # hold 2,781,587,089 letters: the scan raises before it reads a window
    # rule or builds the sample
    import time

    definition = json.loads((Path(__file__).parent / "data" / "long-power.json").read_text())
    s = lr.validate(definition).substitution
    rep = lr.classify(s)
    t0 = time.perf_counter()
    with pytest.raises(SubstitutionError, match="lr = 4635976.* 2781587089 letters, past int32"):
        lr.uniqueness_scan(s, rep, rep.factors)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "name, max_word_length",
    [(name, 240) for name in SHAPES]
    + [("minimal-nonprimitive", 600), ("stutter-separated", 600)],
)
def test_uniqueness_scan_matches_the_walk(shape_rules, name, max_word_length, monkeypatch):
    s, rep, rule = shape_rules[name]
    monkeypatch.setattr(rec, "SCAN_WORD_LENGTH", max_word_length)
    scan = lr.uniqueness_scan(s, rep, rep.factors)
    a, b = rec.shape_letters(s)
    L = 2 * rule.half_width + len(s.rules[a])  # the strip the rule implies
    sample = lr.iterate_prefix(s, a, int(rep.lr.value * max_word_length) + 2 * max_word_length)
    violations = uniqueness_walk(s.rules[a], b, L, sample)
    assert scan.ok
    assert scan == rec.UniquenessScan(
        ok=not violations,
        half_width=L,
        positions_checked=len(sample) - (4 * L + 2) + 1,
        sample_length=len(sample),
        max_word_length=max_word_length,
        violations=violations,
    )


def test_uniqueness_walk_fails_at_the_rule_half_width(shape_rules):
    # the scan's chains include block runs that die later, so they are not
    # 1-partitions: at the rule's own L = 3 the walk reports violations on
    # minimal-nonprimitive, and only the strip 2L + |S(a)| = 10 is implied
    s, rep, rule = shape_rules["minimal-nonprimitive"]
    sample = lr.iterate_prefix(s, "a", int(rep.lr.value * 240) + 480)
    assert len(uniqueness_walk(s.rules["a"], "b", rule.half_width, sample)) == 17
    assert uniqueness_walk(s.rules["a"], "b", 2 * rule.half_width + 4, sample) == ()


def test_half_width_floor_is_needed_for_soundness():
    # {a -> aabaaaba, b -> b} has the floor 8 // 2 = 4.  Below it the check
    # passes at 3, but a 6-letter window can lie strictly inside one S(a)
    # block: aabaaab has the parses (0,) and (4,), which disagree at
    # 4 = |f| - 3.  From the floor the check fails up to 12 and passes at 13.
    s = Substitution.from_rules({"a": "aabaaaba", "b": "b"})
    rep = lr.classify(s)
    alpha = s.rules["a"]
    fs = wd.factor_language(s, 26)
    assert center_disagreement(alpha, "b", 3, fs.words_of_length(6)) is None
    assert "aabaaab" in fs
    parses = rec.front_parses(alpha, "b", "aabaaab")
    assert parses == naive_partitions(alpha, "b", "aabaaab") == [(0,), (4,)]
    for L in range(4, 13):
        assert center_disagreement(alpha, "b", L, fs.words_of_length(2 * L)) is not None, L
    assert center_disagreement(alpha, "b", 13, fs.words_of_length(26)) is None
    assert rec.recognition_rule(s, rep.factors, rep).half_width == 13


def _premise_systems(count, seed):
    """`count` distinct systems a -> a w a, b -> b with |w| <= 10, drawn from a
    seeded generator, that pass `require_premises`, with their reports."""
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 10)))
        if "b" not in w or w in seen:
            continue
        seen.add(w)
        s = Substitution.from_rules({"a": "a" + w + "a", "b": "b"})
        rep = lr.classify(s)
        try:
            rec.require_premises(s, rep)
        except SubstitutionError:
            continue
        out.append((s, rep))
    return out


def test_half_width_is_the_least_passing_on_random_systems():
    # on 300 premise-passing systems: the check passes at the rule's L and
    # fails at L - 1 above the floor; the paper's route bounds the ascent;
    # the exhaustive enumerator cuts where the rule does on L <= c <= |f| - L
    # for every factor of length 2L .. 2L + 6; the scan passes at 2L + |S(a)|
    above_floor = routes = 0
    for s, rep in _premise_systems(300, 19):
        alpha = s.rules["a"]
        rule = rec.recognition_rule(s, rep.factors, rep)
        L = rule.half_width
        fs = wd.factor_language(s, 2 * L + 6)
        assert center_disagreement(alpha, "b", L, fs.words_of_length(2 * L)) is None, alpha
        if L > len(alpha) // 2:
            words = fs.words_of_length(2 * L - 2)
            assert center_disagreement(alpha, "b", L - 1, words) is not None, alpha
            above_floor += 1
        try:
            _, route_L = window_half_width(s, rep.factors)
        except ShallowFactorSetError:
            pass
        else:
            assert route_L + 1 >= L, alpha
            routes += 1
        for n in range(2 * L, 2 * L + 7):
            for f in fs.words_of_length(n):
                cuts = rule_cuts(rule, f)
                for p in rec.enumerate_one_partitions(s, f):
                    assert list(interior_cuts(p, L)) == cuts, (alpha, f)
        sample = lr.iterate_prefix(s, "a", 3000)
        assert rec.uniqueness_violations(alpha, "b", 2 * L + len(alpha), sample) == (), alpha
    assert above_floor >= 100 and routes >= 250

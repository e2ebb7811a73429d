import random

import pytest

import linrep as lr
from linrep import recognizer as rec
from linrep import words as wd
from linrep.substitution import Substitution, SubstitutionError

from bruteforce import naive_partitions


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


@pytest.mark.parametrize(
    "name",
    ["minimal-nonprimitive", "minimal-nonprimitive-noaa", "stutter-doubled", "stutter-separated"],
)
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


def test_recognition_rule_requires_bordered_image(abaa_factors, abaa_report):
    s = Substitution.from_rules({"a": "baa", "b": "b"})
    with pytest.raises(SubstitutionError, match="start and end"):
        rec.recognition_rule(s, abaa_factors, abaa_report)


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
    assert rec.power_bound(abaa, abaa_factors) == 12  # (abaa)^3 occurs, 4th powers do not


def test_window_width_routes(abaa, abaa_factors):
    ww = rec.window_half_width(abaa, abaa_factors)
    assert ww.route == "doubled-letter"
    assert ww.half_width == 12 + 2 * 5

    noaa = lr.load("minimal-nonprimitive-noaa")
    fs = wd.factor_language(noaa, 64)
    ww2 = rec.window_half_width(noaa, fs)
    assert ww2.route == "no-doubled-letter"
    assert ww2.half_width == (ww2.max_exponent + 2) * 2 * len(noaa.rules["a"])


def test_propagation_below_threshold(abaa, abaa_factors):
    # once a word is long enough, a partition starting with a doubled image
    # block forces every partition to start that way
    alpha = abaa.rules["a"]
    L0 = rec.power_bound(abaa, abaa_factors)
    threshold = 2 * len(alpha) + L0
    for length in range(threshold + 1, min(2 * threshold, abaa_factors.max_length) + 1):
        for w in abaa_factors.words_of_length(length):
            parts = rec.enumerate_one_partitions(abaa, w)
            starts_double = [
                p.blocks[:2] == (alpha, alpha) and p.z0 == "" for p in parts
            ]
            if any(starts_double):
                assert all(starts_double)


def test_interior_agreement_on_samples(abaa, abaa_factors, abaa_report):
    sample = lr.iterate_prefix(abaa, "a", 3000)
    rng = random.Random(17)
    L = rec.window_half_width(abaa, abaa_factors).half_width
    for _ in range(25):
        i = rng.randrange(0, len(sample) - 3 * L - 2)
        w = sample[i : i + rng.randint(2 * L + 1, 3 * L)]
        res = rec.interior_agreement(abaa, w, abaa_factors, abaa_report)
        assert res.agree


def test_interior_agreement_refuses_periodic():
    s = lr.load("periodic-ab")
    rep = lr.classify(s)
    fs = wd.factor_language(s, 32)
    with pytest.raises(SubstitutionError):
        rec.interior_agreement(s, "ab" * 40, fs, rep)


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
    assert rule.validated_on > 0
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


def test_desubstitute_rejects_short_window(abaa, abaa_rule):
    with pytest.raises(ValueError):
        rec.desubstitute(abaa, "abaa", abaa_rule)


def test_recognition_no_doubled_letter_route():
    noaa = lr.load("minimal-nonprimitive-noaa")
    rep = lr.classify(noaa)
    fs = wd.factor_language(noaa, 64)
    rule = rec.recognition_rule(noaa, fs, rep)
    assert rule.route == "no-doubled-letter"
    assert rule.validated_on > 0
    L = rule.half_width
    sample = lr.iterate_prefix(noaa, "a", 6 * (4 * L + 80))
    rng = random.Random(41)
    for _ in range(10):
        i = rng.randrange(0, len(sample) - (4 * L + 80))
        window = sample[i : i + 4 * L + 3 + rng.randrange(60)]
        preimage, offset = rec.desubstitute(noaa, window, rule)
        image = noaa.apply(preimage)
        assert image == window[offset : offset + len(image)]
    scan = lr.uniqueness_scan(noaa, rep, fs, max_word_length=240)
    assert scan.ok


def test_uniqueness_scan_moderate(abaa, abaa_report, abaa_factors):
    scan = lr.uniqueness_scan(abaa, abaa_report, abaa_factors, max_word_length=240)
    assert scan.ok
    assert scan.positions_checked > 10000

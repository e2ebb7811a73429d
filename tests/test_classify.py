import importlib
import random

import numpy as np
import pytest

import linrep as lr
from linrep import words as wd
from linrep.classify import (
    CORE_MARGIN,
    NO,
    UNDECIDED,
    YES,
    _power_not_minimal,
    _two_sided_pump,
    _walk_core,
    analyze_bounded_blocks,
    bounded_gaps,
    classify,
    decide_minimality,
    derived_periodicity,
    is_periodic,
    return_word_chain,
    return_word_pairs,
)
from linrep.substitution import (
    Substitution,
    SubstitutionError,
    bounded_letters,
    is_primitive,
    prune_to_reachable,
    validate,
)

from bruteforce import (
    block_orbit_maximum,
    factor_set_return_pairs,
    mat_pow,
    own_set_compatibility,
    repetitivity_function,
    rescan_extendable_core,
    state_walk_pump,
    string_core_levels,
    word_image_lengths,
)
from conftest import CATALOG_NAMES, CLASSIFY_SLOW_RULES, sweep_rules


def _chain_kappa(s, e):
    # the gap bound of e: the length of its longest return word
    return max(map(len, return_word_chain(s, e)[0][0]))


def test_bounded_gaps_abaa_certificate(catalog_reports):
    s = lr.load("minimal-nonprimitive")
    d = bounded_gaps(s, "a")
    assert d.status == YES
    cert = d.certificate
    assert cert.bblock_bound == 1
    assert cert.reachability_witnesses["a"] == 0
    assert _chain_kappa(s, "a") == 2
    rep = catalog_reports["minimal-nonprimitive"]
    assert rep.certificate == cert and rep.kappa == 2
    assert rep.to_json_dict()["minimal"]["certificate"]["factor_depth"] == 3


def test_bounded_gaps_remarkc_counterexample():
    s = lr.load("remarkc")
    d = bounded_gaps(s, "0")
    assert d.status == NO
    assert d.counterexample.kind == "bounded-block-pump"
    word, (letter, depth) = d.counterexample.avoiding_factor(25)
    assert len(word) >= 25
    assert "0" not in word
    # provenance recheck: the block really occurs in the claimed iterate
    assert word in s.iterate(letter, depth)


def test_bounded_gaps_fibonacci_via_b(fib):
    d = bounded_gaps(fib, "b")
    assert d.status == YES
    assert _chain_kappa(fib, "b") == 3


def test_bounded_gaps_parity_avoider():
    # letters alternate between pure-e and pure-c images: every reachability
    # witness exists, yet c^(2^k) are e-free at every odd depth
    s = Substitution.from_rules({"e": "cc", "c": "ee"})
    d = bounded_gaps(s, "e")
    assert d.status == NO
    assert d.counterexample.kind == "growing-letter-avoids"
    word, origin = d.counterexample.avoiding_factor(16)
    assert "e" not in word and len(word) >= 16


def test_bounded_gaps_agree_across_candidates(catalog_reports, catalog_subs):
    # the decision is a property of the system, not of the candidate letter
    for name, rep in catalog_reports.items():
        s = catalog_subs[name]
        statuses = {bounded_gaps(s, e).status for e in s.split.candidates}
        assert len(statuses) == 1


def test_block_analysis_abaa_bounded():
    s = lr.load("minimal-nonprimitive")
    res = analyze_bounded_blocks(s)
    assert res.bounded is True
    assert res.max_block == 1


def test_block_bound_matches_orbit_oracle():
    # the bound read where each bounded orbit stops lengthening against
    # every orbit walked until a state repeats, on seeded systems over 2-8
    # letters with mostly one-letter images, so that bounded letters abound
    rng = random.Random(2525)
    bounded = 0
    for _ in range(10_000):
        letters = "abcdefgh"[: rng.randint(2, 8)]
        rules = {a: "".join(rng.choices(letters, k=rng.choice([1, 1, 1, 2, 3]))) for a in letters}
        s = Substitution.from_rules(rules)
        res = analyze_bounded_blocks(s)
        if res.bounded:
            bounded += 1
            assert res.max_block == block_orbit_maximum(rules, s.split.growing), rules
    assert bounded >= 5000


def test_block_analysis_remark1b_pumps():
    s = lr.load("remark1b")
    res = analyze_bounded_blocks(s)
    assert res.bounded is False
    assert res.pump.cycle_margin >= 1


@pytest.mark.parametrize(
    "name,minimal,primitive,periodic",
    [
        ("fibonacci", YES, True, "aperiodic-up-to-depth"),
        ("thue-morse", YES, True, "aperiodic-up-to-depth"),
        ("period-doubling", YES, True, "aperiodic-up-to-depth"),
        ("remark1b", NO, False, "periodic"),
        ("remarkc", NO, False, "aperiodic-up-to-depth"),
        ("minimal-nonprimitive", YES, False, "aperiodic-up-to-depth"),
        ("minimal-nonprimitive-noaa", YES, False, "aperiodic-up-to-depth"),
        ("stutter-separated", YES, False, "aperiodic-up-to-depth"),
        ("stutter-doubled", YES, False, "aperiodic-up-to-depth"),
        ("free", YES, True, "periodic"),
        ("periodic-ab", YES, False, "periodic"),
    ],
)
def test_classification_catalog(name, minimal, primitive, periodic, catalog_reports):
    rep = catalog_reports[name]
    assert rep.minimal == minimal
    assert rep.primitive.primitive == primitive
    assert rep.periodicity.status == periodic
    assert rep.linearly_repetitive == rep.minimal
    if minimal == YES:
        assert rep.uniquely_ergodic == YES
        assert rep.lr is not None and rep.lr.value > 0
    else:
        assert rep.uniquely_ergodic == UNDECIDED


def test_lr_bound_doubling_exact():
    # one-letter doubling system: return words {a}, pair set {aa}, G = 2,
    # theta = 2, lambda = rho = 1, so the bound is (3+2)*2 = 10 exactly
    rep = classify(Substitution.from_rules({"a": "aa"}))
    assert rep.lr.G == 2
    assert rep.lr.pair_set == ("aa",)
    assert rep.lr.value == pytest.approx(10.0, abs=1e-9)


def test_lr_bound_dominates_empirical_repetitivity(catalog_reports, catalog_subs):
    for name in ("fibonacci", "minimal-nonprimitive"):
        rep = catalog_reports[name]
        s = catalog_subs[name]
        fs = wd.factor_language(s, 8)
        for n in range(1, 9):
            assert repetitivity_function(fs, n) <= rep.lr.value * n


def test_g_kappa_block_chain(catalog_reports):
    for rep in catalog_reports.values():
        if rep.lr is not None and rep.certificate is not None:
            assert rep.lr.G >= rep.kappa >= rep.certificate.bblock_bound + 1


def test_witness_images_cover_long_factors(catalog_reports, catalog_subs):
    # with bounded gaps, deep images of the certified letter occur in every
    # long factor: the fold finds a finite gap bound for each
    for name in ("fibonacci", "minimal-nonprimitive"):
        rep = catalog_reports[name]
        s = catalog_subs[name]
        e = rep.certificate.letter
        for n in range(1, 5):
            block = s.iterate(e, n)
            assert wd.gap_bound(rep.factors, block) >= len(block), (name, n)


def test_letter_frequencies_cauchy(catalog_reports, catalog_subs):
    # empirical letter frequencies along deep images settle when minimal
    for name, rep in catalog_reports.items():
        if rep.minimal != YES:
            continue
        s = catalog_subs[name]
        e = rep.certificate.letter
        freqs = []
        for n in (15, 16):
            power = mat_pow(s.abelianization(), n)
            i = s.letters.index(e)
            total = sum(power[i])
            freqs.append([power[i][j] / total for j in range(len(s.letters))])
        assert all(abs(x - y) < 1e-3 for x, y in zip(*freqs))


def test_is_periodic_examples():
    periodic_ab = Substitution.from_rules({"a": "aba", "b": "b"})
    assert is_periodic(wd.factor_language(periodic_ab, 48)).period == "ab"
    assert is_periodic(wd.factor_language(Substitution.from_rules({"a": "aa"}), 48)).period == "a"


def test_is_periodic_names_a_finite_language():
    # {a->bb, b->b} and {a->b, b->a} have no factor longer than 2 and 1
    for rules in [{"a": "bb", "b": "b"}, {"a": "b", "b": "a"}]:
        for depth in (9, 19, 48):
            factors = wd.factor_language(Substitution.from_rules(rules), depth)
            assert factors.saturated
            with pytest.raises(SubstitutionError, match=f"finite: it has no factor of length {depth}"):
                is_periodic(factors)


def test_is_periodic_rejects_a_set_too_shallow_for_its_margin():
    # at depth CORE_MARGIN or less the walk would read no level at all
    periodic_ab = lr.load("periodic-ab")
    for depth in (4, CORE_MARGIN):
        with pytest.raises(ValueError, match=f"depth >= {CORE_MARGIN + 1}, got {depth}"):
            is_periodic(wd.factor_language(periodic_ab, depth))
    assert is_periodic(wd.factor_language(periodic_ab, CORE_MARGIN + 1)).depth == 1


def test_is_periodic_depth_is_the_factor_depth_less_the_margin():
    # classify walks remarkc (not minimal) on its depth-48 factor set
    assert is_periodic(wd.factor_language(lr.load("remarkc"), 48)).depth == 40


def test_is_periodic_fibonacci_complexity(fib):
    res = is_periodic(wd.factor_language(fib, 38))
    assert res.status == "aperiodic-up-to-depth"
    fs = wd.factor_language(fib, 31)
    for n in range(1, 31):
        assert len(fs.words_of_length(n)) == n + 1  # golden-rotation complexity


def _coded_core_levels(fs):
    # the levels of the integer-coded core walk, longest first, as
    # (length, words, size)
    longest = [w for w in fs.maximal if len(w) == fs.max_length]
    coded = wd.code_words(longest, fs.substitution.letters)
    return [
        (length, set(coded.prefixes(length, kept)), int(np.count_nonzero(kept)))
        for length, kept in _walk_core(coded, fs.max_length)
    ]


def test_core_walk_levels_match_the_string_walk(level_systems):
    # every level's words and size from the coded walk equal the string
    # walk's, at every depth 1-19 and at 48
    walked = 0
    for s in level_systems:
        for depth in [*range(1, 20), 48]:
            fs = wd.factor_language(s, depth)
            if not fs.saturated:
                continue
            want = [(len(min(level)), level, len(level)) for level in string_core_levels(fs)]
            assert _coded_core_levels(fs) == want, (s, depth)
            walked += 1
    assert walked >= 8000


def test_extendable_core_drops_one_sided_junk():
    s = lr.load("remark1b")
    fs = wd.factor_language(s, 20)
    core = frozenset().union(*(words for _, words, _ in _coded_core_levels(fs)))
    assert "0" not in core
    assert "1" * 10 in core


@pytest.mark.parametrize(
    "rules",
    [
        {"0": "01", "1": "0"},
        {"0": "01", "1": "11"},
        {"0": "0", "1": "10"},
        {"a": "abc", "b": "bc", "c": "c"},
        {"a": "a", "b": "abba"},
        {"a": "aab", "b": "b", "c": "ca"},
        {"a": "a", "b": "cb", "c": "ac"},
        {"a": "ca", "b": "bb", "c": "b"},
    ],
)
def test_extendable_core_matches_rescan_fixpoint(rules):
    s = Substitution.from_rules(rules)
    fs = wd.factor_language(s, 24)
    core = frozenset().union(*(words for _, words, _ in _coded_core_levels(fs)))
    assert core == rescan_extendable_core(set(fs.words), s.letters, 24)


def test_classify_rejects_unreachable_alphabet():
    s = Substitution.from_rules({"a": "ab", "b": "a", "c": "cc"})
    with pytest.raises(Exception):
        classify(s)


def test_counterexample_gap_violation_witness(catalog_reports, catalog_subs):
    # a factor of length 10 n with no occurrence of a length-n factor
    for name in ("remark1b", "remarkc"):
        rep = catalog_reports[name]
        v = rep.counterexample.letter
        word, _ = rep.counterexample.avoiding_factor(10 * len(v))
        assert v not in word and len(word) >= 10 * len(v)


def test_split_matches_length_behaviour_randomized():
    # bounded letters have eventually constant image lengths, growing ones
    # keep growing; cross-check the cycle analysis against raw lengths
    import random

    rng = random.Random(424242)
    for _ in range(120):
        letters = "abc"[: rng.randint(2, 3)]
        rules = {
            ch: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            for ch in letters
        }
        s = Substitution.from_rules(rules)
        split = bounded_letters(s)
        for a in letters:
            lengths = word_image_lengths(rules, a, 48)
            l24, l48 = lengths[24], lengths[48]
            if a in split.bounded:
                assert l24 == l48
            else:
                assert l48 > l24


def test_bounded_gaps_matches_naive_factor_scan():
    # arbitration by raw factor enumeration: a YES must show its gap bound
    # in the naive factor sets, a NO must keep producing avoiding factors at
    # every depth.  The gap bound is the coverage fold's; for a letter that
    # reaches the whole alphabet it is also the longest return word
    import random

    from bruteforce import naive_factors

    rng = random.Random(60606)
    yes_checked = no_checked = 0
    tried = 0
    while (yes_checked < 8 or no_checked < 8) and tried < 250:
        tried += 1
        letters = "abc"[: rng.randint(2, 3)]
        rules = {
            ch: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            for ch in letters
        }
        s = Substitution.from_rules(rules)
        split = bounded_letters(s)
        candidates = [e for e in letters if e in split.growing]
        if not candidates:
            continue
        e = candidates[0]
        d = bounded_gaps(s, e)
        if d.status == YES and yes_checked < 8:
            kappa = wd.coverage_exact(s, (e,))
            if s.split.reach[e] == set(letters):
                assert _chain_kappa(s, e) == kappa, rules
            if kappa > 10:
                continue
            oracle = naive_factors(rules, kappa + 4)
            assert all(e in w for w in oracle if len(w) == kappa), rules
            yes_checked += 1
        elif d.status == NO and no_checked < 8:
            depth = 14
            oracle = naive_factors(rules, depth)
            assert any(e not in w for w in oracle if len(w) == depth), rules
            no_checked += 1
    assert yes_checked >= 8 and no_checked >= 8


def test_random_two_letter_pipeline_consistency():
    # classify random small systems; every verdict must be backed by the
    # stated evidence (repetitivity bound or a genuine avoiding factor)
    import random

    rng = random.Random(31337)
    minimal_seen = nonminimal_seen = 0
    tried = 0
    while (minimal_seen < 6 or nonminimal_seen < 6) and tried < 200:
        tried += 1
        rules = {
            "a": "".join(rng.choice("ab") for _ in range(rng.randint(1, 4))),
            "b": "".join(rng.choice("ab") for _ in range(rng.randint(1, 4))),
        }
        s = Substitution.from_rules(rules)
        try:
            rep = classify(s)
        except SubstitutionError:
            continue  # invalid systems (empty subshift, unreachable letters)
        if rep.minimal == YES and rep.lr is not None and minimal_seen < 8:
            minimal_seen += 1
            fs = rep.factors
            for n in (1, 2):
                r = repetitivity_function(fs, n)
                assert r <= rep.lr.value * n, (rules, n, r, rep.lr.value)
        elif rep.minimal == NO and nonminimal_seen < 8:
            nonminimal_seen += 1
            v = rep.counterexample.letter
            word, (letter, depth) = rep.counterexample.avoiding_factor(12)
            assert v not in word
            if s.lengths(letter, depth)[-1] <= 10**5:
                assert word in s.iterate(letter, depth)
    assert minimal_seen >= 6 and nonminimal_seen >= 6


def test_decide_minimality_matches_classify(catalog_reports, catalog_subs):
    for name, rep in catalog_reports.items():
        decision = decide_minimality(catalog_subs[name])
        assert rep.substitution is catalog_subs[name], name
        assert decision.status == rep.minimal, name
        assert rep.certificate == decision.certificate, name
        if decision.certificate is None:
            assert rep.kappa is None, name
        else:
            # classify adds the gap bound, from step 1 of the chain
            assert rep.kappa == _chain_kappa(catalog_subs[name], decision.certificate.letter), name


@pytest.mark.parametrize(
    "rules,kappa,G,confirm",
    [
        # two random primitive systems whose G lies beyond the old scanned
        # depths (256), so they got no repetitivity constant before
        ({"a": "bbac", "b": "abcc", "c": "cbaa"}, 6, 263, True),
        ({"a": "bbcc", "b": "cbbcb", "c": "aa"}, 32, 26447, False),
    ],
)
def test_lr_bound_beyond_old_scan_depth(rules, kappa, G, confirm):
    s = Substitution.from_rules(rules)
    rep = classify(s)
    assert rep.minimal == YES and rep.kappa == kappa
    assert rep.lr is not None and rep.lr.G == G
    assert rep.factor_depth == 48 and "factors" not in vars(rep)  # the pairs read no factor set
    if confirm:
        # G by definition, on a saturated factor set one letter deeper: every
        # factor of length G holds every pair, and some of length G - 1 misses one
        fs = wd.factor_language(s, G + 1)
        assert fs.saturated
        pairs = rep.lr.pair_set
        assert all(p in w for w in fs.words_of_length(G) for p in pairs)
        assert any(p not in w for w in fs.words_of_length(G - 1) for p in pairs)


def test_classify_builds_one_factor_set(monkeypatch):
    # a certified system, whose return words and periodicity read no
    # factors, builds no set in classify, and neither does remarkc, which
    # is compatible and whose S^p is not minimal; any other builds one, at
    # the core walk's 40 + CORE_MARGIN = 48, after the depth-3 set from
    # which the compatibility check of remark1b, the one incompatible
    # system, names its blocked factor; report.factors is built once, on
    # first read, at depth 48
    calls = []
    build = wd.factor_language

    def counted(s, max_length, **kwargs):
        calls.append(max_length)
        return build(s, max_length, **kwargs)

    monkeypatch.setattr(wd, "factor_language", counted)
    systems = [lr.load(name) for name in CATALOG_NAMES]
    systems += [Substitution.from_rules(rules) for rules in sweep_rules()]
    certified = 0
    for s in systems:
        calls.clear()
        rep = classify(s)
        walks = rep.minimal != YES and s.name != "remarkc"
        refuted = [3] if s.name == "remark1b" else []
        assert calls == refuted + ([48] if walks else []), s
        certified += rep.minimal == YES
        assert rep.factor_depth == 48
        first = rep.factors
        assert rep.factors is first and first.max_length == 48, s
        assert calls == refuted + [48], s
    assert certified == 109


def _drawn_systems(seed, count, sizes, lengths):
    # seeded random systems, `count` of them: an alphabet size from `sizes`
    # and every image length from `lengths`
    rng = random.Random(seed)
    for _ in range(count):
        letters = [chr(ord("a") + i) for i in range(rng.choice(sizes))]
        rules = {a: "".join(rng.choices(letters, k=rng.randint(*lengths))) for a in letters}
        yield Substitution.from_rules(rules)


def _certificate(s):
    try:
        decision = decide_minimality(s)
    except SubstitutionError:
        return None  # empty subshift or unreachable letters
    return decision.certificate


def _chain_pairs(s, e):
    return return_word_pairs(return_word_chain(s, e)[0])


def test_return_word_pairs_match_factor_set_oracle():
    # the conjugated return-word step against the return words and pairs
    # read off a saturated factor set of depth 2 * kappa
    systems = [lr.load(name) for name in CATALOG_NAMES]
    systems += [Substitution.from_rules(rules) for rules in sweep_rules()]
    for s in systems:
        rep = classify(s)
        if rep.minimal == YES:
            fs = wd.factor_language(s, 2 * rep.kappa)
            rw, pairs = factor_set_return_pairs(rep.certificate.letter, fs)
            assert (rep.lr.return_words, rep.lr.pair_set) == (rw, tuple(pairs)), s
    certified = 0
    for s in _drawn_systems(19, 600, [2, 3, 4], (1, 6)):
        cert = _certificate(s)
        if cert is not None:
            fs = wd.factor_language(s, 2 * _chain_kappa(s, cert.letter))
            assert _chain_pairs(s, cert.letter) == factor_set_return_pairs(cert.letter, fs), s
            certified += 1
    assert certified >= 400
    # 8-16 letters, where the pair test on a deep factor set is slow; kappa
    # <= 32 keeps the oracle's set cheap
    wide = 0
    for s in _drawn_systems(8, 240, range(8, 17), (2, 4)):
        cert = _certificate(s)
        if cert is None:
            continue
        kappa = _chain_kappa(s, cert.letter)
        if kappa <= 32:
            fs = wd.factor_language(s, 2 * kappa)
            assert _chain_pairs(s, cert.letter) == factor_set_return_pairs(cert.letter, fs), s
            wide += 1
    assert wide >= 20


def test_return_word_pairs_work_cap_is_a_caveat(monkeypatch):
    # thue-morse's S images hold 4 letters, and its iterates ab, abba of a
    # write 6 more before a second a shows up: 10 letters in all, past 8
    module = importlib.import_module("linrep.classify")
    monkeypatch.setattr(module, "DERIVATION_WORK", 8)
    rep = classify(lr.load("thue-morse"))
    assert rep.minimal == YES and rep.lr is None
    assert "repetitivity constant undecided: return-word derivation wrote more than 8 letters" in rep.depth_caveats


@pytest.mark.parametrize(
    "read",
    [
        lambda rep: rep.lr,
        lambda rep: rep.growth,
        lambda rep: rep.depth_caveats,
        lambda rep: rep.to_json_dict(),
    ],
    ids=["lr", "growth", "depth_caveats", "to_json_dict"],
)
def test_repetitivity_constant_is_built_on_first_read(monkeypatch, read):
    module = importlib.import_module("linrep.classify")
    calls = []
    bound = module.lr_constant_bound
    monkeypatch.setattr(module, "lr_constant_bound", lambda *a: calls.append(a) or bound(*a))
    rep = classify(lr.load("fibonacci"))
    assert rep.minimal == YES and calls == []
    first = read(rep)
    assert len(calls) == 1
    assert read(rep) == first
    rep.lr, rep.growth, rep.depth_caveats, rep.to_json_dict()
    assert len(calls) == 1
    assert rep.depth_caveats[0] == "growth constants checked for n <= 30"
    assert rep.growth is rep.lr.growth and rep.lr == bound(*calls[0])
    # a system that is not certified has no constant to build
    rep = classify(lr.load("remarkc"))
    assert rep.lr is None and rep.growth is None and len(calls) == 1


def test_undecided_constant_caveat_stays_first():
    # --nmax 2000 takes theta^n past the float range
    rep = classify(lr.load("fibonacci"), growth_nmax=2000)
    assert rep.lr is None and rep.growth is None
    assert rep.depth_caveats[0].startswith("repetitivity constant undecided: |S^n(v)| / theta^n")


@pytest.mark.parametrize("name", ["fibonacci", "remarkc"])
def test_growth_nmax_is_checked_by_classify(name):
    # the argument error comes from the call, not from the first read of lr
    with pytest.raises(ValueError, match="n_max >= 1, got 0"):
        classify(lr.load(name), growth_nmax=0)


def test_compatibility_on_classify_set_matches_own_set():
    import random

    systems = [lr.load(name) for name in CATALOG_NAMES]
    systems += [Substitution.from_rules(rules) for rules in CLASSIFY_SLOW_RULES]
    rng = random.Random(7)
    while len(systems) < len(CATALOG_NAMES) + len(CLASSIFY_SLOW_RULES) + 40:
        letters = "abc"[: rng.choice([2, 3])]
        rules = {
            a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4))) for a in letters
        }
        systems.append(Substitution.from_rules(rules))
    checked = 0
    for s in systems:
        try:
            rep = classify(s)
        except SubstitutionError:
            continue  # empty subshift or unreachable letters
        assert rep.compatibility == own_set_compatibility(s, 16), s
        checked += 1
    assert checked >= 40


def _count_walks(monkeypatch):
    # the package attribute linrep.classify is the function, not the module
    module = importlib.import_module("linrep.classify")
    calls = []
    walk = module.is_periodic

    def counted(*args, **kwargs):
        calls.append(args[0].substitution.name)
        return walk(*args, **kwargs)

    monkeypatch.setattr(module, "is_periodic", counted)
    return calls


def _walk_verdict(s):
    res = is_periodic(wd.factor_language(s, 48))
    return res.status, res.period, res.depth


def test_derived_periodicity_equals_walk(monkeypatch):
    calls = _count_walks(monkeypatch)
    # through classify: the catalog and the classify-sweep rules
    systems = [lr.load(name) for name in CATALOG_NAMES]
    systems += [Substitution.from_rules(rules) for rules in sweep_rules()]
    certified = 0
    for s in systems:
        calls.clear()
        rep = classify(s)
        if rep.minimal != YES and s.name != "remarkc":
            assert calls == [s.name], s
            continue
        assert calls == [] and rep.factors.saturated, s
        got = rep.periodicity
        assert (got.status, got.period, got.depth) == _walk_verdict(s), s
        certified += rep.minimal == YES
    assert certified == 109
    # directly: seeded random certified systems, 2-4 letters, rules 1-8 long,
    # then periodic ones: images u^k (primitive), or a -> (aw)^k a with w
    # over fixed letters (nonprimitive)
    rng = random.Random(1998)
    counts = {"periodic": 0, "aperiodic-up-to-depth": 0, "nonprimitive": 0}
    while counts["aperiodic-up-to-depth"] + counts["periodic"] < 700:
        letters = "abcd"[: rng.choice([2, 3, 4])]
        if counts["aperiodic-up-to-depth"] + counts["periodic"] < 600:
            rules = {a: "".join(rng.choices(letters, k=rng.randint(1, 8))) for a in letters}
        elif rng.random() < 0.5:
            u = "".join(rng.choices(letters, k=rng.randint(2, 9)))
            rules = {a: u * rng.randint(1, 3) for a in letters}
        else:
            w = "".join(rng.choices(letters[1:], k=rng.randint(1, 4)))
            rules = {a: a for a in letters} | {"a": ("a" + w) * rng.randint(1, 3) + "a"}
        s = Substitution.from_rules(rules)
        try:
            decision = decide_minimality(s)
        except SubstitutionError:
            continue  # empty subshift or unreachable letters
        if decision.status != YES:
            continue
        got = derived_periodicity(return_word_chain(s, decision.certificate.letter), 40)
        assert (got.status, got.period, got.depth) == _walk_verdict(s), s
        counts[got.status] += 1
        counts["nonprimitive"] += not is_primitive(s).primitive
    assert counts["periodic"] >= 90 and counts["nonprimitive"] >= 50
    # 4-6 letters, images 1-7 long, where first steps with a nonempty beta
    # and chains past the work cap are common: wherever the chain decides,
    # it agrees with the walk
    decided = capped = 0
    for s in _drawn_systems(31, 480, [4, 5, 6], (1, 7)):
        cert = _certificate(s)
        if cert is None:
            continue
        got = derived_periodicity(return_word_chain(s, cert.letter), 40)
        if got.status == UNDECIDED:
            capped += 1
            continue
        assert (got.status, got.period, got.depth) == _walk_verdict(s), s
        decided += 1
    assert decided >= 300 and capped <= decided // 100


def test_derived_periodicity_periods():
    for rules, period, depth in [
        ({"a": "aa"}, "a", 1),  # free
        ({"a": "aba", "b": "b"}, "ab", 2),  # periodic-ab
        # the return word abbab has the border period 3, but x = (abbab)^infinity
        ({"a": "abbab", "b": "abbab"}, "ababb", 5),
    ]:
        rep = classify(Substitution.from_rules(rules))
        assert rep.minimal == YES
        got = rep.periodicity
        assert (got.status, got.period, got.depth) == ("periodic", period, depth), rules


def test_derived_periodicity_beyond_the_walk_depth():
    # x = w^infinity for a Christoffel word w of length 50: p(n) = n + 1 for
    # n < 50, so the core walk to depth 40 cannot see the period
    w = "".join("b" if ((i + 1) * 21) // 50 > (i * 21) // 50 else "a" for i in range(50))
    s = Substitution.from_rules({"a": w, "b": w})
    rep = classify(s)
    assert rep.minimal == YES
    got = rep.periodicity
    canonical = min(w[i:] + w[:i] for i in range(50))
    assert (got.status, got.period, got.depth) == ("periodic", canonical, 50)
    assert _walk_verdict(s) == ("aperiodic-up-to-depth", None, 40)


def test_classify_walks_the_core_only_when_not_certified(monkeypatch):
    calls = _count_walks(monkeypatch)
    for name in ["fibonacci", "thue-morse", "period-doubling", "stutter-doubled"]:
        got = classify(lr.load(name)).periodicity
        assert (got.status, got.period, got.depth) == ("aperiodic-up-to-depth", None, 40), name
        assert got.note.startswith("return-word derivation repeats after"), name
    assert calls == []
    for name in ["remark1b", "remarkc"]:
        rep = classify(lr.load(name))
        assert rep.minimal == NO and rep.periodicity.note is None
        got = rep.periodicity
        assert (got.status, got.period, got.depth) == _walk_verdict(lr.load(name)), name
    # remarkc is compatible and its S^p is not minimal: no walk
    assert calls == ["remark1b"]


def test_power_not_minimal_equals_walk(monkeypatch):
    # seeded compatible systems that are not minimal, 3-6 letters, images
    # 1-5 long, a third of them single letters: wherever S^p on the letters
    # e reaches is not minimal, classify builds no factor set and gives the
    # walk's verdict
    built = []
    build = wd.factor_language
    monkeypatch.setattr(wd, "factor_language", lambda s, n: built.append(n) or build(s, n))
    rng = random.Random(1938)
    answered = {1: 0, "p > 1": 0}
    while sum(answered.values()) < 600:
        letters = "abcdef"[: rng.randint(3, 6)]
        lengths = [1 if rng.random() < 1 / 3 else rng.randint(2, 5) for _ in letters]
        rules = {a: "".join(rng.choices(letters, k=k)) for a, k in zip(letters, lengths)}
        s = Substitution.from_rules(rules)
        try:
            decision = decide_minimality(s)
        except SubstitutionError:
            continue  # empty subshift or unreachable letters
        compatibility = lr.check_compatibility(s)
        if decision.status == YES or compatibility.status != "holds-certified":
            continue
        built.clear()
        got = classify(s).periodicity
        if built:
            continue  # T is minimal: the walk decides
        want = is_periodic(build(s, 48))
        assert (got.status, got.period, got.depth) == (want.status, want.period, want.depth), s
        answered[1 if compatibility.detail["power"] == 1 else "p > 1"] += 1
    assert answered["p > 1"] >= 150


def test_minimal_power_and_work_cap_still_walk(monkeypatch):
    # {a -> bb, b -> aa} has S^2 = {a -> aaaa} on the letters a reaches
    # under it, which is minimal; {a -> aa, b -> bab} (b recurs inside S^2(b),
    # whose T is not minimal) walks once S^2's images pass a tiny
    # DERIVATION_WORK: every image holds several growing letters, so no
    # state of the two-sided pump steps, and no growing letter lies strictly
    # inside its own image
    calls = _count_walks(monkeypatch)
    s = Substitution.from_rules({"a": "bb", "b": "aa"}, name="two-orbits")
    assert classify(s).compatibility.detail["power"] == 2
    assert calls == ["two-orbits"]
    s = Substitution.from_rules({"a": "aa", "b": "bab"}, name="capped")
    rep = classify(s)
    assert rep.compatibility.detail == {"kind": "interior-recurrence", "letter": "b", "power": 2}
    assert calls == ["two-orbits"] and not _two_sided_pump(s)
    module = importlib.import_module("linrep.classify")
    monkeypatch.setattr(module, "DERIVATION_WORK", 2)
    got = classify(s).periodicity
    assert calls == ["two-orbits", "capped"]
    assert (got.status, got.period, got.depth) == _walk_verdict(s) == (rep.periodicity.status, None, 40)


def _analyzed_draws():
    # seeded systems, loaded as `linrep analyze` loads them (validated and
    # pruned to the letters the witness reaches): 3,000 draws of 2-5 letters
    # from random.Random(5), 2,000 of 3-8 from Random(11) and 2,000 of 3-6
    # from Random(1938); an image is one letter with probability 1/3, else
    # 2-5 letters
    for seed, count, lo, hi in [(5, 3000, 2, 5), (11, 2000, 3, 8), (1938, 2000, 3, 6)]:
        rng = random.Random(seed)
        for _ in range(count):
            letters = "abcdefgh"[: rng.randint(lo, hi)]
            lengths = [1 if rng.random() < 1 / 3 else rng.randint(2, 5) for _ in letters]
            rules = {a: "".join(rng.choices(letters, k=k)) for a, k in zip(letters, lengths)}
            try:
                report = validate({"rules": rules})
            except SubstitutionError:
                continue  # empty subshift
            s = report.substitution
            yield s if s.split.candidates else prune_to_reachable(s, report.witness)


def test_letter_rules_equal_walk(monkeypatch):
    # wherever a two-sided pump or a growing letter strictly inside its own
    # image shows the subshift of a system that is not certified minimal
    # infinite, classify builds no factor set for the walk and gives its
    # verdict, and only the depth-3 set that refutes compatibility; the
    # compatible draws are left to the S^p check, which classify asks first
    built = []
    build = wd.factor_language
    monkeypatch.setattr(wd, "factor_language", lambda s, n: built.append(n) or build(s, n))
    uncertified = 0
    fired = {"pump": 0, "inside": 0}
    for s in _analyzed_draws():
        if decide_minimality(s).status == YES:
            continue
        uncertified += 1
        if lr.check_compatibility(s).status == "holds-certified":
            continue
        inside = [c for c in s.letters if c in s.split.growing and c in s.rules[c][1:-1]]
        if _two_sided_pump(s):
            fired["pump"] += 1
        elif any(_power_not_minimal(s, c, 1) for c in inside):
            fired["inside"] += 1
        else:
            continue
        built.clear()
        got = classify(s).periodicity
        assert built == [3], s
        want = is_periodic(build(s, 48))
        assert (got.status, got.period, got.depth) == (want.status, want.period, want.depth), s
    assert uncertified == 3461 and fired == {"pump": 97, "inside": 192}


def test_two_sided_pump_equals_state_walk():
    # the pump reads the cycle margins of two context pairs per seed; the
    # oracle walks the triples (l, g, r) themselves: they agree on the
    # analyzed draws and on 4,000 draws of 3-7 letters from
    # random.Random(34), an image one letter with probability 1/2, else 2-4
    def single_heavy_draws():
        rng = random.Random(34)
        for _ in range(4000):
            letters = "abcdefg"[: rng.randint(3, 7)]
            lengths = [1 if rng.random() < 1 / 2 else rng.randint(2, 4) for _ in letters]
            s = Substitution.from_rules(
                {a: "".join(rng.choices(letters, k=k)) for a, k in zip(letters, lengths)}
            )
            if s.split.growing:
                yield s

    fired = []
    for draws in [_analyzed_draws(), single_heavy_draws()]:
        fired.append(0)
        for s in draws:
            got = _two_sided_pump(s)
            assert got == state_walk_pump(s.rules, s.split.growing), s
            fired[-1] += got
    assert fired == [256, 244]


def test_power_one_on_a_candidate_builds_nothing(monkeypatch):
    # the five compatible classify-slow systems recur inside S(e) for their
    # compatibility letter e, a candidate: T is S itself, so the S^p check
    # builds no Substitution and asks decide_minimality of nothing but S, in
    # classify's own call
    systems = [Substitution.from_rules(rules) for rules in CLASSIFY_SLOW_RULES]
    module = importlib.import_module("linrep.classify")
    asked, built = [], []
    decide, init = module.decide_minimality, Substitution.__init__
    monkeypatch.setattr(module, "decide_minimality", lambda t: asked.append(t) or decide(t))
    monkeypatch.setattr(
        Substitution, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    compatible = 0
    for s in systems:
        asked.clear()
        rep = classify(s)
        if rep.compatibility.status != "holds-certified":
            continue
        compatible += 1
        assert rep.minimal == NO and rep.compatibility.detail["power"] == 1
        assert asked == [s] and built == [], s
        got = rep.periodicity
        assert (got.status, got.period, got.depth) == ("aperiodic-up-to-depth", None, 40)
    assert compatible == 5


@pytest.mark.parametrize(
    "rules,fires",
    [
        # slow-3: (a, b, None) steps into the cycle (b, b, None), which gains
        # one letter c on each side of b
        ({"a": "abc", "b": "bc", "c": "c"}, True),
        # (None, a, None) gains one b right of a and none left of it: the
        # subshift is the orbit of b^infinity, periodic
        ({"a": "ab", "b": "b"}, False),
        # (b, a, None) has no step, since S(a) = ba holds two growing letters;
        # (None, b, b) gains a letter c right of b only
        ({"a": "ba", "b": "bc", "c": "c"}, False),
    ],
)
def test_two_sided_pump_cases(rules, fires, monkeypatch):
    calls = _count_walks(monkeypatch)
    s = Substitution.from_rules(rules, name="case")
    assert _two_sided_pump(s) == fires
    got = classify(s).periodicity
    assert calls == ([] if fires else ["case"])
    assert (got.status, got.period, got.depth) == _walk_verdict(s)


def test_derived_periodicity_work_cap_is_undecided(monkeypatch):
    module = importlib.import_module("linrep.classify")
    monkeypatch.setattr(module, "DERIVATION_WORK", 20)
    assert return_word_chain(lr.load("thue-morse"), "a") == []
    got = derived_periodicity([], 40)
    assert (got.status, got.period, got.depth) == (UNDECIDED, None, 0)
    assert "more than 20 letters" in got.note
    # 40 letters pay for step 1 only: the chain ends on a tau that is
    # neither one letter nor a repeat
    monkeypatch.setattr(module, "DERIVATION_WORK", 40)
    steps = return_word_chain(lr.load("thue-morse"), "a")
    assert [words for words, _ in steps] == [["abb", "ab", "a"]]
    got = derived_periodicity(steps, 40)
    assert (got.status, got.period, got.depth) == (UNDECIDED, None, 0)
    assert "more than 40 letters" in got.note


def test_capped_derivation_falls_back_to_the_walk(monkeypatch):
    # past the cap, classify walks the core on a depth-48 set, which becomes
    # report.factors, and names the cap in one caveat
    module = importlib.import_module("linrep.classify")
    uncapped = classify(lr.load("thue-morse")).lr
    monkeypatch.setattr(module, "DERIVATION_WORK", 2)
    calls = []
    monkeypatch.setattr(module, "is_periodic", lambda fs: calls.append(fs) or is_periodic(fs))
    for name, period in [("thue-morse", None), ("periodic-ab", "ab")]:
        rep = classify(lr.load(name))
        assert rep.minimal == YES and rep.factors is calls[-1]  # the walk's set
        want = is_periodic(wd.factor_language(lr.load(name), 48))
        assert rep.periodicity == want and want.period == period
        cap = "periodicity from the core walk to depth 40: return-word derivation wrote more than 2 letters"
        assert [c for c in rep.depth_caveats if "periodicity" in c] == [cap]
    assert [fs.max_length for fs in calls] == [48, 48]
    # a cap that step 1 fits under keeps the repetitivity constant: only
    # the later steps fall back to the walk
    monkeypatch.setattr(module, "DERIVATION_WORK", 40)
    rep = classify(lr.load("thue-morse"))
    assert rep.lr == uncapped and rep.lr.return_words == {"abb", "ab", "a"}
    assert rep.periodicity == is_periodic(wd.factor_language(lr.load("thue-morse"), 48))
    cap = "periodicity from the core walk to depth 40: return-word derivation wrote more than 40 letters"
    assert rep.depth_caveats == ("growth constants checked for n <= 30", cap)
    assert [fs.max_length for fs in calls] == [48, 48, 48]


def test_classify_runs_each_derivation_step_once(monkeypatch):
    # thue-morse derives three steps, the third repeating the second's
    # tau; the repetitivity constant reads step 1 and does not run it again
    module = importlib.import_module("linrep.classify")
    calls = []
    derive = module.derive_return_words
    monkeypatch.setattr(module, "derive_return_words", lambda *a: calls.append(a[1]) or derive(*a))
    rep = classify(lr.load("thue-morse"))
    assert rep.lr is not None and rep.periodicity.note.startswith("return-word derivation repeats after 3 steps")
    assert calls == ["a", "\x00", "\x00"]


def _iterate(table, w, n):
    for _ in range(n):
        w = w.translate(table)
    return w


def _long_iterate(table, c, words):
    # an iterate of c under `table`, long enough that w + c occurs in it for
    # every return word w
    prefix = c
    while not all(w + c in prefix for w in words):
        assert len(prefix) < 10**6, words
        prefix = prefix.translate(table)
    return prefix


def test_derived_return_words_occur():
    # every step of the return-word chain against the iterates of its letter
    # c under table^k, k >= 1 least with c in table^k(c) = beta c ...: the
    # return words to c read off a long iterate are exactly the step's
    # words, each holds c only in front, and tau(i) codes beta^-1 table^k(r)
    # beta for return word r = i.  Thue-Morse and most random systems have
    # some tau(i) that does not begin with 0, so the next step must cut tau
    # of whole return words, and many first steps have a nonempty beta
    rng = random.Random(1998)
    systems = [(lr.load("thue-morse"), "a")]
    while len(systems) < 200:
        letters = "abcd"[: rng.choice([2, 3, 4])]
        rules = {a: "".join(rng.choices(letters, k=rng.randint(1, 8))) for a in letters}
        s = Substitution.from_rules(rules)
        try:
            decision = decide_minimality(s)
        except SubstitutionError:
            continue  # empty subshift or unreachable letters
        if decision.status == YES:
            systems.append((s, decision.certificate.letter))
    late_images = conjugated = 0
    for s, e in systems:
        table, c = {ord(a): s.rules[a] for a in s.letters}, e
        steps = return_word_chain(s, e)
        taus = [tau for _, tau in steps]
        assert len(taus[-1]) == 1 or taus[-1] in taus[:-1], s
        for words, tau in steps:
            k = next(k for k in range(1, len(table) + 1) if c in _iterate(table, c, k))
            power = {a: _iterate(table, chr(a), k) for a in table}
            beta = power[ord(c)].split(c, 1)[0]
            prefix = _long_iterate(power, c, words)
            assert {c + piece for piece in prefix.split(c)[1:-1]} == set(words), s
            assert all(w.find(c, 1) < 0 for w in words), s
            for i, image in enumerate(tau):
                full = words[i].translate(power)
                assert "".join(words[ord(x)] for x in image) == full[len(beta) :] + beta, s
            late_images += any(not image.startswith(chr(0)) for image in tau)
            conjugated += beta != ""
            table, c = dict(enumerate(tau)), chr(0)
    assert late_images >= 40 and conjugated >= 100

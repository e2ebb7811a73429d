import math
import random

import numpy as np
import pytest

import linrep as lr
from linrep import spectral
from bruteforce import (
    apply_rules,
    cube_positions_by_runs,
    finite_section_eigenvalues,
    floquet_bands,
    transfer_matrix,
    word_image_lengths,
)
from linrep.spectral import (
    CLOSED_GAP_TOL,
    GordonHypothesisMissing,
    band_spectrum,
    cube_positions,
    gordon_check,
    letter_planes,
    popcount,
)
from linrep.words import letter_codes
from linrep.substitution import Substitution, SubstitutionError


def test_transfer_single_letter():
    m = transfer_matrix("a", 0.0, {"a": 0.0})
    assert np.allclose(m, [[0.0, -1.0], [1.0, 0.0]])


def test_transfer_pinned_square():
    m = transfer_matrix("aa", 2.0, {"a": 0.0})
    assert np.allclose(m, [[3.0, -2.0], [2.0, -1.0]])
    assert m[0, 0] + m[1, 1] == pytest.approx(2.0)


def test_transfer_determinant_random():
    # entries grow exponentially off the spectrum; extended precision and
    # moderate lengths keep the exact det = 1 visible at 1e-10 absolute
    rng = random.Random(7)
    values = {"a": 1.0, "b": -1.0, "c": 0.25}
    for _ in range(300):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        e = rng.uniform(-3.5, 3.5)
        m = transfer_matrix(w, e, values, dtype=np.longdouble)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1.0) < 1e-10


def test_transfer_concatenation_order():
    values = {"a": 1.0, "b": -1.0}
    rng = random.Random(11)
    for _ in range(50):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        e = rng.uniform(-3, 3)
        lhs = transfer_matrix(u + v, e, values)
        rhs = transfer_matrix(v, e, values) @ transfer_matrix(u, e, values)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_free_laplacian_band():
    spec = band_spectrum(lr.load("free"), "a", 3)
    assert spec.band_count == 1
    (lo, hi), = spec.bands
    assert abs(lo + 2.0) < 1e-8 and abs(hi - 2.0) < 1e-8
    assert spec.total_measure == pytest.approx(4.0, abs=1e-7)


def test_two_letter_band_edges_closed_form():
    # period word ab with values (2, 0): trace is E^2 - 2E - 2, so the edges
    # solve E^2 - 2E - 2 = +-2, giving 1 - sqrt5, 0, 2, 1 + sqrt5
    s = Substitution.from_rules({"a": "ab", "b": "ab"}, values={"a": 2.0, "b": 0.0})
    spec = band_spectrum(s, "a", 1)
    expected = [(1 - math.sqrt(5), 0.0), (2.0, 1 + math.sqrt(5))]
    assert spec.band_count == 2
    for (lo, hi), (elo, ehi) in zip(spec.bands, expected):
        assert abs(lo - elo) < 1e-8
        assert abs(hi - ehi) < 1e-8


def test_fibonacci_measures_decrease(fib):
    measures = [band_spectrum(fib, "a", k).total_measure for k in range(4, 9)]
    for a, b in zip(measures, measures[1:]):
        assert b < a - 1e-6


def test_band_invariants(fib):
    spec = band_spectrum(fib, "a", 7)
    assert spec.band_count <= len(spec.period_word)
    for (lo, hi) in spec.bands:
        assert hi > lo
    for (_, hi), (lo2, _) in zip(spec.bands, spec.bands[1:]):
        assert lo2 > hi


# (system, letter of the period word) for the Floquet edge checks
FLOQUET_SYSTEMS = [
    ("fibonacci", "a"),
    ("thue-morse", "a"),
    ("period-doubling", "a"),
    ("minimal-nonprimitive", "a"),
    ("stutter-separated", "0"),
]


def _period_words(s, letter, max_length):
    """(level, S^level(letter)) by plain string rewriting, while |word| <= max_length."""
    level, word = 1, apply_rules(s.rules, letter)
    while len(word) <= max_length:
        yield level, word
        level, word = level + 1, apply_rules(s.rules, word)


def test_fibonacci_exactly_q_bands(fib):
    # Fibonacci approximants have all gaps open, so every level shows q bands
    for k in range(4, 21):
        spec = band_spectrum(fib, "a", k)
        assert spec.band_count == len(spec.period_word)
        assert spec.closed_gaps == 0


@pytest.mark.parametrize("name,letter", FLOQUET_SYSTEMS)
def test_band_edges_match_dense_floquet(catalog_subs, name, letter):
    s = catalog_subs[name]
    for k, word in _period_words(s, letter, 1000):
        spec = band_spectrum(s, letter, k)
        assert spec.period_word == word
        ref, merged = floquet_bands(word, s.alphabet.values, CLOSED_GAP_TOL)
        assert spec.band_count == len(ref), (name, k)
        assert spec.closed_gaps == merged, (name, k)
        worst = max(max(abs(a - c), abs(b - d)) for (a, b), (c, d) in zip(spec.bands, ref))
        assert worst < 1e-10, (name, k, worst)


@pytest.mark.parametrize("name,letter", FLOQUET_SYSTEMS)
def test_band_edges_are_trace_roots(catalog_subs, name, letter):
    # independent of the eigensolver: every reported edge solves |tr T| = 2
    s = catalog_subs[name]
    values = s.alphabet.values
    for k, word in _period_words(s, letter, 34):
        for edge in (e for band in band_spectrum(s, letter, k).bands for e in band):
            m = transfer_matrix(word, edge, values, dtype=np.longdouble)
            assert abs(abs(m[0, 0] + m[1, 1]) - 2.0) < 1e-8, (name, k, edge)


def test_one_letter_period_word(fib):
    # q = 1: the constant potential v gives the single band [v - 2, v + 2]
    for letter, v in (("a", 1.0), ("b", -1.0)):
        spec = band_spectrum(fib, letter, 0)
        assert spec.period_word == letter
        assert spec.bands == ((v - 2.0, v + 2.0),)
        assert spec.total_measure == 4.0


def test_window_clips_bands():
    free = lr.load("free")
    spec = band_spectrum(free, "a", 3, window=(-1.0, 1.0))
    assert spec.bands == ((-1.0, 1.0),)
    assert spec.total_measure == 2.0
    empty = band_spectrum(free, "a", 3, window=(2.5, 3.0))
    assert empty.band_count == 0
    assert empty.total_measure == 0.0


def test_finite_section_small():
    assert finite_section_eigenvalues("a", {"a": 0.0}).tolist() == [0.0]
    ev = finite_section_eigenvalues("aa", {"a": 0.0})
    assert np.allclose(ev, [-1.0, 1.0])


def test_finite_section_free_formula():
    n = 64
    ev = finite_section_eigenvalues("a" * n, {"a": 0.0})
    expected = np.sort([2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)])
    assert np.max(np.abs(np.sort(ev) - expected)) < 1e-8


def test_finite_section_cap():
    with pytest.raises(ValueError):
        finite_section_eigenvalues("a" * 5000, {"a": 0.0})


def test_finite_section_bulk_inside_bands(fib, catalog_reports):
    # the bulk of a finite cut's eigenvalues lies near the level-10 periodic
    # bands; a bounded handful of boundary modes parks inside gaps no matter
    # how long the section is, so containment is asserted for all but those
    word = lr.iterate_prefix(fib, "a", 610)
    ev = finite_section_eigenvalues(word, fib.alphabet.values)
    spec = band_spectrum(fib, "a", 10)
    outliers = 0
    for e in ev:
        dist = min(
            0.0 if lo <= e <= hi else min(abs(e - lo), abs(e - hi))
            for lo, hi in spec.bands
        )
        if dist >= 1e-2:
            outliers += 1
    assert outliers <= 15
    assert outliers / len(ev) < 0.025


def _cube_count(word: str, n: int) -> int:
    codes = letter_codes(word)
    return cube_positions(letter_planes(codes), len(codes), n)


def test_popcount_matches_bin_counts():
    # random words, all-zero and all-one words, at sizes that are not
    # multiples of 64 words, and the tail word of a bit count that is not a
    # multiple of 64, as cube_positions leaves it
    rng = np.random.default_rng(40)
    for size in [0, 1, 2, 3, 7, 63, 65, 1000, 15625]:
        arrays = [
            rng.integers(0, 2**64, size=size, dtype=np.uint64),
            np.zeros(size, dtype=np.uint64),
            np.full(size, 2**64 - 1, dtype=np.uint64),
        ]
        for bits in rng.integers(1, 64, size=3):
            arrays.append(arrays[0] & np.uint64((1 << int(bits)) - 1))
        for words in arrays:
            assert popcount(words) == sum(bin(int(x)).count("1") for x in words), size
    assert popcount(np.full(15625, 2**64 - 1, dtype=np.uint64)) == 10**6


def test_cube_positions_counter():
    x = "\x00\x01\x00\x01\x00\x01\x00"
    # period-2 cubes start at 0 and 1 (010101 and 101010); no period-1 cube
    assert _cube_count(x, 2) == 2
    assert _cube_count(x, 1) == 0
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.integers(0, 2, size=int(rng.integers(1, 40)), dtype=np.uint8).tobytes()
        for n in range(1, len(w) // 3 + 1):
            direct = sum(w[i : i + n] * 3 == w[i : i + 3 * n] for i in range(len(w) - 3 * n + 1))
            assert _cube_count(w.decode("latin-1"), n) == direct


def _repetitive_word(rng, letters, length: int) -> str:
    """A random block repeated to `length` letters, with up to three letters redrawn."""
    block = [rng.choice(letters) for _ in range(rng.randint(1, max(1, length // 3)))]
    word = (block * (length // len(block) + 1))[:length]
    for _ in range(rng.randint(0, 3)):
        word[rng.randrange(length)] = rng.choice(letters)
    return "".join(word)


def test_cube_positions_match_the_run_oracle():
    # the bit-plane count equals the run-length count on words of 1-4
    # letters below U+0100 and of two and 300 letters from U+0100 on
    # (code points), at lengths that are not multiples of 64, at periods
    # that are, and at 3n equal to the length
    rng = random.Random(36)
    alphabets = ["a", "ab", "abc", "abcd", "\u0100\u0101", [chr(0x100 + i) for i in range(300)]]
    found = 0
    for letters in alphabets:
        for length in [3, 63, 65, 127, 192, 193, 384, 577] + [rng.randint(1, 900) for _ in range(12)]:
            word = _repetitive_word(rng, letters, length)
            codes = letter_codes(word)
            assert codes.dtype == (np.uint8 if letters[0] < "\u0100" else np.dtype("<u4"))
            planes = letter_planes(codes)
            periods = {n for n in range(64, length // 3 + 1, 64)}
            periods |= {length // 3, 1, 2} | {rng.randint(1, 300) for _ in range(3)}
            for n in sorted(p for p in periods if 1 <= 3 * p <= length):
                count = cube_positions(planes, length, n)
                assert count == cube_positions_by_runs(codes, n), (letters[:4], length, n)
                found += count > 0
    assert found >= 100, found


def test_gordon_fibonacci(fib, catalog_reports, monkeypatch):
    rep = catalog_reports["fibonacci"]
    monkeypatch.setattr(spectral, "GORDON_LEVELS", (2, 3, 4))
    monkeypatch.setattr(spectral, "GORDON_SAMPLE_LENGTH", 200000)
    g = gordon_check(fib, rep)
    assert g.u == "abaab"
    assert g.n_k == tuple(word_image_lengths(fib.rules, "abaab", 4)[2:])
    assert g.freq_lower_bound > 0
    assert g.bound_satisfied
    # growth cross-check: n_k stays inside the sandwich for u
    from linrep.substitution import perron_growth

    growth = perron_growth(fib, ["abaab"], 10)
    for k, nk in zip(g.levels, g.n_k):
        assert growth.lambda_v * growth.theta**k * (1 - 1e-9) <= nk
        assert nk <= growth.rho_v * growth.theta**k * (1 + 1e-9)


GORDON_NAMES = [
    "fibonacci",
    "free",
    "minimal-nonprimitive",
    "minimal-nonprimitive-noaa",
    "period-doubling",
    "periodic-ab",
    "stutter-doubled",
    "stutter-separated",
    "thue-morse",
]


@pytest.mark.parametrize("name", GORDON_NAMES)
def test_growth_ratios_match_inline_expressions(name, catalog_subs, catalog_reports):
    # lambda, rho and the Gordon bound from the ratio expressions written
    # out: growth_ratio_range must give the same floats, bit for bit
    s, rep = catalog_subs[name], catalog_reports[name]
    growth = rep.lr.growth
    theta, n_max = growth.theta, growth.n_checked
    ratios = [
        word_image_lengths(s.rules, v, n_max)[n] / theta**n
        for v in growth.words
        for n in range(1, n_max + 1)
    ]
    assert (growth.lambda_v, growth.rho_v) == (min(ratios), max(ratios))
    g = gordon_check(s, rep)
    if isinstance(g, GordonHypothesisMissing):
        return
    n_max = max(n_max, max(g.levels))
    e_lengths = word_image_lengths(s.rules, g.e, n_max)
    cube_lengths = word_image_lengths(s.rules, g.u * 3 + g.e, n_max)
    lam = min(e_lengths[n] / theta**n for n in range(1, n_max + 1))
    rho = max(cube_lengths[n] / theta**n for n in range(1, n_max + 1))
    assert g.freq_lower_bound == lam / (rep.lr.value * rho)


@pytest.mark.parametrize("name", GORDON_NAMES)
def test_gordon_check_equals_a_full_depth_search(name, catalog_subs, monkeypatch):
    # the cube witness is searched in report.factors alone: a certified
    # classify builds no set, the first read of report.factors builds it at
    # depth 48, nothing else is built, and the witness is the shortest one a
    # saturated set of that depth holds
    s = catalog_subs[name]
    monkeypatch.setattr(spectral, "GORDON_SAMPLE_LENGTH", 100000)
    calls = []
    build = spectral.wd.factor_language

    def counted(s, max_length, **kwargs):
        calls.append(max_length)
        return build(s, max_length, **kwargs)

    monkeypatch.setattr(spectral.wd, "factor_language", counted)
    rep = lr.classify(s)
    assert calls == [] and rep.factor_depth == 48
    g = gordon_check(s, rep)
    assert calls == [48] and rep.factors.max_length == 48
    assert gordon_check(s, rep) == g and calls == [48]
    u = lr.find_power(build(s, 48), lambda w: w[0] in s.split.growing, 3)
    if u is None:
        assert g == GordonHypothesisMissing(searched_depth=48)
    else:
        assert g.u == u


def test_gordon_check_past_256_letters():
    # letters chr(0x100 + i), i < 257, with S(L0) = L0^3 L0 L1 ... L256 and
    # S(Li) = L0 Li: certified minimal, with the cube witness u = L0; the
    # sample is read as code points, so a letter of rank 256 or more is
    # compared like any other.  Level 4 has n = 757,504, so 3n passes the
    # 10^6-letter sample: that level and the ones above are left out, and
    # the bound holds at levels 1-3
    letters = [chr(0x100 + i) for i in range(257)]
    rules = {letters[0]: letters[0] * 3 + "".join(letters)}
    rules.update({a: letters[0] + a for a in letters[1:]})
    s = Substitution.from_rules(rules, name="wide-257")
    rep = lr.classify(s)
    assert rep.minimal == "yes"
    g = gordon_check(s, rep)
    assert g.u == g.e == letters[0] and g.sample_length == 10**6
    assert g.levels == (1, 2, 3) and g.n_k == (260, 1552, 73280)
    want = {1: 0.0755468509969, 2: 0.0145939347663, 3: 0.125631760624}
    assert g.empirical_frequency == pytest.approx(want, rel=1e-10)
    assert g.freq_lower_bound < 1e-9 and g.bound_satisfied


def test_gordon_check_reports_only_the_levels_that_fit(fib, monkeypatch):
    # fibonacci's u = abaab has n_1 = 8 and n_2 = 13: a sample of 24 letters
    # holds level 1 alone, and one of 23 holds no level
    rep = lr.classify(fib)
    monkeypatch.setattr(spectral, "GORDON_SAMPLE_LENGTH", 24)
    g = gordon_check(fib, rep)
    assert (g.levels, g.n_k, g.sample_length) == ((1,), (8,), 24)
    word = lr.iterate_prefix(fib, rep.certificate.letter, 24)
    assert g.empirical_frequency == {1: float(word[:8] * 3 == word)}
    monkeypatch.setattr(spectral, "GORDON_SAMPLE_LENGTH", 23)
    with pytest.raises(SubstitutionError, match="n = 8.* 23 letters"):
        gordon_check(fib, rep)


def test_gordon_check_memory(fib):
    # the sample is held as one byte per letter and its cubes are counted on
    # packed bit planes; four bytes per letter and run-length arrays over it
    # peaked near 7.6 MB
    import tracemalloc

    rep = lr.classify(fib)
    tracemalloc.start()
    try:
        g = gordon_check(fib, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.bound_satisfied and g.levels == (1, 2, 3, 4, 5, 6)
    assert peak <= 5 * 10**6, peak


def test_gordon_thue_morse_missing(catalog_subs, catalog_reports):
    g = gordon_check(catalog_subs["thue-morse"], catalog_reports["thue-morse"])
    assert isinstance(g, GordonHypothesisMissing)


def test_gordon_needs_minimality(catalog_subs, catalog_reports):
    with pytest.raises(SubstitutionError):
        gordon_check(catalog_subs["remarkc"], catalog_reports["remarkc"])


def test_band_spectrum_rejects_negative_level(fib):
    with pytest.raises(ValueError, match="level must be >= 0"):
        band_spectrum(fib, "a", -1)

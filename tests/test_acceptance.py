"""Acceptance gate: one test per criterion, each printing a PASS line with timing.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import linrep as lr
from linrep import numtheory as nt
from linrep import recognizer as rec
from linrep import spectral
from linrep import words as wd
from linrep.classify import NO, YES
from linrep.cli import main
from linrep.spectral import GordonHypothesisMissing, band_spectrum, gordon_check
from linrep.substitution import (
    Substitution,
    bounded_letters,
    iterate_prefix,
    reduced_substitution,
)

from bruteforce import (
    distinct_windows,
    finite_section_eigenvalues,
    interior_cuts,
    naive_factors,
    naive_find_power,
    naive_return_words,
    power_bound,
    project,
    repetitivity_function,
    transfer_matrix,
    word_image_lengths,
)
from conftest import CATALOG_NAMES

GOLDEN = Path(__file__).parent / "golden"


def _stamp(number, label, t0):
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.time() - t0:.1f}s]")


def test_criterion_1_counterexample_fidelity(tmp_path, capsys):
    t0 = time.time()
    defs = tmp_path / "defs"
    from linrep import catalog

    catalog.export(defs)
    for name, checks in {
        "remark1b": ["fails-certified"],
        "remarkc": ["bounded-block-pump"],
    }.items():
        t_entry = time.time()
        out = tmp_path / f"{name}.json"
        assert main(["analyze", str(defs / f"{name}.json"), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        assert payload == golden
        assert time.time() - t_entry < 1.0
    r1b = json.loads((GOLDEN / "remark1b.json").read_text())
    assert r1b["compatibility"]["status"] == "fails-certified"
    rc = json.loads((GOLDEN / "remarkc.json").read_text())
    assert rc["minimal"]["status"] == "no"
    assert rc["minimal"]["counterexample"]["kind"] == "bounded-block-pump"
    capsys.readouterr()
    with capsys.disabled():
        _stamp(1, "counterexample fidelity", t0)


def test_criterion_2_tri_agreement(catalog_reports, catalog_subs, capsys):
    t0 = time.time()
    for name in CATALOG_NAMES:
        rep = catalog_reports[name]
        s = catalog_subs[name]
        if rep.minimal == YES:
            bound = rep.lr.value
            fs = wd.factor_language(s, 20)
            for n in range(1, 21):
                r = repetitivity_function(fs, n)
                assert r <= bound * n, (name, n, r, bound)
        else:
            assert rep.minimal == NO
            v = rep.counterexample.letter
            word, _ = rep.counterexample.avoiding_factor(10 * len(v))
            assert v not in word and len(word) >= 10 * len(v)
    assert time.time() - t0 < 30.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(2, "equivalence tri-agreement", t0)


def test_criterion_3_growth_sandwich(catalog_reports, catalog_subs, capsys):
    t0 = time.time()
    checked = 0
    for name in CATALOG_NAMES:
        rep = catalog_reports[name]
        if rep.minimal != YES:
            continue
        s = catalog_subs[name]
        g = rep.lr.growth
        assert g.n_checked >= 30
        for v in g.words:
            for n, length in enumerate(word_image_lengths(s.rules, v, 30)[1:], 1):  # exact
                scale = g.theta**n
                assert g.lambda_v * scale * (1 - 1e-12) <= length <= g.rho_v * scale * (1 + 1e-12)
                checked += 1
    assert checked > 0
    fib_theta = catalog_reports["fibonacci"].lr.growth.theta
    assert abs(fib_theta - (1 + math.sqrt(5)) / 2) < 1e-8
    assert time.time() - t0 < 5.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(3, "growth sandwich", t0)


def test_criterion_4_erasure_intertwining(capsys):
    t0 = time.time()
    rng = random.Random(0xD01)
    done = 0
    while done < 200:
        letters = "abc"[: rng.randint(2, 3)]
        rules = {
            ch: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            for ch in letters
        }
        s = Substitution.from_rules(rules)
        if not s.split.growing:
            continue
        red = reduced_substitution(s)
        x = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        n = rng.randint(0, 6)
        if s.lengths(x, n)[-1] > 10**5:
            continue
        image = s.iterate(x, n)
        assert project(s, image) == red.iterate(project(s, x), n)
        done += 1
    assert time.time() - t0 < 5.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(4, "erasure intertwining", t0)


def test_criterion_5_spectral_sanity(catalog_subs, capsys):
    t0 = time.time()
    free = catalog_subs["free"]
    spec = band_spectrum(free, "a", 3)
    assert spec.band_count == 1
    (lo, hi), = spec.bands
    assert abs(lo + 2.0) < 1e-8 and abs(hi - 2.0) < 1e-8

    # det = 1 holds exactly in exact arithmetic; verifying it at 1e-10
    # absolute needs extended precision and word lengths whose conditioning
    # (entries grow exponentially off the spectrum) stays inside that budget
    rng = random.Random(55)
    values = {"a": 1.0, "b": -1.0}
    for _ in range(1000):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 8)))
        e = rng.uniform(-3.5, 3.5)
        m = transfer_matrix(w, e, values, dtype=np.longdouble)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1.0) < 1e-10

    fib = catalog_subs["fibonacci"]
    measures = [band_spectrum(fib, "a", k).total_measure for k in range(4, 11)]
    for a, b in zip(measures, measures[1:]):
        assert b < a - 1e-6

    n = 64
    ev = np.sort(finite_section_eigenvalues("a" * n, {"a": 0.0}))
    expected = np.sort([2 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)])
    assert np.max(np.abs(ev - expected)) < 1e-8
    assert time.time() - t0 < 60.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(5, "spectral sanity", t0)


def test_criterion_6_gordon_bound(catalog_subs, catalog_reports, capsys, monkeypatch):
    t0 = time.time()
    monkeypatch.setattr(spectral, "GORDON_LEVELS", (2, 3, 4, 5, 6))
    witnesses = 0
    for name in CATALOG_NAMES:
        rep = catalog_reports[name]
        if rep.minimal != YES:
            continue
        g = gordon_check(catalog_subs[name], rep)
        if isinstance(g, GordonHypothesisMissing):
            continue
        witnesses += 1
        assert g.freq_lower_bound > 0
        for k in (2, 3, 4, 5, 6):
            if k in g.empirical_frequency:
                assert g.empirical_frequency[k] >= g.freq_lower_bound - 1e-3, (name, k)
    assert witnesses >= 3  # fibonacci, period-doubling, free at least
    monkeypatch.undo()
    tm = gordon_check(catalog_subs["thue-morse"], catalog_reports["thue-morse"])
    assert isinstance(tm, GordonHypothesisMissing)
    assert time.time() - t0 < 60.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(6, "gordon cube-frequency bound", t0)


def test_criterion_7_recognizer_uniqueness(catalog_subs, catalog_reports, capsys):
    t0 = time.time()
    s = catalog_subs["minimal-nonprimitive"]
    rep = catalog_reports["minimal-nonprimitive"]
    fs = wd.factor_language(s, 64)

    # global audit: every factor up to length 600 has a unique interior cut-set
    scan = lr.uniqueness_scan(s, rep, fs)
    assert scan.ok
    L = scan.half_width

    # spot-exhaustive confirmation at selected lengths via coverage windows
    sample = lr.iterate_prefix(s, "a", int(rep.lr.value * 600) + 1200)
    for m in (4 * L + 2, 4 * L + 30, 280):
        for w in sorted(distinct_windows(sample, m)):
            cut_sets = {interior_cuts(p, L) for p in rec.enumerate_one_partitions(s, w)}
            assert len(cut_sets) == 1, (m, w[:40])

    # propagation below the threshold length, exhaustively over the language
    alpha = s.rules["a"]
    L0 = power_bound(s, fs)
    threshold = 2 * len(alpha) + L0
    for length in range(threshold + 1, 2 * threshold + 1):
        for w in fs.words_of_length(length):
            parts = rec.enumerate_one_partitions(s, w)
            doubled = [p.z0 == "" and p.blocks[:2] == (alpha, alpha) for p in parts]
            if any(doubled):
                assert all(doubled)

    # 100 random round trips through the recognition rule
    rule = rec.recognition_rule(s, fs, rep)
    rng = random.Random(77)
    for _ in range(100):
        i = rng.randrange(0, len(sample) - (4 * L + 80))
        window = sample[i : i + 4 * L + 3 + rng.randrange(60)]
        preimage, offset = rec.desubstitute(s, window, rule)
        image = s.apply(preimage)
        assert image == window[offset : offset + len(image)]
    assert time.time() - t0 < 60.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(7, "recognizer uniqueness", t0)


def test_criterion_8_transcendence_premises(catalog_subs, catalog_reports, capsys):
    t0 = time.time()
    sep = catalog_subs["stutter-separated"]
    sk = nt.detect_case(sep, catalog_reports["stutter-separated"])
    assert sk.case_tag == nt.CASE_SEPARATED and sk.k == 1 and sk.w == ""

    dbl = catalog_subs["stutter-doubled"]
    sk2 = nt.detect_case(dbl, catalog_reports["stutter-doubled"])
    assert sk2.case_tag == nt.CASE_DOUBLED and sk2.w == "11"

    wit = nt.detect_case(dbl, catalog_reports["stutter-doubled"], 24)
    assert wit.v_lengths == wit.v_prime_lengths
    assert all(vp / v == 1.0 for vp, v in zip(wit.v_prime_lengths, wit.v_lengths))

    digits = [int(ch) for ch in iterate_prefix(sep, "0", 500)]
    lo = nt.expansion_value(digits, 2, 192)
    hi = nt.expansion_value(digits, 2, 192 + 64)
    lo, hi = (Fraction(v.mantissa, 1 << v.bits) for v in (lo, hi))
    assert abs(lo - hi) <= Fraction(2, 2**192)
    assert time.time() - t0 < 10.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(8, "transcendence premises", t0)


def test_criterion_9_oracle_equivalence(catalog_subs, capsys):
    t0 = time.time()
    depth = 12
    for name in CATALOG_NAMES:
        s = catalog_subs[name]
        fs = wd.factor_language(s, depth)
        assert fs.saturated
        oracle = naive_factors(s.rules, depth)
        assert fs.words == oracle, name

        for v in s.letters:
            mine = wd.return_words(v, fs)
            assert mine == naive_return_words(oracle, v), (name, v)

        growing = bounded_letters(s).growing
        for constraint in (lambda u: True, lambda u: u[0] in growing):
            mine = wd.find_power(fs, constraint, 3)
            naive = naive_find_power(oracle, constraint, 3, depth)
            assert mine == naive, name
    assert time.time() - t0 < 120.0
    capsys.readouterr()
    with capsys.disabled():
        _stamp(9, "oracle equivalence", t0)

import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import linrep as lr
from linrep import numtheory as nt
from linrep.classify import UNDECIDED, YES, PeriodicityResult, classify
from linrep.recognizer import ShapeError
from linrep.substitution import Substitution, SubstitutionError, iterate_prefix

from bruteforce import chunked_decimal, digitwise_mantissa, horner_value, word_image_lengths


def _two_letter(rules):
    return Substitution.from_rules(rules, values={"0": 0.0, "1": 1.0})


def _report(s):
    return classify(s)


def _value(v):
    return Fraction(v.mantissa, 1 << v.bits)


def test_detect_separated_0100():
    s = _two_letter({"0": "0100", "1": "1"})
    sk = nt.detect_case(s, _report(s))
    assert sk.case_tag == nt.CASE_SEPARATED
    assert sk.k == 1 and sk.w == ""


def test_detect_doubled_00110():
    s = _two_letter({"0": "00110", "1": "1"})
    sk = nt.detect_case(s, _report(s))
    assert sk.case_tag == nt.CASE_DOUBLED
    assert sk.w == "11"


def test_detect_separated_with_tail():
    # 010010 = 0 1 0 . 01 . 0 parses as the separated-run shape
    s = _two_letter({"0": "010010", "1": "1"})
    sk = nt.detect_case(s, _report(s))
    assert sk.case_tag == nt.CASE_SEPARATED
    assert sk.k == 1 and sk.w == "01"


def test_detect_rejects_bad_boundary():
    # image ending in 1 violates the begin/end-with-0 consequence of
    # bounded gaps; here it also breaks minimality upstream
    s = _two_letter({"0": "01001", "1": "1"})
    with pytest.raises(SubstitutionError):
        nt.detect_case(s, _report(s))


def test_detect_excludes_periodic_shape():
    s = _two_letter({"0": "0110", "1": "1"})
    with pytest.raises(SubstitutionError):
        nt.detect_case(s, _report(s))


def test_detect_rejects_undecided_periodicity(catalog_subs, catalog_reports):
    s = catalog_subs["stutter-separated"]
    rep = catalog_reports["stutter-separated"]
    nt.detect_case(s, rep)  # the report as classified passes
    undecided = dataclasses.replace(
        rep, periodicity=PeriodicityResult(UNDECIDED, None, 0, "factor set did not saturate")
    )
    with pytest.raises(SubstitutionError, match="undecided-at-depth"):
        nt.detect_case(s, undecided)


def test_detect_rejects_primitive(fib):
    with pytest.raises(ShapeError):
        nt.detect_case(fib, _report(fib))


def test_detect_swapped_letters():
    s = _two_letter({"0": "0", "1": "1011"})
    sk = nt.detect_case(s, _report(s))
    assert sk.swapped
    assert sk.zero == "1" and sk.one == "0"
    assert sk.case_tag == nt.CASE_SEPARATED


def test_build_witness_separated():
    s = _two_letter({"0": "0100", "1": "1"})
    wit = nt.detect_case(s, _report(s), 24)
    # the stutter sits inside the second iterate of the growing letter
    stutter = "0" + "1" * wit.k + "0" + "1" * wit.k + "0"
    assert stutter in s.iterate("0", 2)
    fp = iterate_prefix(s, "0", len(wit.p) + len(stutter))
    assert fp == wit.p + stutter
    assert wit.u_lengths == tuple(word_image_lengths(s.rules, wit.p, 24)[1:])


def test_build_witness_doubled_has_triple_zero():
    s = _two_letter({"0": "00110", "1": "1"})
    wit = nt.detect_case(s, _report(s), 20)
    assert "000" in s.iterate("0", 2)
    assert wit.v_lengths == wit.v_prime_lengths  # V_n = V_n' = S^n(0)


def test_conditions_doubled_identity():
    s = _two_letter({"0": "00110", "1": "1"})
    wit = nt.detect_case(s, _report(s), 24)
    cond = nt.check_conditions(wit)
    assert cond.lengths_diverge == YES
    assert cond.min_core_ratio == 1.0
    assert cond.core_ratio_positive == YES


def test_conditions_separated():
    s = _two_letter({"0": "0100", "1": "1"})
    wit = nt.detect_case(s, _report(s), 32)
    cond = nt.check_conditions(wit)
    assert cond.lengths_diverge == YES
    assert cond.prefix_ratio_bounded == YES
    assert cond.core_ratio_positive == YES
    assert all(a < b for a, b in zip(wit.v_lengths, wit.v_lengths[1:]))


def _statuses(cond):
    return (cond.lengths_diverge, cond.prefix_ratio_bounded, cond.core_ratio_positive)


@pytest.mark.parametrize("depth", [10, 16])
def test_premises_hold_at_shallow_depth(catalog_subs, catalog_reports, depth):
    # the premises are proved for every n; the tail of |U_n| / |V_n| has not
    # settled to 1e-6 at these depths
    s = catalog_subs["stutter-separated"]
    tr = nt.transcendence_report(s, catalog_reports["stutter-separated"], depth=depth)
    assert _statuses(tr.conditions) == (YES, YES, YES)


def test_premises_and_ratio_bounds_on_seeded_shapes():
    # every shape that passes require_premises, at every depth 1..32: the
    # premises hold, |U_n| / |V_n| <= |p| and |V_n'| / |V_n| >= 1 / (k + 1)
    rng = random.Random(2028)
    checked = doubled = 0
    while checked < 150:
        zero, one = rng.choice([("0", "1"), ("1", "0")])
        mid = "".join(rng.choice(zero + one) for _ in range(rng.randint(1, 8)))
        s = _two_letter({zero: zero + mid + zero, one: one})
        try:
            report = _report(s)
            nt.detect_case(s, report, 1)
        except SubstitutionError:
            continue  # not minimal, or fails the premises or the shape
        for depth in range(1, 33):
            wit = nt.detect_case(s, report, depth)
            cond = nt.check_conditions(wit)
            assert _statuses(cond) == (YES, YES, YES)
            assert cond.max_prefix_ratio <= len(wit.p), s
            assert cond.min_core_ratio >= 1 / ((wit.k or 0) + 1), s
        checked += 1
        doubled += wit.case_tag == nt.CASE_DOUBLED
    assert doubled >= 30 and checked - doubled >= 30


def test_length_recursion_matches_direct_iteration():
    rng = random.Random(3)
    for rules in ({"0": "0100", "1": "1"}, {"0": "00110", "1": "1"}, {"0": "010", "1": "11"}):
        s = _two_letter(rules)
        for _ in range(6):
            w = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            n = rng.randint(0, 12)
            length = s.lengths(w, n)[-1]
            if length > 2 * 10**5:
                continue
            assert length == len(s.iterate(w, n))


def test_case_dichotomy_randomized():
    # every minimal aperiodic nonprimitive two-letter system with a fixed
    # letter falls in exactly one shape
    rng = random.Random(99)
    seen = 0
    tried = 0
    while seen < 12 and tried < 400:
        tried += 1
        mid = "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))
        img = "0" + mid + "0"
        if "1" not in img:
            continue
        s = _two_letter({"0": img, "1": "1"})
        rep = _report(s)
        if rep.minimal != YES or rep.periodicity.status != "aperiodic-up-to-depth":
            continue
        sk = nt.detect_case(s, rep)
        assert sk.case_tag in (nt.CASE_SEPARATED, nt.CASE_DOUBLED)
        seen += 1
    assert seen >= 8


def test_expansion_half():
    v = nt.expansion_value("1" + "0" * 200, base=2, bits=64)
    assert _value(v) == Fraction(1, 2)


def test_expansion_third_base2():
    v = nt.expansion_value("01" * 120, base=2, bits=100)
    assert abs(_value(v) - Fraction(1, 3)) <= Fraction(1, 2**99)


def test_expansion_third_base3():
    # 1/3 is not dyadic: the 64-bit rounding is correct to half an ulp
    v = nt.expansion_value([1] + [0] * 150, base=3, bits=64)
    assert abs(_value(v) - Fraction(1, 3)) <= Fraction(1, 2**65)


def test_expansion_value_matches_horner():
    # base 3 past 4,300 digits: a digit string read by int() would hit the
    # interpreter's int-to-str limit there
    rng = random.Random(20261018)
    for base, count in [(2, 9000), (3, 4400), (3, 9000), (10, 500), (16, 3000)]:
        for length in [count, count + 1, count + rng.randint(2, 999)]:
            digits = [rng.randrange(base) for _ in range(length)]
            bits = rng.randint(32, 512)
            value = nt.expansion_value(digits, base, bits)
            den = base**length
            want = ((horner_value(digits, base) << bits) + den // 2) // den
            assert value.mantissa == want, (base, length, bits)


def test_expansion_string_with_a_non_digit():
    # the same error as a sequence with a digit out of range
    for base, bad in [(2, "x"), (10, "x"), (16, "x"), (1000, "!")]:
        with pytest.raises(ValueError, match=f"digits must lie in 0..{base - 1}"):
            nt.expansion_value("01" + bad + "0" * 200, base=base, bits=64)
    with pytest.raises(ValueError, match="digits must lie in 0..1"):
        nt.expansion_value("0120" * 50, base=2, bits=64)


@pytest.mark.parametrize("bits", [160, 14000, 200000])
@pytest.mark.parametrize("base", [2, 3, 10, 16, 1000])
def test_evaluation_matches_the_chunked_oracle(catalog_subs, catalog_reports, bits, base):
    need = math.ceil(bits * math.log(2) / math.log(base)) + 8
    rng = random.Random(bits * base)
    digits = [rng.randrange(base) for _ in range(need + rng.randrange(20))]
    value = nt.expansion_value(digits, base, bits)
    assert value.mantissa == digitwise_mantissa(digits, base, bits)
    assert value.decimal == chunked_decimal(value.mantissa, bits)

    s = catalog_subs["stutter-separated"]
    tr = nt.transcendence_report(s, catalog_reports["stutter-separated"], bits=bits, base=base)
    want_digits = tuple(int(ch) for ch in iterate_prefix(s, "0", need))
    assert tr.digits == want_digits
    mantissa = digitwise_mantissa(want_digits, base, bits)
    assert tr.value.mantissa == mantissa
    oracle_value = SimpleNamespace(
        base=base, bits=bits, digits_used=need, decimal=chunked_decimal(mantissa, bits)
    )
    oracle = dataclasses.replace(tr, value=oracle_value)
    assert json.dumps(tr.to_json_dict()) == json.dumps(oracle.to_json_dict())


def test_expansion_needs_enough_digits():
    with pytest.raises(nt.InsufficientDigitsError):
        nt.expansion_value("101", base=2, bits=64)


def test_expansion_two_precisions_agree():
    s = _two_letter({"0": "0100", "1": "1"})
    digits = [int(ch) for ch in iterate_prefix(s, "0", 400)]
    lo = nt.expansion_value(digits, 2, 128)
    hi = nt.expansion_value(digits, 2, 128 + 64)
    assert abs(_value(lo) - _value(hi)) <= Fraction(2, 2**128)


def test_full_report_round_trip():
    s = _two_letter({"0": "0100", "1": "1"})
    rep = _report(s)
    tr = nt.transcendence_report(s, rep, depth=16, bits=96)
    d = tr.to_json_dict()
    assert d["case"]["tag"] == nt.CASE_SEPARATED
    for premise in ("lengths_diverge", "prefix_ratio_bounded", "core_ratio_positive"):
        assert d["conditions"][premise] == "yes"
    assert len(d["value"]["decimal"]) >= 10
    assert "transcendental" in d["attribution"]


def test_decimal_string_beyond_int_str_limit(catalog_subs, catalog_reports):
    # 14,400 bits need 4,335 decimal digits, past the interpreter's default
    # limit of 4,300 for converting one int to a string
    s = catalog_subs["stutter-separated"]
    tr = nt.transcendence_report(s, catalog_reports["stutter-separated"], bits=14400)
    text = tr.value.decimal
    assert text.startswith("0.")
    digits = text[2:]
    assert len(digits) == 4335
    # exact long division of mantissa / 2^bits, one digit at a time
    rest = Fraction(tr.value.mantissa, 1 << 14400)
    expected = []
    for _ in range(len(digits)):
        rest *= 10
        d = int(rest)
        expected.append(str(d))
        rest -= d
    assert digits == "".join(expected)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("limit", [640, 0])
def test_decimal_under_a_set_digit_limit(limit):
    # the least limit the interpreter accepts, and none: str() takes pieces
    # of at most 639 digits, or of the default 4,300
    m = random.Random(limit).getrandbits(30000)
    want = chunked_decimal(m, 30000)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        got = nt.ExpansionValue(mantissa=m, bits=30000, base=2, digits_used=30008).decimal
    finally:
        sys.set_int_max_str_digits(old)
    assert got == want


@pytest.mark.parametrize("bits", [64, 30000])
def test_decimal_of_a_value_rounded_up_to_one(bits):
    # all-ones digits past the rounding grain round up to exactly 1
    v = nt.expansion_value("1" * (bits + 16), 2, bits)
    assert v.mantissa == 1 << bits
    d = math.ceil(bits * math.log10(2))
    assert v.decimal == "1." + "0" * d == chunked_decimal(v.mantissa, bits)


@pytest.mark.parametrize("bits", [160, 14000, 200000])
def test_decimal_is_the_truncated_quotient(bits):
    m = random.Random(bits).getrandbits(bits)
    v = nt.ExpansionValue(mantissa=m, bits=bits, base=2, digits_used=bits + 8)
    d = math.ceil(bits * math.log10(2))
    # str() of a number past 4,300 digits needs the interpreter's limit lifted
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    limit = get_limit()
    set_limit(0)
    try:
        want = "0." + str(m * 10**d // 2**bits).zfill(d)
    finally:
        set_limit(limit)
    assert v.decimal == want
    assert v.decimal is v.decimal  # the second read returns the cached string

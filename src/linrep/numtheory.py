"""Stutter witnesses and digit expansions for two-letter fixed points.

For a substitution on {0, 1} fixing the letter 1 that passes
`recognizer.require_premises` (nonprimitive, certified minimal,
aperiodic), the image of 0 begins and ends with 0 and has one of two shapes:
a separated run 0 1^k 0 w 0, or a doubled start 0 0 w 0 with w containing a
1.  Either shape plants a stutter 0 1^k 0 1^k 0 (resp. 0 0 0) in the second
iterate, which splits the fixed point as u = p . V V ... with

    U_n = S^n(p),   V_n = S^n(0 1^k),   V_n' = S^n(0)

(doubled case: V_n = V_n' = S^n(0)).  As S(0) begins with 0, every
iterate S^k(0) is a prefix of u, so `iterate_prefix` reads u.
`detect_case` finds the shape, the prefix p and the length tables in one
step.  The Ferenczi-Mauduit transcendence criterion then needs
|V_n| -> infinity, |U_n| / |V_n| bounded above and |V_n'| / |V_n| bounded
below; `check_conditions` proves all three for every n from the shape of
S(0), and the depth sizes only the length tables.  The expansion value is
evaluated exactly.  The module reports premises, never the conclusion on
its own authority.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .classify import YES, ClassificationReport
from .recognizer import require_premises
from .substitution import Substitution, SubstitutionError, iterate_prefix

CASE_SEPARATED = "separated-run"  # S(0) = 0 1^k 0 w 0
CASE_DOUBLED = "doubled-start"    # S(0) = 0 0 w 0, w containing 1

ATTRIBUTION = (
    "premises of the Ferenczi-Mauduit transcendence criterion, which hold for "
    "every n by the shape of the image of the growing letter; for aperiodic "
    "substitution fixed points the criterion makes the expansion value "
    "transcendental"
)


class CaseDetectionError(SubstitutionError):
    pass


class PeriodicShapeError(CaseDetectionError):
    """S(0) = 0 1^k 0 exactly: the fixed point is periodic, outside scope."""


@dataclass
class StutterWitness:
    """Shape classification of S(0) plus the stutter prefix split of the fixed point.

    All letters are reported in the original alphabet; `zero`/`one` name the
    growing and the fixed letter.  `p` is the (possibly empty) prefix before
    the first stutter, re-checkable against the fixed point.  Length tables
    run over n = 1..depth.
    """

    case_tag: str
    zero: str
    one: str
    swapped: bool
    k: int | None
    w: str
    p: str
    depth: int
    u_lengths: tuple[int, ...]
    v_lengths: tuple[int, ...]
    v_prime_lengths: tuple[int, ...]


def detect_case(s: Substitution, report: ClassificationReport, depth: int = 32) -> StutterWitness:
    """Classify S(0) into the separated-run or doubled-start shape, locate the
    stutter prefix p in the fixed point and tabulate exact lengths to `depth`.

    The premises and the growing and fixed letters come from
    `recognizer.require_premises`, which raises when they fail; an image
    without the fixed letter fails the doubled-start check.  A depth below 1,
    which would leave the tables empty, raises ValueError.
    """
    if depth < 1:
        raise ValueError(f"need depth >= 1 for the length tables, got {depth}")
    zero, one = require_premises(s, report)
    img = s.rules[zero]
    if img[1] == one:
        k = 1
        while img[1 + k] == one:
            k += 1
        rest = img[2 + k :]
        if rest == "":
            raise PeriodicShapeError(
                f"image {img!r} is exactly {zero}{one}^{k}{zero}: periodic fixed point"
            )
        case_tag, w = CASE_SEPARATED, rest[:-1]
        v_word = zero + one * k
        pattern = v_word + v_word + zero
    else:  # img[1] == zero
        case_tag, k, w = CASE_DOUBLED, None, img[2:-1]
        if one not in w:
            raise CaseDetectionError(
                f"doubled-start image {img!r} must carry {one!r} strictly inside"
            )
        v_word = zero
        pattern = zero * 3
    # the stutter shows up inside the second iterate alignment of the fixed point
    horizon = s.lengths(zero, 2)[2] + len(pattern) + 2
    prefix = iterate_prefix(s, zero, horizon)
    idx = prefix.find(pattern)
    if idx < 0:
        raise CaseDetectionError(
            f"stutter pattern {pattern!r} not found within the first {horizon} letters; "
            "shape classification inconsistent, flag for review"
        )
    p = prefix[:idx]
    return StutterWitness(
        case_tag=case_tag,
        zero=zero,
        one=one,
        swapped=s.letters.index(one) == 0,
        k=k,
        w=w,
        p=p,
        depth=depth,
        u_lengths=tuple(s.lengths(p, depth)[1:]),
        v_lengths=tuple(s.lengths(v_word, depth)[1:]),
        v_prime_lengths=tuple(s.lengths(zero, depth)[1:]),
    )


@dataclass
class ConditionReport:
    """The three premises, which hold for every n, and the extreme ratios of the tables."""

    lengths_diverge: str
    prefix_ratio_bounded: str
    core_ratio_positive: str
    max_prefix_ratio: float
    min_core_ratio: float


def check_conditions(witness: StutterWitness) -> ConditionReport:
    """The three premises, proved for every n, with the ratios over the tables.

    `require_premises` gives S(1) = 1 and an image S(0) that begins and ends
    with 0, so S(0) holds at least two 0s and L_n = |S^n(0)| >= 2^n.  Each
    letter 1 stays one letter, so |S^n(w)| = |w|_0 L_n + |w|_1 for every
    word w.  With k = 0 in the doubled case, where V_n = V_n':
    - |V_n| = L_n + k >= 2^n diverges;
    - |U_n| = |p|_0 L_n + |p|_1 <= |p| L_n <= |p| |V_n|, as L_n >= 1;
    - |V_n'| / |V_n| = L_n / (L_n + k) >= 1 / (k + 1).
    So all three read "yes" at any depth, which sizes only the tables:
    `max_prefix_ratio` is the greatest |U_n| / |V_n| over n = 1..depth and
    `min_core_ratio` the least |V_n'| / |V_n| over its upper half.
    """
    v = witness.v_lengths
    ratios_uv = [u / vv for u, vv in zip(witness.u_lengths, v)]
    ratios_vpv = [vp / vv for vp, vv in zip(witness.v_prime_lengths, v)]
    return ConditionReport(
        lengths_diverge=YES,
        prefix_ratio_bounded=YES,
        core_ratio_positive=YES,
        max_prefix_ratio=max(ratios_uv),
        min_core_ratio=min(ratios_vpv[witness.depth // 2 :]),
    )


class InsufficientDigitsError(ValueError):
    pass


_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"  # int()'s digit characters, by value


@dataclass
class ExpansionValue:
    """A digit expansion evaluated as an exact dyadic rational to `bits` bits.

    value = mantissa / 2^bits; the truncation error of the partial sum is at
    most base^(-digits_used).
    """

    mantissa: int
    bits: int
    base: int
    digits_used: int

    @functools.cached_property
    def decimal(self) -> str:
        """The value truncated to ceil(bits * log10 2) decimal digits: "0.ddd", or "1.000"."""
        digits10 = max(1, math.ceil(self.bits * math.log10(2)))
        text = _decimal_text(self.mantissa * 10**digits10 >> self.bits, digits10)
        return f"{text[:-digits10] or 0}.{text[-digits10:]}"


def _decimal_text(n: int, width: int) -> str:
    """n >= 0 in decimal, zero-padded to `width`, in near-linear time.

    Pieces of w bits, at most w log10(2) + 1 digits, go through str() under the
    interpreter's int-to-str limit (4,300 where none is set); a larger n splits
    as hi * 2^h + lo, recombined exactly in `decimal` as CPython 3.12's _pylong does."""
    leaf_bits = ((getattr(sys, "get_int_max_str_digits", int)() or 4300) - 1) / math.log10(2)
    if n.bit_length() < leaf_bits:
        return f"{n:0{width}d}"
    import decimal  # only here: small values never load it

    @functools.cache
    def power(h: int):  # 2^h
        return decimal.Decimal(2) ** h if h < leaf_bits else power(h >> 1) * power(h - (h >> 1))

    def convert(n: int, w: int):  # n < 2^w
        if w < leaf_bits:
            return decimal.Decimal(str(n))
        h, hi = w >> 1, n >> (w >> 1)
        return convert(hi, w - h) * power(h) + convert(n - (hi << h), h)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        return str(convert(n, n.bit_length())).zfill(width)


def expansion_value(digits: Sequence[int] | str, base: int = 2, bits: int = 160) -> ExpansionValue:
    """Evaluate sum(d_n / base^n) over the given digits, rounded to `bits` bits.

    A str holds one digit per character, as int() writes them: 0-9, then a-z
    for 10 to 35.  Requires enough digits that the truncated tail is below
    the rounding grain: len(digits) >= bits * ln 2 / ln base + 8.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    if isinstance(digits, str):
        # deleting every digit of the base leaves nothing
        valid = not digits.translate(dict.fromkeys(map(ord, _DIGITS[:base])))
    else:
        digits = list(map(int, digits))
        valid = not digits or (min(digits) >= 0 and max(digits) < base)
    if not valid:
        raise ValueError(f"digits must lie in 0..{base - 1}")
    n = len(digits)
    need = math.ceil(bits * math.log(2) / math.log(base)) + 8
    if n < need:
        raise InsufficientDigitsError(f"need at least {need} digits for {bits} bits, got {n}")
    k = base.bit_length() - 1
    if base == 1 << k and base <= 36:  # int() reads a power-of-two base in linear time
        text = digits if isinstance(digits, str) else "".join(map(_DIGITS.__getitem__, digits))
        num = int(text, base)
    else:
        ds = list(map(_DIGITS.index, digits)) if isinstance(digits, str) else digits
        num = _digits_value(ds, base)
    if base == 1 << k:  # den = 2^(k n): the rounded quotient is a shift
        mantissa = ((num << bits) + (1 << (k * n - 1))) >> (k * n)
    else:
        den = base**n
        mantissa = ((num << bits) + den // 2) // den
    return ExpansionValue(mantissa=mantissa, bits=bits, base=base, digits_used=n)


def _digits_value(ds: list[int], base: int) -> int:
    """The integer with the digits ds in `base`, most significant first.

    Adjacent groups of equal width merge as hi * base^width + lo, so the
    products are balanced and the cost stays subquadratic in len(ds) (as
    CPython's big-int product is); a zero group in front keeps every group
    full width.
    """
    groups, power = ds or [0], base
    while len(groups) > 1:
        if len(groups) % 2:
            groups = [0, *groups]
        pairs = iter(groups)
        groups = [hi * power + lo for hi, lo in zip(pairs, pairs)]
        power *= power
    return groups[0]


@dataclass
class TranscendenceReport:
    witness: StutterWitness
    conditions: ConditionReport
    value: ExpansionValue
    digit_letter_map: dict[str, int]
    attribution: str
    prefix: str  # the fixed-point prefix whose digits give `value`

    @functools.cached_property
    def digits(self) -> tuple[int, ...]:
        return tuple(map(self.digit_letter_map.__getitem__, self.prefix))

    def to_json_dict(self) -> dict:
        w = self.witness
        return {
            "schema_version": "1",
            "depth_caveats": [
                f"premises hold for every n; the length tables run over n <= {w.depth}",
                f"value truncation error <= {self.value.base}^-{self.value.digits_used}",
            ],
            "case": {
                "tag": w.case_tag,
                "growing_letter": w.zero,
                "fixed_letter": w.one,
                "swapped": w.swapped,
                "k": w.k,
                "w": w.w,
                "prefix": w.p,
            },
            "lengths": {
                "depth": w.depth,
                "u": list(w.u_lengths),
                "v": list(w.v_lengths),
                "v_prime": list(w.v_prime_lengths),
            },
            "conditions": {
                "lengths_diverge": self.conditions.lengths_diverge,
                "prefix_ratio_bounded": self.conditions.prefix_ratio_bounded,
                "core_ratio_positive": self.conditions.core_ratio_positive,
                "max_prefix_ratio": self.conditions.max_prefix_ratio,
                "min_core_ratio": self.conditions.min_core_ratio,
            },
            "value": {
                "base": self.value.base,
                "bits": self.value.bits,
                "digits_used": self.value.digits_used,
                "decimal": self.value.decimal,
            },
            "digit_letter_map": dict(self.digit_letter_map),
            "attribution": self.attribution,
        }


def transcendence_report(
    s: Substitution,
    report: ClassificationReport,
    *,
    depth: int = 32,
    bits: int = 160,
    base: int = 2,
) -> TranscendenceReport:
    """Full premise verification plus exact evaluation of the expansion value."""
    witness = detect_case(s, report, depth)
    conditions = check_conditions(witness)

    digit_map = _digit_map(s, base)
    need = math.ceil(bits * math.log(2) / math.log(base)) + 8
    prefix = iterate_prefix(s, witness.zero, need)
    digits = (prefix.translate({ord(ch): _DIGITS[d] for ch, d in digit_map.items()})
              if base <= 36 and base & (base - 1) == 0 else [digit_map[ch] for ch in prefix])
    value = expansion_value(digits, base, bits)
    return TranscendenceReport(
        witness=witness,
        conditions=conditions,
        value=value,
        digit_letter_map=digit_map,
        attribution=ATTRIBUTION,
        prefix=prefix,
    )


def _digit_map(s: Substitution, base: int) -> dict[str, int]:
    """Letters as digits: letter values must be integers inside 0..base-1."""
    out = {}
    for ch in s.letters:
        v = s.alphabet.values[ch]
        if not float(v).is_integer() or not (0 <= int(v) < base):
            raise ValueError(
                f"letter {ch!r} has value {v}, not a digit in base {base}; "
                "assign integer digit values in the definition"
            )
        out[ch] = int(v)
    return out

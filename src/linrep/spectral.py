"""Discrete Schrödinger operators over substitution potentials.

The operator acts on square-summable sequences by
(H u)(n) = u(n+1) + u(n-1) + v(n) u(n), where the potential v reads the
letters of a sequence through their real values.  Spectra of periodic
approximants (period word w = a deep image of a letter, q = |w|) are the
sets {E : |tr T(w, E)| <= 2}, a union of q closed bands.  By Floquet theory
(Teschl, *Jacobi Operators*, ch. 7) the 2q band edges are exactly the
eigenvalues of the q-site operator with periodic and with antiperiodic
boundary conditions, so `band_spectrum` computes them by two symmetric
eigenvalue problems, with no energy grid and no bisection.  Shrinking total
band measure across levels is the desk-scale signature of a zero-measure
Cantor limit.

scipy is imported on the first band-edge solve, not with the module:
classification and the other applications never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import words as wd
from .classify import ClassificationReport
from .substitution import Substitution, SubstitutionError, growth_ratio_range, iterate_prefix

# Adjacent bands whose gap is no wider than this are reported as one band.
# Touching bands (the free operator, Thue-Morse) come out of the eigensolver
# with gaps below 1e-14; open gaps this narrow first appear near q = 256
# (period-doubling level 8) and are merged as well, which `closed_gaps` counts.
CLOSED_GAP_TOL = 1e-9

# gordon_check: slack of the cube-frequency bound, the levels k it checks
# and the length of its fixed-point sample
GORDON_TOL = 1e-3
GORDON_LEVELS = (1, 2, 3, 4, 5, 6)
GORDON_SAMPLE_LENGTH = 10**6


@dataclass
class BandSpectrum:
    """Level-k periodic-approximant spectrum as disjoint closed energy bands.

    `closed_gaps` counts the merged gaps no wider than `CLOSED_GAP_TOL`, so
    `band_count + closed_gaps` is the number of Floquet bands that meet the
    energy window, or of all of them when none was given.
    """

    level: int
    period_word: str
    bands: tuple[tuple[float, float], ...]
    total_measure: float
    closed_gaps: int

    @property
    def band_count(self) -> int:
        return len(self.bands)


def _floquet_edges(word: str, potentials: Mapping[str, float]) -> np.ndarray:
    """The 2q band edges of the period word, sorted ascending.

    The sites are visited as 0, q-1, 1, q-2, ..., so every ring neighbour of
    a site sits at most two rows away and both the periodic (corner +1) and
    the antiperiodic (corner -1) matrix have bandwidth 2.  For q = 2 the two
    ring bonds join the same sites and add up to 1 + corner.
    """
    from scipy.linalg import eig_banded
    v = np.array([potentials[ch] for ch in word], dtype=float)
    q = len(v)
    if q == 1:
        return np.array([v[0] - 2.0, v[0] + 2.0])
    order = np.empty(q, dtype=np.intp)
    order[0::2] = np.arange((q + 1) // 2)
    order[1::2] = np.arange(q - 1, (q - 1) // 2, -1)
    row = np.empty(q, dtype=np.intp)
    row[order] = np.arange(q)
    a, b = row, np.roll(row, -1)
    lower, upper = np.maximum(a, b), np.minimum(a, b)
    edges = []
    for corner in (1.0, -1.0):
        ab = np.zeros((3, q))
        ab[0] = v[order]
        bond = np.ones(q)
        bond[-1] = corner
        np.add.at(ab, (lower - upper, upper), bond)
        edges.append(eig_banded(ab, lower=True, eigvals_only=True))
    return np.sort(np.concatenate(edges))


def band_spectrum(
    s: Substitution,
    letter: str,
    level: int,
    window: tuple[float, float] | None = None,
) -> BandSpectrum:
    """Bands {E : |tr T(S^level(letter), E)| <= 2}, inside the energy window if given.

    The sorted Floquet edges e_0 <= e_1 <= ... <= e_{2q-1} pair up as the q
    bands [e_0, e_1], [e_2, e_3], ...; with a window, each band is clipped to
    it and dropped if it misses it.  Without one nothing is clipped: by
    Gershgorin every edge lies in [min v - 2, max v + 2], so no window is
    needed to bound the spectrum.  A gap no wider than `CLOSED_GAP_TOL`
    is treated as closed: its two bands are reported as one and
    `closed_gaps` counts it.  This merge is the one approximation; every
    edge is an eigenvalue from a backward-stable banded solver, found in
    O(q^2) time and O(q) memory.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if window is not None and not window[1] > window[0]:
        raise ValueError(f"empty energy window {window}")
    lo, hi = window or (-np.inf, np.inf)
    word = s.iterate(letter, level)
    edges = _floquet_edges(word, s.alphabet.values)

    bands: list[list[float]] = []
    closed = 0
    for e_minus, e_plus in zip(edges[0::2], edges[1::2]):
        if e_plus < lo or e_minus > hi:
            continue
        left, right = max(float(e_minus), lo), min(float(e_plus), hi)
        if bands and left - bands[-1][1] <= CLOSED_GAP_TOL:
            bands[-1][1] = right
            closed += 1
        else:
            bands.append([left, right])

    return BandSpectrum(
        level=level,
        period_word=word,
        bands=tuple((a, b) for a, b in bands),
        total_measure=float(sum(b - a for a, b in bands)),
        closed_gaps=closed,
    )


@dataclass
class GordonReport:
    """Cube-recurrence data backing the absence-of-eigenvalues argument.

    A word u starting with a growing letter e with uuue in the language
    pushes through the substitution: every occurrence of S^k(uuue) yields
    |S^k(e)| cube positions of period n_k = |S^k(u)|, so the cube frequency
    at scale n_k stays above lambda / (C_LR * rho), with lambda the lower
    growth constant of e and rho the upper one of uuue.
    """

    u: str
    e: str
    levels: tuple[int, ...]
    n_k: tuple[int, ...]
    freq_lower_bound: float
    empirical_frequency: dict[int, float]
    bound_satisfied: bool
    sample_length: int


@dataclass
class GordonHypothesisMissing:
    """No cube uuue found within the searched depth (e.g. cube-free languages)."""

    searched_depth: int
    note: str = (
        "no word u with a growing first letter and uuu+first(u) in the language; "
        "an alternative route is palindrome recurrence"
    )


def _shifted(bits: np.ndarray, n: int) -> np.ndarray:
    """Rows whose bit i (bit i % 64 of word i // 64) is bit i + n of `bits`, 0 past the end."""
    q, r = divmod(n, 64)
    out = np.zeros_like(bits)
    w = bits.shape[-1] - q
    if w > 0:
        out[..., :w] = bits[..., q:] >> np.uint64(r)
        if r:
            out[..., : w - 1] |= bits[..., q + 1 :] << np.uint64(64 - r)
    return out


# the SWAR masks of `popcount`: alternate bits, bit pairs, nibbles, and the
# byte sum that multiplying by 0x01...01 gathers in the top byte
_M1, _M2, _M4, _H01 = map(
    np.uint64, (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def popcount(words: np.ndarray) -> int:
    """The number of set bits of a uint64 array, read in place of its bits.

    Each word counts its bits in pairs, then nibbles, then bytes (SWAR),
    and one multiplication wraps the byte counts into its top byte; numpy
    ops only, so every supported numpy takes the same path.
    """
    x = words >> np.uint64(1)
    x &= _M1
    x = words - x
    y = x >> np.uint64(2)
    y &= _M2
    x &= _M2
    x += y
    x += x >> np.uint64(4)
    x &= _M4
    x *= _H01
    x >>= np.uint64(56)
    return int(x.sum())


def letter_planes(codes: np.ndarray) -> np.ndarray:
    """Packed bit planes of the letter codes (`words.letter_codes`, bytes or
    `<u4`), one per code bit that varies: two positions agree on every plane
    exactly when they hold the same letter.  Bit j is read from byte j // 8
    of each code, through the byte view of the array."""
    varying = int(np.bitwise_or.reduce(codes) ^ np.bitwise_and.reduce(codes))
    bits = [j for j in range(varying.bit_length()) if varying >> j & 1]
    planes = np.zeros((len(bits), -(-len(codes) // 64) * 8), dtype=np.uint8)
    octets = codes.view(np.uint8)
    for plane, j in zip(planes, bits):
        packed = np.packbits(octets[j // 8 :: codes.itemsize] & (1 << j % 8), bitorder="little")
        plane[: len(packed)] = packed
    return planes.view("<u8")


def cube_positions(planes: np.ndarray, length: int, n: int) -> int:
    """Count positions i with sample[i:i+3n] a perfect cube of period n, 3n <= length.

    `planes` are the `letter_planes` of the sample's `length` letters.  Bit j
    of `agree` holds sample[j] == sample[j+n] for j < length - n, and a cube
    starts at i when bits i .. i+2n-1 all hold: ANDing `agree` with itself
    shifted by 1, 2, 4, ... and last by the rest of 2n reads that window in
    ceil(log2 2n) shifts, and `popcount` counts the starts on the words.
    """
    agree = ~np.bitwise_or.reduce(planes ^ _shifted(planes, n), axis=0)
    q, r = divmod(length - n, 64)
    agree[q + 1 :] = 0
    agree[q] &= np.uint64((1 << r) - 1)
    window = 1
    while window < 2 * n:
        step = min(window, 2 * n - window)
        agree &= _shifted(agree, step)
        window += step
    return popcount(agree)


def gordon_check(
    s: Substitution, report: ClassificationReport
) -> GordonReport | GordonHypothesisMissing:
    """Locate a cube witness and verify the analytic cube-frequency bound empirically.

    The report must carry the repetitivity constant, which only a certified
    minimal system gets.  The cube witness is searched in `report.factors`
    alone: `find_power` returns the shortest u, ties broken
    lexicographically, so every saturated set that holds u^3 u[0] finds the
    same u.  The bound is checked at the levels GORDON_LEVELS on the first
    GORDON_SAMPLE_LENGTH letters of the fixed point, bytes below U+0100 and
    code points otherwise.  Levels whose cubes (3 n_k letters) pass the
    sample are left out, and SubstitutionError is raised if all of them are.
    """
    if report.lr is None:
        raise SubstitutionError("needs the explicit repetitivity constant for coverage sizing")
    u = wd.find_power(report.factors, lambda w: w[0] in s.split.growing, 3)
    if u is None:
        return GordonHypothesisMissing(searched_depth=report.factor_depth)
    e = u[0]

    # the Perron eigenvalue of the reduced substitution, as the report found it
    theta = report.lr.growth.theta
    n_max = max(report.lr.growth.n_checked, max(GORDON_LEVELS))
    lam = growth_ratio_range(s, (e,), theta, n_max)[0]
    rho = growth_ratio_range(s, (u * 3 + e,), theta, n_max)[1]
    bound = lam / (report.lr.value * rho)

    n_k = tuple(map(s.lengths(u, max(GORDON_LEVELS)).__getitem__, GORDON_LEVELS))
    # a level whose cubes are longer than the sample is not checked
    fits = [(k, n) for k, n in zip(GORDON_LEVELS, n_k) if 3 * n <= GORDON_SAMPLE_LENGTH]
    if not fits:
        raise SubstitutionError(
            f"level {GORDON_LEVELS[0]} has n = {n_k[0]}, so its cubes pass the sample "
            f"of {GORDON_SAMPLE_LENGTH} letters"
        )
    sample = wd.letter_codes(iterate_prefix(s, report.certificate.letter, GORDON_SAMPLE_LENGTH))
    planes = letter_planes(sample)
    N = len(sample)
    empirical = {k: cube_positions(planes, N, n) / (N - 3 * n + 1) for k, n in fits}
    return GordonReport(
        u=u,
        e=e,
        levels=tuple(empirical),
        n_k=tuple(n for _, n in fits),
        freq_lower_bound=bound,
        empirical_frequency=empirical,
        bound_satisfied=all(f >= bound - GORDON_TOL for f in empirical.values()),
        sample_length=N,
    )

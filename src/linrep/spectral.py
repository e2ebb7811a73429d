"""Discrete Schrödinger operators over substitution potentials.

The operator acts on square-summable sequences by
(H u)(n) = u(n+1) + u(n-1) + v(n) u(n), where the potential v reads the
letters of a sequence through their real values.  Spectra of periodic
approximants (period word = a deep image of a letter) are computed from the
trace of the transfer-matrix product: an energy E belongs to the level-k
band set iff |tr T(S^k(e), E)| <= 2.  Shrinking total band measure across
levels is the desk-scale signature of a zero-measure Cantor limit.

Time convention: the transfer matrix of a word multiplies factors
right-to-left, the rightmost factor belonging to the first letter, so
T(uv, E) = T(v, E) @ T(u, E).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import words as wd
from .classify import YES, ClassificationReport
from .substitution import Substitution, reduced_substitution, perron_growth

FINITE_SECTION_CAP = 4096


def transfer_matrix(
    word: str, energy: float, potentials: Mapping[str, float], dtype=float
) -> np.ndarray:
    """Product of one-step transfer matrices [[E - v, -1], [1, 0]] over the word.

    Entries grow exponentially off the spectrum, so determinant checks at
    tight absolute tolerances should pass dtype=np.longdouble and keep the
    word short enough for the conditioning to allow them.
    """
    m = np.eye(2, dtype=dtype)
    one = np.asarray(1.0, dtype=dtype)
    for ch in word:
        x = np.asarray(energy - potentials[ch], dtype=dtype)
        m = np.array([[x, -one], [one, 0.0 * one]], dtype=dtype) @ m
    return m


def _traces_on_grid(word: str, energies: np.ndarray, potentials: Mapping[str, float]) -> np.ndarray:
    """tr T(word, E) for a whole grid of energies, vectorized over E."""
    a = np.ones_like(energies)
    b = np.zeros_like(energies)
    c = np.zeros_like(energies)
    d = np.ones_like(energies)
    for ch in word:
        x = energies - potentials[ch]
        a, b, c, d = x * a - c, x * b - d, a, b
    return a + d


@dataclass
class BandSpectrum:
    """Level-k periodic-approximant spectrum as disjoint closed energy bands."""

    level: int
    period_word: str
    bands: tuple[tuple[float, float], ...]
    total_measure: float
    possible_merging: bool
    window: tuple[float, float]
    grid_per_unit: int

    @property
    def band_count(self) -> int:
        return len(self.bands)


def default_window(s: Substitution, margin: float = 0.5) -> tuple[float, float]:
    values = [s.alphabet.value(ch) for ch in s.letters]
    return (min(values) - 2.0 - margin, max(values) + 2.0 + margin)


def band_spectrum(
    s: Substitution,
    letter: str,
    level: int,
    window: tuple[float, float] | None = None,
    grid_per_unit: int = 10**4,
    *,
    edge_tol: float = 1e-10,
    threads: int | None = None,
) -> BandSpectrum:
    """Bands {E : |tr T(S^level(letter), E)| <= 2} inside the energy window.

    Grid scan for sign changes of |tr| - 2 followed by bisection of every
    band edge to `edge_tol`.  When fewer bands than letters of the period
    word are found, gaps may have fallen between grid points and the result
    is flagged, never silently merged.
    """
    if window is None:
        window = default_window(s)
    lo, hi = window
    if not (hi > lo):
        raise ValueError(f"empty energy window {window}")
    word = s.iterate(letter, level)
    potentials = s.alphabet.values

    count = max(16, int(round((hi - lo) * grid_per_unit)) + 1)
    energies = np.linspace(lo, hi, count)
    with np.errstate(over="ignore", invalid="ignore"):
        if threads and threads > 1:
            chunks = np.array_split(energies, threads)
            with ThreadPoolExecutor(max_workers=threads) as pool:
                traces = np.concatenate(
                    list(pool.map(lambda es: _traces_on_grid(word, es, potentials), chunks))
                )
        else:
            traces = _traces_on_grid(word, energies, potentials)
    g = np.abs(traces) - 2.0
    inside = np.nan_to_num(g, nan=np.inf) <= 0.0

    # maximal runs of in-band grid points
    runs: list[tuple[int, int]] = []
    i = 0
    while i < count:
        if inside[i]:
            j = i
            while j + 1 < count and inside[j + 1]:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1

    def g_scalar(e: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            t = _traces_on_grid(word, np.array([e]), potentials)[0]
        if not np.isfinite(t):
            return np.inf
        return abs(t) - 2.0

    def refine(outside: float, inside_pt: float) -> float:
        a, b = outside, inside_pt
        while abs(b - a) > edge_tol:
            mid = 0.5 * (a + b)
            if g_scalar(mid) <= 0.0:
                b = mid
            else:
                a = mid
        return b

    bands: list[tuple[float, float]] = []
    for i, j in runs:
        left = energies[i] if i == 0 else refine(energies[i - 1], energies[i])
        right = energies[j] if j == count - 1 else refine(energies[j + 1], energies[j])
        if right - left > 2 * edge_tol:
            bands.append((float(left), float(right)))

    total = sum(b - a for a, b in bands)
    return BandSpectrum(
        level=level,
        period_word=word,
        bands=tuple(bands),
        total_measure=float(total),
        possible_merging=len(bands) < len(word),
        window=window,
        grid_per_unit=grid_per_unit,
    )


def finite_section_eigenvalues(
    word: str, potentials: Mapping[str, float], boundary: str = "dirichlet"
) -> np.ndarray:
    """Eigenvalues of the operator restricted to the word's sites, Dirichlet cut.

    Symmetric tridiagonal matrix with the letter values on the diagonal and
    unit hopping; eigenvalues sorted ascending.
    """
    if boundary != "dirichlet":
        raise ValueError(f"unsupported boundary {boundary!r}")
    n = len(word)
    if n == 0:
        raise ValueError("empty word")
    if n > FINITE_SECTION_CAP:
        raise ValueError(f"finite section capped at {FINITE_SECTION_CAP} sites, got {n}")
    diag = np.array([potentials[ch] for ch in word], dtype=float)
    if n == 1:
        return diag.copy()
    off = np.ones(n - 1)
    return eigh_tridiagonal(diag, off, eigvals_only=True)


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
    theta: float
    sample_length: int


@dataclass
class GordonHypothesisMissing:
    """No cube uuue found within the searched depth (e.g. cube-free languages)."""

    searched_depth: int
    note: str = (
        "no word u with a growing first letter and uuu+first(u) in the language; "
        "an alternative route is palindrome recurrence, see words.palindromes"
    )


def cube_positions(sample: np.ndarray, n: int) -> int:
    """Count positions i with sample[i:i+3n] a perfect cube of period n."""
    eq = sample[: len(sample) - n] == sample[n:]
    window = 2 * n
    if len(eq) < window:
        return 0
    csum = np.concatenate(([0], np.cumsum(eq, dtype=np.int64)))
    sums = csum[window:] - csum[:-window]
    return int(np.count_nonzero(sums == window))


def gordon_check(
    s: Substitution,
    report: ClassificationReport,
    factors: wd.FactorSet | None = None,
    *,
    levels: Sequence[int] = (1, 2, 3, 4, 5, 6),
    sample_length: int = 10**6,
    tolerance: float = 1e-3,
    search_depth: int = 48,
) -> GordonReport | GordonHypothesisMissing:
    """Locate a cube witness and verify the analytic cube-frequency bound empirically."""
    if report.minimal != YES:
        raise ValueError("gordon_check needs a certified minimal system")
    if report.lr is None:
        raise ValueError("gordon_check needs the explicit repetitivity constant")
    if factors is None:
        factors = report.factors
        if factors is None or factors.max_length < search_depth:
            factors = wd.factor_language(s, search_depth)
    growing = report.split.growing
    u = wd.find_power(factors, lambda w: w[0] in growing, 3)
    if u is None:
        return GordonHypothesisMissing(searched_depth=factors.max_length)
    e = u[0]

    reduced = reduced_substitution(s, report.split)
    growth = perron_growth(reduced, [e, u * 3 + e], n_max=max(report.lr.growth.n_checked, max(levels)))
    lam = min(s.word_image_length(e, n) / growth.theta**n for n in range(1, growth.n_checked + 1))
    rho = max(
        s.word_image_length(u * 3 + e, n) / growth.theta**n for n in range(1, growth.n_checked + 1)
    )
    bound = lam / (report.lr.value * rho)

    witness = report.certificate.letter
    sample_word = witness
    while len(sample_word) < sample_length:
        sample_word = s.apply(sample_word[:sample_length])
    sample_word = sample_word[:sample_length]
    codes = {ch: i for i, ch in enumerate(s.letters)}
    sample = np.frombuffer(
        bytes(codes[ch] for ch in sample_word), dtype=np.uint8
    )

    n_k = tuple(s.word_image_length(u, k) for k in levels)
    empirical: dict[int, float] = {}
    ok = True
    for k, n in zip(levels, n_k):
        total = len(sample) - 3 * n + 1
        if total <= 0:
            ok = False
            break
        freq = cube_positions(sample, n) / total
        empirical[k] = freq
        if freq < bound - tolerance:
            ok = False
    return GordonReport(
        u=u,
        e=e,
        levels=tuple(levels),
        n_k=n_k,
        freq_lower_bound=bound,
        empirical_frequency=empirical,
        bound_satisfied=ok,
        theta=growth.theta,
        sample_length=len(sample),
    )

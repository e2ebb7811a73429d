"""Substitution subshifts: minimality and linear repetitivity with certificates.

The library decides, for a substitution over a finite alphabet, whether the
generated two-sided subshift is minimal (equivalently: linearly repetitive)
and backs either answer with a machine-checkable certificate.  On top of the
classifier sit three applications: band spectra of the associated discrete
Schrödinger operators, transcendence-criterion premises for two-letter fixed
points, and locally recognizable 1-partitions for two-letter nonprimitive
systems.
"""

from .catalog import CATALOG, load
from .classify import (
    BGCertificate,
    BGCounterexample,
    ClassificationReport,
    LRBound,
    PeriodicityResult,
    analyze_bounded_blocks,
    bounded_gaps,
    classify,
    decide_minimality,
    is_periodic,
    lr_constant_bound,
)
from .numtheory import (
    ExpansionValue,
    StutterWitness,
    TranscendenceReport,
    check_conditions,
    detect_case,
    expansion_value,
    transcendence_report,
)
from .recognizer import (
    OnePartition,
    RecognitionRule,
    desubstitute,
    enumerate_one_partitions,
    recognition_rule,
    uniqueness_scan,
)
from .spectral import (
    BandSpectrum,
    GordonHypothesisMissing,
    GordonReport,
    band_spectrum,
    gordon_check,
)
from .substitution import (
    Alphabet,
    AlphabetSplit,
    GrowthEstimate,
    Substitution,
    SubstitutionError,
    bounded_letters,
    check_compatibility,
    is_primitive,
    iterate_prefix,
    perron_growth,
    reduced_substitution,
    validate,
)
from .words import (
    FactorSet,
    coverage_exact,
    factor_language,
    find_power,
    return_words,
)

__version__ = "0.1.0"

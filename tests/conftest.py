import pytest

import linrep as lr

CATALOG_NAMES = [
    "fibonacci",
    "thue-morse",
    "period-doubling",
    "remark1b",
    "remarkc",
    "minimal-nonprimitive",
    "minimal-nonprimitive-noaa",
    "stutter-separated",
    "stutter-doubled",
    "free",
    "periodic-ab",
]


@pytest.fixture(scope="session")
def catalog_subs():
    return {name: lr.load(name) for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def catalog_reports(catalog_subs):
    return {name: lr.classify(s) for name, s in catalog_subs.items()}


@pytest.fixture(scope="session")
def fib(catalog_subs):
    return catalog_subs["fibonacci"]


@pytest.fixture(scope="session")
def fib_factors(fib):
    return lr.factor_language(fib, 24)

import random
import string

import pytest

import linrep as lr
from linrep.substitution import Substitution, is_primitive

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

# the six systems of the classify-slow benchmark workload: iterates grow fast
# while new factors arrive slowly
CLASSIFY_SLOW_RULES = [
    {"0": "01001", "1": "1"},
    {"a": "baa", "b": "b"},
    {"a": "a", "b": "abbb"},
    {"a": "abc", "b": "bc", "c": "c"},
    {"a": "a", "b": "abba"},
    {"a": "abab", "b": "b"},
]


def sweep_rules() -> list[dict[str, str]]:
    """The 100 primitive random systems of the classify-sweep benchmark workload."""
    rng = random.Random(31337)
    seen, out = set(), []
    while len(out) < 100:
        letters = "abc"[: rng.choice([2, 3])]
        rules = {a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 5))) for a in letters}
        key = tuple(sorted(rules.items()))
        if key in seen or not is_primitive(Substitution.from_rules(rules)).primitive:
            continue
        seen.add(key)
        out.append(rules)
    return out


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


@pytest.fixture(scope="session")
def level_systems(catalog_subs):
    """The systems the integer-coded level walks are checked on: the catalog,
    the classify-slow systems, 400 seeded random systems over 2-3 letters,
    one over non-ASCII letters and one over 26 letters."""
    systems = [*catalog_subs.values(), *map(Substitution.from_rules, CLASSIFY_SLOW_RULES)]
    rng = random.Random(2121)
    for _ in range(400):
        letters = "abc"[: rng.randint(2, 3)]
        rules = {a: "".join(rng.choices(letters, k=rng.randint(1, 4))) for a in letters}
        systems.append(Substitution.from_rules(rules))
    systems.append(Substitution.from_rules({"α": "αβж", "β": "βα", "ж": "α"}))
    wide = string.ascii_lowercase
    systems.append(
        Substitution.from_rules({a: a + "".join(rng.choices(wide, k=rng.randint(1, 3))) for a in wide})
    )
    return systems

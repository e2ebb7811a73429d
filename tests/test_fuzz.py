"""The command contract under definitions near the schema.

Each drawn definition file goes through `cli.main` for analyze, spectrum,
partition and transcendence.  Whatever the input, the exit code is 0-4 (2
is argparse's usage error, the rest the codes `linrep.cli` documents), no
exception escapes `main`, an input error (exit 1) leaves exactly one
`error: ...` line on stderr, and a command that failed leaves no `--json`
file behind.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from linrep.cli import main

SYMBOLS = ["a", "b", "c", "d", "0", "é", "\n"]
FOREIGN = "z"
ODD_VALUES = [
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400,
    "1", True, None, [1], {"v": 1},
]
values = st.one_of(
    st.integers(-3, 3),
    st.floats(-10, 10, allow_nan=False),
    st.sampled_from(ODD_VALUES),
)


@st.composite
def definitions(draw):
    """A definition with 1-4 letters, valid or broken in one or two places.

    Half the draws have the partition and transcendence shape
    {a -> a u b v a, b -> b}, so that those commands get past their premises;
    otherwise the first letter's image has two letters or more, so that
    most draws grow.
    """
    if draw(st.booleans()):
        letters = ["a", "b"]
        side = st.text(alphabet="ab", max_size=3)
        rules = {"a": "a" + draw(side) + "b" + draw(side) + "a", "b": "b"}
    else:
        letters = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4, unique=True))
        word = st.text(alphabet=st.sampled_from(letters), min_size=1, max_size=6)
        rules = {a: draw(word) for a in letters}
        rules[letters[0]] += draw(word)
    definition = {"rules": rules}
    defects = st.sampled_from([
        "erasing", "foreign", "rule type", "key", "alphabet", "short alphabet",
        "duplicates", "flag type", "name", "coupling", "no rules", "not an object",
    ])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        defect = draw(defects)
        a = draw(st.sampled_from(letters))
        if defect == "erasing":
            rules[a] = ""
        elif defect == "foreign":
            rules[a] = str(rules[a]) + FOREIGN
        elif defect == "rule type":
            rules[a] = draw(st.sampled_from([0, None, [a], 1.5]))
        elif defect == "key":
            rules[a + a] = a
        elif defect in ("alphabet", "short alphabet", "duplicates"):
            entries = [{"symbol": x, "value": draw(values)} for x in letters]
            if defect == "short alphabet":
                entries.pop()
            if defect == "duplicates":
                entries = [{"symbol": x, "value": 1} for x in letters]
                definition["allow_duplicate_values"] = draw(st.booleans())
            definition["alphabet"] = entries
        elif defect == "flag type":
            definition["allow_duplicate_values"] = draw(st.sampled_from(["yes", 1, None]))
        elif defect == "name":
            definition["name"] = draw(st.sampled_from(["x", 3, None, ["n"]]))
        elif defect == "coupling":
            definition["potential_coupling"] = draw(values)
        elif defect == "no rules":
            definition["rules"] = draw(st.sampled_from([{}, None, "ab"]))
        else:
            definition = draw(st.sampled_from([[definition], 3, "rules"]))
            break
    return definition


@st.composite
def definition_bytes(draw):
    """A drawn definition as JSON bytes, now and then with a BOM, bytes that
    are not UTF-8, or cut short."""
    definition = draw(definitions())
    text = json.dumps(definition, ensure_ascii=draw(st.booleans()))
    data = text.encode()
    damage = draw(st.sampled_from([None, None, None, "bom", "not utf-8", "latin-1", "cut"]))
    if damage == "bom":
        data = b"\xef\xbb\xbf" + data
    elif damage == "not utf-8":
        i = draw(st.integers(0, len(data)))
        data = data[:i] + b"\xff" + data[i:]
    elif damage == "latin-1":
        data = text.encode("latin-1", errors="replace")
    elif damage == "cut":
        data = data[: draw(st.integers(0, len(data) - 1))]
    return data


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(definition_bytes(), st.data())
@settings(derandomize=True, max_examples=800, deadline=None)
def test_commands_keep_their_contract(data, draw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "definition.json"
        path.write_bytes(data)
        out = Path(tmp) / "out.json"
        word = draw.draw(st.text(alphabet=st.sampled_from("aaaabbbbcz"), max_size=16))
        partition = draw.draw(st.sampled_from(
            [["--prefix", str(draw.draw(st.integers(1, 60)))], ["--word", word]]
        ))
        commands = [
            (["analyze", str(path), "--json", str(out)], True),
            (["spectrum", str(path), "--level", str(draw.draw(st.integers(0, 3)))], False),
            (["partition", str(path), *partition, "--json", str(out)], True),
            (["transcendence", str(path), "--bits", str(draw.draw(st.integers(1, 256))),
              "--json", str(out)], True),
        ]
        for argv, writes_json in commands:
            code, _, err = _run(argv)
            assert code in {0, 1, 2, 3, 4}, (argv, code)
            if code == 1:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
                if writes_json:
                    assert not out.exists(), argv
            out.unlink(missing_ok=True)

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import linrep as lr
from linrep import catalog
from linrep import recognizer as rec
from linrep import words as wd
from linrep.cli import build_parser, main
from linrep.substitution import validate

from bruteforce import interior_cuts, window_desubstitute

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

# the catalog systems that pass the partition premises
PARTITION_SHAPES = [
    "minimal-nonprimitive",
    "minimal-nonprimitive-noaa",
    "stutter-doubled",
    "stutter-separated",
]


@pytest.fixture(scope="module")
def defs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("defs")
    catalog.export(directory)
    return directory


def test_analyze_fibonacci_exit_zero(defs, capsys):
    assert main(["analyze", str(defs / "fibonacci.json")]) == 0
    out = capsys.readouterr().out
    assert "minimal: yes" in out
    assert "linearly repetitive: yes" in out
    assert "aperiodic-up-to-depth" in out
    assert "repetitivity constant" in out


def test_analyze_compatibility_is_exact_at_depth_1(defs, capsys):
    # the check reads the letters, not a factor set of the given depth
    assert main(["analyze", str(defs / "fibonacci.json"), "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert (
        "language/subshift compatibility: holds-certified "
        "(letter 'a' recurs inside its power-3 image)"
    ) in out.splitlines()
    assert "compatibility with the two-sided subshift" not in out


def test_analyze_remark1b_report(defs, capsys):
    assert main(["analyze", str(defs / "remark1b.json")]) == 0
    out = capsys.readouterr().out
    assert "fails-certified" in out
    assert "minimal: no" in out


def test_analyze_remarkc_report(defs, capsys):
    assert main(["analyze", str(defs / "remarkc.json")]) == 0
    out = capsys.readouterr().out
    assert "minimal: no" in out
    assert "bounded-block-pump" in out


def test_analyze_certifies_past_a_long_block_orbit(capsys):
    # bounded letters on cycles of lengths 5, 7, 9, 11 and 13: the run
    # between two a's returns only after 45,045 steps, but it holds only
    # eternally single letters from the start, so its length 5 is the block
    # bound; the pairs of its 45,045 return words all have one length, and
    # their coverage fold stops at FOLD_ROUNDS
    assert main(["analyze", str(DATA / "cycles-45045.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "minimal: yes (letter 'a' with gap bound 6, block bound 5)" in lines
    caveat = (
        "caveat: repetitivity constant undecided: pair-coverage length undecided-at-depth: "
        "the coverage fold for 'abgnAHabgnwH' did not repeat within 1024 rounds"
    )
    assert caveat in lines


def test_analyze_certifies_past_independent_letter_cycles(capsys):
    # primitive, with growing-letter cycles of lengths 5, 7, 11 and 13: the
    # coverage fold's tuple for 'A' repeats only at round 10,015, but the
    # gap bound is the longest return word to 'A', from the return-word
    # chain; the pair coverage G still waits for the fold
    path = str(DATA / "kappa-lcm.json")
    assert main(["analyze", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "minimal: yes (letter 'A' with gap bound 66, block bound 0)" in lines
    assert "linearly repetitive: yes" in lines and "uniquely ergodic: yes" in lines
    caveat = (
        "caveat: repetitivity constant undecided: pair-coverage length undecided-at-depth: "
        "the coverage fold for 'AAeBeBeebhozebhozcceiieppe' did not repeat within 1024 rounds"
    )
    assert [x for x in lines if x.startswith("caveat:")] == [caveat]
    assert main(["spectrum", path, "--level", "2"]) == 0


def test_analyze_chain_capped_before_step_1(defs, tmp_path, monkeypatch, capsys):
    # thue-morse's chain writes 10 letters before its first return word:
    # past a cap of 8 there are no return words, so the gap bound is
    # undecided while minimality stays certified, and the core walk decides
    # periodicity as before
    monkeypatch.setattr(importlib.import_module("linrep.classify"), "DERIVATION_WORK", 8)
    out_json = tmp_path / "tm.json"
    assert main(["analyze", str(defs / "thue-morse.json"), "--json", str(out_json)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "minimal: yes (letter 'a' with gap bound undecided, block bound 0)" in lines
    assert "linearly repetitive: yes" in lines
    cap = "repetitivity constant undecided: return-word derivation wrote more than 8 letters"
    assert f"caveat: {cap}" in lines
    payload = json.loads(out_json.read_text())
    assert payload["minimal"]["status"] == "yes"
    cert = payload["minimal"]["certificate"]
    assert cert["kappa"] is None and cert["factor_depth"] is None
    assert "lr_bound" not in payload and cap in payload["depth_caveats"]


def test_analyze_undecided_exits_3(tmp_path, capsys):
    # the core of {a -> bb, b -> aa} is the two words a^n and b^n, and no
    # single periodic word tiles both
    path = tmp_path / "two-orbits.json"
    path.write_text(json.dumps({"name": "two-orbits", "rules": {"a": "bb", "b": "aa"}}))
    assert main(["analyze", str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "periodic: undecided-at-depth (depth 2)" in lines


def test_analyze_undecided_periodicity_names_its_cap(tmp_path, capsys):
    # primitive and certified minimal, but its chain of return-word
    # derivations writes more than DERIVATION_WORK letters, so the core walk
    # gives the bounded-depth verdict and a caveat names the cap
    path = DATA / "capped-6.json"
    out_json = tmp_path / "c6.json"
    assert main(["analyze", str(path), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "minimal: yes" in out
    assert "periodic: aperiodic-up-to-depth (depth 40)" in out
    caveat = (
        "periodicity from the core walk to depth 40: "
        "return-word derivation wrote more than 10000000 letters"
    )
    assert f"caveat: {caveat}\n" in out
    assert "periodicity undecided" not in out
    payload = json.loads(out_json.read_text())
    assert payload["periodic"] == {"status": "aperiodic-up-to-depth", "period": None, "depth": 40}
    assert caveat in payload["depth_caveats"]


def test_analyze_chain_decides_undecided_5(tmp_path, capsys):
    # certified minimal, and its chain of return-word derivations repeats
    # within DERIVATION_WORK, so no core walk runs and no caveat names a cap
    path = DATA / "undecided-5.json"
    out_json = tmp_path / "u5.json"
    assert main(["analyze", str(path), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "minimal: yes" in out
    assert "periodic: aperiodic-up-to-depth (depth 40)\n" in out
    assert "periodicity from the core walk" not in out
    payload = json.loads(out_json.read_text())
    assert payload["periodic"] == {"status": "aperiodic-up-to-depth", "period": None, "depth": 40}
    assert payload["depth_caveats"] == ["growth constants checked for n <= 30"]


def test_analyze_refutes_compatibility_of_a_slow_closure(tmp_path, capsys):
    # not minimal, and its depth-48 factor set saturates only at round 191;
    # the factors of length <= 3 that refute compatibility come from the
    # closure over letter images
    out_json = tmp_path / "w12.json"
    assert main(["analyze", str(DATA / "wide-compat-12.json"), "--json", str(out_json)]) == 0
    lines = capsys.readouterr().out.splitlines()
    line = "language/subshift compatibility: fails-certified (factor 'j' has no left extension)"
    assert line in lines
    assert "periodic: aperiodic-up-to-depth (depth 40)" in lines
    assert not any("did not saturate" in x for x in lines)
    payload = json.loads(out_json.read_text())
    assert payload["compatibility"] == {
        "status": "fails-certified",
        "detail": {"blocked_factor": "j", "side": "left"},
    }


def test_unsaturated_factor_set_is_an_input_error(defs, capsys, monkeypatch):
    # a word cap of 20 leaves the depth-48 factor set unsaturated, so the
    # power bound raises UnsaturatedFactorSetError; main maps it to one line
    monkeypatch.setattr(wd, "MAX_WORDS", 20)
    argv = ["partition", str(defs / "minimal-nonprimitive-noaa.json"), "--prefix", "300"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_analyze_growth_past_float_range_is_a_caveat(defs):
    # theta^n leaves the float range from n = 1474 for Fibonacci: the
    # repetitivity constant becomes undecided, and the run still exits 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "linrep.cli", "analyze", str(defs / "fibonacci.json"),
            "--nmax", "2000"]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stdout + child.stderr
    assert ("caveat: repetitivity constant undecided: |S^n(v)| / theta^n leaves the float "
            "range for n <= 2000 (theta = 1.61803398875)") in child.stdout


def test_analyze_wide_blocks_certified(tmp_path, capsys):
    # gap bound and pair coverage far beyond the old scanned depths (256):
    # the longest a-free factor is b^300, and b^300 a b^300 a b^299 is the
    # longest factor without the pair (a b^300)^2
    defn = {
        "name": "wide-blocks",
        "alphabet": [{"symbol": "a", "value": 1.0}, {"symbol": "b", "value": -1.0}],
        "rules": {"a": "a" + "b" * 300 + "a", "b": "b"},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(defn))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "minimal: yes (letter 'a' with gap bound 301, block bound 300)" in out
    assert "G=902" in out


def test_analyze_inconsistent_pump_is_an_input_error(tmp_path, capsys, monkeypatch):
    # a forged block pump whose run never grows: the JSON report cannot
    # draw its sample factor, and analyze fails with a typed error, not a
    # traceback
    lc = importlib.import_module("linrep.classify")  # the package attribute is the function

    def forged(s, **kwargs):
        pump = lc.BlockPump(
            seed=(None, "b", None), origin=("b", 0), cycle_length=1, cycle_margin=1,
            steps_to_cycle=0,
        )
        return lc.BlockAnalysis(bounded=False, max_block=None, pump=pump)

    monkeypatch.setattr(lc, "analyze_bounded_blocks", forged)
    path = tmp_path / "abaa.json"
    path.write_text(json.dumps(catalog.definition("minimal-nonprimitive")))
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert "pump failed to grow" in captured.err
    assert captured.out == "" and not out.exists()


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rules": {"a": "ab",}}')
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


@pytest.mark.parametrize(
    "payload",
    [
        '{"alphabet": [{"symbol": "a"}], "rules": {"a": "aa"}}',
        '{"rules": "abc"}',
        '{"rules": {"a": 5}}',
        '{"rules": {}}',
        "[1, 2]",
        '"abc"',
        '{"alphabet": [{"symbol": "a", "value": 0}], "rules": {"a": "aa"}, '
        '"potential_coupling": "x"}',
        '{"alphabet": [{"symbol": 5, "value": 0}], "rules": {"a": "aa"}}',
    ],
)
def test_analyze_malformed_structure(payload, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert main(["analyze", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_json_deterministic(defs, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["analyze", str(defs / "thue-morse.json"), "--json", str(out1)]) == 0
    assert main(["analyze", str(defs / "thue-morse.json"), "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("name", ["remark1b", "remarkc"])
def test_analyze_golden(name, defs, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(["analyze", str(defs / f"{name}.json"), "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text()) == json.loads((GOLDEN / f"{name}.json").read_text())
    assert out.read_text() == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(
            ["analyze", "fibonacci.json", "--nmax", "0"], "--nmax must be >= 1, got 0",
            id="analyze-nmax",
        ),
        pytest.param(
            ["analyze", "fibonacci.json", "--depth", "-3"], "--depth must be >= 1, got -3",
            id="analyze-depth",
        ),
        pytest.param(
            ["spectrum", "fibonacci.json", "--level", "-1"], "--level must be >= 0, got -1",
            id="spectrum-level",
        ),
        pytest.param(
            ["spectrum", "fibonacci.json", "--levels", "5", "3"],
            "--levels needs 0 <= FROM <= TO, got 5 3",
            id="spectrum-levels",
        ),
        pytest.param(
            ["partition", "minimal-nonprimitive.json", "--prefix", "0"],
            "--prefix must be >= 1, got 0",
            id="partition-prefix-zero",
        ),
        pytest.param(
            ["partition", "minimal-nonprimitive.json", "--prefix", "-4"],
            "--prefix must be >= 1, got -4",
            id="partition-prefix-negative",
        ),
        pytest.param(
            ["transcendence", "stutter-separated.json", "--bits", "0"],
            "--bits must be >= 1, got 0",
            id="transcendence-bits",
        ),
    ],
)
def test_out_of_range_flags_rejected(defs, tmp_path, capsys, argv, message):
    # each of these used to exit 0 with a meaningless result
    argv = [argv[0], str(defs / argv[1])] + argv[2:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_spectrum_free_single_band(defs, tmp_path, capsys):
    csv = tmp_path / "bands.csv"
    assert main(["spectrum", str(defs / "free.json"), "--level", "1", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "1 bands" in out
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "level,band_index,E_minus,E_plus"
    level, idx, lo, hi = rows[1].split(",")
    assert abs(float(lo) + 2) < 1e-7 and abs(float(hi) - 2) < 1e-7


def test_spectrum_inverted_window(defs, capsys):
    assert main(["spectrum", str(defs / "free.json"), "--window", "2", "-2"]) == 1


def test_spectrum_nonminimal_exit4(defs, capsys):
    assert main(["spectrum", str(defs / "remarkc.json"), "--level", "2"]) == 4
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "level 2" in captured.out


def test_spectrum_level_table(defs, capsys):
    assert main(["spectrum", str(defs / "fibonacci.json"), "--levels", "4", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("level ") == 3


@pytest.mark.parametrize("level", ["2", "6"])
def test_spectrum_level_and_levels_exclude_each_other(defs, capsys, level):
    # 6 is the level used when none is given, which an argparse default on
    # --level would let pass next to --levels
    argv = ["spectrum", str(defs / "fibonacci.json"), "--level", level, "--levels", "3", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --levels: not allowed with argument --level" in captured.err


def test_spectrum_window_clips(defs, tmp_path, capsys):
    csv = tmp_path / "bands.csv"
    argv = ["spectrum", str(defs / "free.json"), "--level", "3", "--csv", str(csv)]
    assert main(argv + ["--window", "-1", "1"]) == 0
    assert "8, 1 bands, total measure 2  [3 closed gaps]\n" in capsys.readouterr().out
    rows = csv.read_text().splitlines()
    assert rows[1:] == ["3,0,-1,1"]
    assert main(argv + ["--window", "2.5", "3"]) == 0
    assert "8, 0 bands, total measure 0\n" in capsys.readouterr().out
    assert csv.read_text() == "level,band_index,E_minus,E_plus\n"


def test_spectrum_closed_gaps_label(defs, capsys):
    assert main(["spectrum", str(defs / "thue-morse.json"), "--level", "7"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(" = 128, 66 bands, total measure 0.1589494091  [62 closed gaps]\n")


def test_closed_stdout_exits_quietly(defs):
    # -u makes the first print hit the closed pipe, as an unbuffered terminal would
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-u", "-m", "linrep.cli", "partition",
            str(defs / "minimal-nonprimitive.json"), "--prefix", "2500"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_partition_prefix(defs, capsys):
    assert main(["partition", str(defs / "minimal-nonprimitive.json"), "--prefix", "120"]) == 0
    out = capsys.readouterr().out
    assert "distinct interior cut-sets: 1" in out
    assert "preimage" in out


@pytest.mark.parametrize(
    "name,half_width",
    [
        ("minimal-nonprimitive", 3),
        ("minimal-nonprimitive-noaa", 5),
        ("stutter-doubled", 3),
        ("stutter-separated", 3),
    ],
)
def test_partition_prints_least_half_width(defs, capsys, name, half_width):
    assert main(["partition", str(defs / f"{name}.json"), "--prefix", "300"]) == 0
    out = capsys.readouterr().out
    assert f"half-width L = {half_width}; " in out
    assert "distinct interior cut-sets: 1" in out


def test_partition_long_power_deepens_factor_set(tmp_path, capsys):
    # {a -> (ab)^130 abba, b -> b} holds 'ab'^129, longer than any factor
    # set a power bound could read at depth 256; its half-width is the floor
    # 264 // 2, read from a factor set deepened from 48 to 264
    path = DATA / "long-power.json"
    out_json = tmp_path / "long-power.json"
    assert main(["partition", str(path), "--prefix", "1000", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("half-width L = 132; ")
    assert "distinct interior cut-sets: 1" in out
    s = lr.Substitution.from_rules(json.loads(path.read_text())["rules"])
    expected_out, payload = _expected_partition(s, lr.iterate_prefix(s, "a", 1000))
    assert out == expected_out
    assert json.loads(out_json.read_text()) == payload


def test_partition_long_prefix(defs, capsys):
    assert main(["partition", str(defs / "minimal-nonprimitive.json"), "--prefix", "3000"]) == 0
    assert "distinct interior cut-sets: 1" in capsys.readouterr().out


def test_partition_primitive_rejected(defs, capsys):
    assert main(["partition", str(defs / "fibonacci.json"), "--prefix", "50"]) == 1
    assert "nonprimitive two-letter shape" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, message",
    [
        ("remarkc", "requires certified minimality (got 'no')"),
        ("periodic-ab", "requires aperiodicity (periodicity status 'periodic')"),
    ],
)
def test_applications_report_one_premise_error(defs, capsys, name, message):
    # partition and transcendence check their premises in one gate
    path = str(defs / f"{name}.json")
    for argv in (["partition", path, "--prefix", "50"], ["transcendence", path]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv


def test_partition_foreign_word(defs, capsys):
    assert (
        main(["partition", str(defs / "minimal-nonprimitive.json"), "--word", "abcb"]) == 1
    )
    assert "foreign" in capsys.readouterr().err


def _expected_partition(s, target, rule=None):
    """The stdout and --json payload of `partition`, from the exhaustive
    enumerator and the rule's window scan."""
    if rule is None:
        report = lr.classify(s)
        rule = rec.recognition_rule(s, report.factors, report)
    parts = rec.enumerate_one_partitions(s, target)
    L = rule.half_width
    interior = interior_cuts(parts[0], L)
    lines = [
        f"half-width L = {L}; window set size {len(rule.windows)}",
        f"1-partitions: {len(parts)}; distinct interior cut-sets: "
        f"{len({interior_cuts(p, L) for p in parts})}",
        f"interior cuts: {list(interior)}",
    ]
    if len(target) > 4 * L + 2:
        preimage, offset = window_desubstitute(s.rules, target, rule)
        lines.append(f"preimage (from offset {offset}): {preimage}")
    payload = {
        "schema_version": "1",
        "depth_caveats": [
            f"window rule read from every factor of length {2 * L}; "
            "their 1-partitions agree at every center"
        ],
        "word_length": len(target),
        "half_width": L,
        "cut_positions": list(interior),
        "blocks": [list(parts[0].blocks[:50])],
        "partition_count": len(parts),
    }
    return "\n".join(lines) + "\n", payload


@pytest.mark.parametrize("name", ["minimal-nonprimitive", "stutter-separated"])
@pytest.mark.parametrize("source", ["prefix-200", "prefix-2500", "factor", "empty"])
def test_partition_output_matches_enumeration(defs, tmp_path, capsys, name, source):
    s = lr.load(name)
    a, _ = rec.shape_letters(s)
    if source.startswith("prefix-"):
        n = source.split("-")[1]
        target, flags = lr.iterate_prefix(s, a, int(n)), ["--prefix", n]
    else:
        target = lr.iterate_prefix(s, a, 400)[37:337] if source == "factor" else ""
        flags = ["--word", target]
    out = tmp_path / "partition.json"
    assert main(["partition", str(defs / f"{name}.json"), *flags, "--json", str(out)]) == 0
    stdout, payload = _expected_partition(s, target)
    captured = capsys.readouterr()
    assert captured.out == stdout and captured.err == ""
    assert json.loads(out.read_text()) == payload


def test_partition_non_factor_word(defs, tmp_path, capsys):
    # no iterate of {a -> abaa, b -> b} holds 'aaaa' or 'bb'; the second word
    # has 1-partitions, whose cuts no rule certifies, so the factor check
    # refuses both before any parse
    s = lr.load("minimal-nonprimitive")
    for word in ["aaaa", "bbbbbbabaababaa"]:
        assert bool(rec.enumerate_one_partitions(s, word)) == (word != "aaaa")
        out = tmp_path / "partition.json"
        argv = ["partition", str(defs / "minimal-nonprimitive.json"), "--word", word]
        assert main([*argv, "--json", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: word is not a factor of the language\n"
        assert not out.exists()


def test_partition_factor_windows_keep_their_output(defs, tmp_path, capsys):
    # 300 seeded windows of long iterates are factors: the check passes them,
    # and stdout and --json are the enumerator's and the rule's
    rng = random.Random(40)
    systems = {}
    for name in PARTITION_SHAPES:
        s = lr.load(name)
        report = lr.classify(s)
        rule = rec.recognition_rule(s, report.factors, report)
        systems[name] = s, rule, lr.iterate_prefix(s, rec.shape_letters(s)[0], 20000)
    out = tmp_path / "partition.json"
    for _ in range(300):
        name = rng.choice(PARTITION_SHAPES)
        s, rule, text = systems[name]
        n = rng.randint(1, 600)
        start = rng.randrange(len(text) - n)
        word = text[start : start + n]
        assert main(["partition", str(defs / f"{name}.json"), "--word", word,
                     "--json", str(out)]) == 0, (name, start, n)
        stdout, payload = _expected_partition(s, word, rule)
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (stdout, ""), (name, start, n)
        assert json.loads(out.read_text()) == payload


def test_partition_factor_without_a_partition(capsys):
    # 'ababb' lies strictly inside S(a) = (ab)^130 abba, yet no 1-partition
    # covers it, and the message says why
    assert main(["partition", str(DATA / "long-power.json"), "--word", "ababb"]) == 1
    captured = capsys.readouterr()
    message = "error: word admits no 1-partition: it lies strictly inside one S('a') block\n"
    assert (captured.out, captured.err) == ("", message)


def test_partition_long_power_windows(capsys):
    # windows of a few hundred letters of long-power, |S(a)| = 264 and
    # R(n) <= 4.6e6 n: the factor check desubstitutes them, where a prefix of
    # the fixed point that holds every factor of their length would not fit
    # in memory, and the output is the enumerator's
    path = DATA / "long-power.json"
    s = lr.Substitution.from_rules(json.loads(path.read_text())["rules"])
    report = lr.classify(s)
    rule = rec.recognition_rule(s, report.factors, report)
    text = lr.iterate_prefix(s, "a", 100000)
    rng = random.Random(264)
    for _ in range(5):
        n = rng.randint(300, 800)
        start = rng.randrange(len(text) - n)
        word = text[start : start + n]
        assert main(["partition", str(path), "--word", word]) == 0, (start, n)
        assert capsys.readouterr().out == _expected_partition(s, word, rule)[0]
    # one letter changed inside an S(a) block leaves the language
    word = text[:300].replace("abab", "abbb", 1)
    assert main(["partition", str(path), "--word", word]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: word is not a factor of the language\n")


@pytest.mark.parametrize("name", [*PARTITION_SHAPES, "long-power"])
def test_partition_preimage_matches_desubstitute(defs, capsys, name):
    # the preimage read from the forced parse is the one the rule's window
    # scan reads, at 30 prefixes up to 5,000 letters (3 for long-power, L = 132)
    if name == "long-power":
        path = DATA / "long-power.json"
        s = lr.Substitution.from_rules(json.loads(path.read_text())["rules"])
        prefixes = [600, 2345, 5000]
    else:
        path, s = defs / f"{name}.json", lr.load(name)
        prefixes = sorted(random.Random(name).sample(range(1, 5001), 29)) + [5000]
    report = lr.classify(s)
    rule = rec.recognition_rule(s, report.factors, report)
    a, _ = rec.shape_letters(s)
    shown = 0
    for n in prefixes:
        assert main(["partition", str(path), "--prefix", str(n)]) == 0
        lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("preimage")]
        target = lr.iterate_prefix(s, a, n)
        if len(target) > 4 * rule.half_width + 2:
            preimage, offset = window_desubstitute(s.rules, target, rule)
            assert lines == [f"preimage (from offset {offset}): {preimage}"], n
            shown += 1
        else:
            assert lines == [], n
    assert shown >= 3


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["spectrum"], ["partition", "--prefix", "10"], ["transcendence"]],
)
def test_every_command_reports_a_substitution_error_alike(tmp_path, capsys, argv):
    path = tmp_path / "still.json"
    path.write_text('{"rules": {"a": "a"}}')
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no letter has unbounded image growth")


def test_transcendence_separated(defs, tmp_path, capsys):
    out = tmp_path / "tr.json"
    code = main(
        ["transcendence", str(defs / "stutter-separated.json"), "--bits", "96", "--json", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "separated-run" in text
    payload = json.loads(out.read_text())
    assert payload["case"]["tag"] == "separated-run"
    assert payload["conditions"]["lengths_diverge"] == "yes"


def test_transcendence_doubled(defs, capsys):
    assert main(["transcendence", str(defs / "stutter-doubled.json"), "--bits", "96"]) == 0
    out = capsys.readouterr().out
    assert "doubled-start" in out
    assert "core ratio positive: yes (min 1" in out


def test_transcendence_primitive_message(defs, capsys):
    assert main(["transcendence", str(defs / "fibonacci.json")]) == 0
    assert "primitive case" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["stutter-separated", "stutter-doubled"])
def test_transcendence_refuses_a_depth_past_the_int_to_str_limit(defs, tmp_path, capsys, name):
    # both systems' tables pass 10^4300 at n = 9,012: a deeper run is refused
    # before it writes a file or prints a line, and the depth below keeps its run
    if getattr(sys, "get_int_max_str_digits", int)() != 4300:
        pytest.skip("the depths below sit at the default limit of 4,300 digits")
    out, dump = tmp_path / "tr.json", tmp_path / "digits.bin"
    argv = ["transcendence", str(defs / f"{name}.json"), "--json", str(out),
            "--dump-digits", str(dump)]
    assert main([*argv, "--depth", "9012"]) == 1
    captured = capsys.readouterr()
    message = ("error: --depth 9012 gives lengths of more than 4300 digits, "
               "past the interpreter's int-to-str limit\n")
    assert (captured.out, captured.err) == ("", message)
    assert not out.exists() and not dump.exists()
    assert main([*argv, "--depth", "9011"]) == 0
    lengths = json.loads(out.read_text())["lengths"]
    assert 10**4299 <= max(lengths[k][-1] for k in ("u", "v", "v_prime")) < 10**4300
    assert f"|U_n| -> {lengths['u'][-1]}," in capsys.readouterr().out


def test_transcendence_digit_dump(defs, tmp_path, capsys):
    dump = tmp_path / "digits.bin"
    code = main(
        [
            "transcendence",
            str(defs / "stutter-separated.json"),
            "--bits",
            "64",
            "--dump-digits",
            str(dump),
        ]
    )
    assert code == 0
    capsys.readouterr()
    data = dump.read_bytes()
    assert len(data) >= 72
    assert set(data) <= {0, 1}
    assert data[:4] == bytes([0, 1, 0, 0])  # fixed point starts 0100...


def test_transcendence_digit_dump_refuses_a_digit_above_255(tmp_path, capsys):
    # 300 is a digit in base 1000 but does not fit in the dump's one byte
    defn = {
        "name": "wide-digit",
        "alphabet": [{"symbol": "0", "value": 0}, {"symbol": "1", "value": 300}],
        "rules": {"0": "0100", "1": "1"},
    }
    path = tmp_path / "wide-digit.json"
    path.write_text(json.dumps(defn))
    dump, out = tmp_path / "digits.bin", tmp_path / "tr.json"
    argv = ["transcendence", str(path), "--base", "1000", "--dump-digits", str(dump)]
    assert main([*argv, "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --dump-digits writes one byte per digit; letter values must be below 256\n"
    )
    assert not dump.exists() and not out.exists()
    assert main(argv[:4]) == 0
    assert "value (160 bits, base 1000): 0.000300000000300" in capsys.readouterr().out


def test_catalog_list(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "fibonacci: a->ab, b->a" in out


def test_catalog_export_revalidates(tmp_path):
    paths = catalog.export(tmp_path)
    assert len(paths) == len(catalog.names())
    for p in paths:
        report = validate(json.loads(p.read_text()))
        assert report.substitution.name == p.stem


@pytest.mark.parametrize("base", ["0", "1", "-2"])
def test_base_below_two_rejected(defs, capsys, base):
    # these used to fail later, on a letter value that is no digit in that base
    argv = ["transcendence", str(defs / "stutter-separated.json"), "--base", base]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --base must be >= 2, got {base}\n"


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_leaves_scipy_unloaded_until_an_eigen_solve():
    child = _run_python(
        "import sys\n"
        "import linrep, linrep.cli\n"
        "print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
        "spec = linrep.band_spectrum(linrep.load('fibonacci'), 'a', 4)\n"
        "print(spec.band_count, 'scipy' in sys.modules)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["True False", "8 True"]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_successive_calls_share_no_arguments(defs, tmp_path, capsys):
    report = tmp_path / "report.json"
    fib = str(defs / "fibonacci.json")
    assert main(["analyze", fib, "--json", str(report)]) == 0
    first = capsys.readouterr().out
    report.unlink()
    assert main(["analyze", fib]) == 0
    assert capsys.readouterr().out == first
    assert not report.exists()

    csv = tmp_path / "bands.csv"
    assert main(["spectrum", fib, "--level", "5", "--csv", str(csv)]) == 0
    capsys.readouterr()
    csv.unlink()
    assert main(["spectrum", fib, "--level", "5"]) == 0
    again = capsys.readouterr().out
    assert not csv.exists()
    fresh = _run_python(
        f"import sys; from linrep.cli import main; sys.exit(main(['spectrum', {fib!r}, '--level', '5']))"
    )
    assert fresh.returncode == 0, fresh.stderr
    assert again == fresh.stdout


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_broken_pipe_closes_its_devnull_descriptor():
    # a real descriptor is needed for the handler's dup2, which pytest's
    # captured stdout does not have, so the check runs in a child process
    child = _run_python(
        "import io, os, sys\n"
        "from linrep.cli import main\n"
        "class ClosedPipe(io.StringIO):\n"
        "    def __init__(self, fd):\n"
        "        super().__init__()\n"
        "        self.fd = fd\n"
        "    def write(self, text):\n"
        "        raise BrokenPipeError\n"
        "    def fileno(self):\n"
        "        return self.fd\n"
        "sink = ClosedPipe(os.open(os.devnull, os.O_WRONLY))\n"
        "sys.stdout = sink\n"
        "codes = [main(['catalog'])]\n"
        "before = len(os.listdir('/proc/self/fd'))\n"
        "codes += [main(['catalog']) for _ in range(5)]\n"
        "after = len(os.listdir('/proc/self/fd'))\n"
        "sys.stdout = sys.__stdout__\n"
        "print(codes, after - before)\n"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[1, 1, 1, 1, 1, 1] 0\n"


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_non_string_name_is_an_input_error(tmp_path, capsys):
    # the reduced substitution is named after the system, so a name that is
    # no string failed deep inside analyze
    path = tmp_path / "named.json"
    path.write_text('{"name": 5, "rules": {"a": "ab", "b": "a"}}')
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "'name' must be a string" in captured.err


def test_allow_duplicate_values_must_be_a_json_boolean(tmp_path, capsys):
    # the string "false" is not false: it no longer reads as permission
    path = tmp_path / "dupes.json"
    path.write_text(
        '{"rules": {"a": "ab", "b": "a"}, "allow_duplicate_values": "false", '
        '"alphabet": [{"symbol": "a", "value": 1}, {"symbol": "b", "value": 1}]}'
    )
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "'allow_duplicate_values' must be true or false" in captured.err


@pytest.mark.parametrize(
    "alphabet, coupling, message",
    [
        ('"nan"', 1, "a real 'value'"),
        ('"inf"', 1, "a real 'value'"),
        ("NaN", 1, "letter values must be finite"),
        ("1e300", 1e300, "letter values must be finite"),
    ],
    ids=["nan-string", "inf-string", "json-nan", "coupling-overflow"],
)
def test_non_finite_values_are_input_errors(tmp_path, capsys, alphabet, coupling, message):
    # the band-edge solver refuses infs and NaNs, so spectrum must not reach
    # it; a string is no number at all, whatever it spells
    path = tmp_path / "values.json"
    path.write_text(
        f'{{"rules": {{"a": "ab", "b": "a"}}, "potential_coupling": {coupling}, '
        f'"alphabet": [{{"symbol": "a", "value": {alphabet}}}, {{"symbol": "b", "value": 0}}]}}'
    )
    assert main(["spectrum", str(path), "--level", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert message in captured.err


def test_boolean_and_string_values_are_input_errors(tmp_path, capsys):
    # true read as 1.0 and "2.5" as 2.5, and spectrum went on to print bands
    path = tmp_path / "values.json"
    path.write_text(
        '{"rules": {"a": "ab", "b": "a"}, "alphabet": '
        '[{"symbol": "a", "value": true}, {"symbol": "b", "value": "2.5"}]}'
    )
    assert main(["spectrum", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "a real 'value'" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{defs}/fibonacci.json", "--json", "{tmp}/missing/out.json"],
        ["spectrum", "{defs}/fibonacci.json", "--level", "2", "--csv", "{tmp}/missing/out.csv"],
        ["transcendence", "{defs}/stutter-separated.json", "--json", "{tmp}/missing/tr.json"],
        ["transcendence", "{defs}/stutter-separated.json", "--dump-digits", "{tmp}/missing/d"],
        ["catalog", "--export", "{tmp}/taken"],
    ],
    ids=["analyze-json", "spectrum-csv", "transcendence-json", "dump-digits", "catalog-export"],
)
def test_unwritable_output_path_is_an_input_error(defs, tmp_path, capsys, argv):
    # a missing directory, or an export directory that is an existing file
    (tmp_path / "taken").write_text("")
    assert main([a.format(defs=defs, tmp=tmp_path) for a in argv]) == 1
    assert _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{defs}/fibonacci.json", "--json", "{tmp}/missing/out.json"],
        ["partition", "{defs}/minimal-nonprimitive.json", "--prefix", "200", "--json", "{tmp}/missing/p.json"],
        ["transcendence", "{defs}/stutter-separated.json", "--json", "{tmp}/missing/tr.json"],
        ["transcendence", "{defs}/stutter-separated.json", "--dump-digits", "{tmp}/missing/d"],
    ],
    ids=["analyze", "partition", "transcendence", "dump-digits"],
)
def test_unwritable_output_file_prints_no_report(defs, tmp_path, capsys, argv):
    # the file is written before the report is printed, so a failed run
    # leaves no complete-looking report on stdout
    assert main([a.format(defs=defs, tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert "No such file or directory" in captured.err


# every kind of output file, with {out} for its path
OUTPUT_FILE_ARGV = [
    ["analyze", "{defs}/fibonacci.json", "--json", "{out}"],
    ["partition", "{defs}/minimal-nonprimitive.json", "--prefix", "200", "--json", "{out}"],
    ["transcendence", "{defs}/stutter-separated.json", "--json", "{out}"],
    ["transcendence", "{defs}/stutter-separated.json", "--dump-digits", "{out}"],
    ["spectrum", "{defs}/fibonacci.json", "--level", "3", "--csv", "{out}"],
]
OUTPUT_FILE_IDS = ["analyze-json", "partition-json", "transcendence-json", "dump-digits",
                   "spectrum-csv"]


def _run_to(defs, argv, out, capsys):
    # the exit code and captured streams of a run writing its file to `out`
    code = main([a.format(defs=defs, out=out) for a in argv])
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv", OUTPUT_FILE_ARGV, ids=OUTPUT_FILE_IDS)
def test_existing_output_file_is_overwritten_to_a_fresh_run(defs, tmp_path, capsys, argv):
    # the file is overwritten in place and then trimmed: a longer old file
    # ends with the bytes that a run to a new path writes, and nothing after
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    old.write_bytes(b"x" * 100_000)
    assert _run_to(defs, argv, fresh, capsys) == _run_to(defs, argv, old, capsys)
    assert old.read_bytes() == fresh.read_bytes() and 0 < old.stat().st_size < 100_000


@pytest.mark.parametrize("argv", OUTPUT_FILE_ARGV, ids=OUTPUT_FILE_IDS)
def test_symlinked_output_path_writes_through_the_link(defs, tmp_path, capsys, argv):
    fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"x" * 100_000)
    link.symlink_to(target)
    assert _run_to(defs, argv, fresh, capsys) == _run_to(defs, argv, link, capsys)
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()


def test_csv_to_dev_null(defs, capsys):
    # a character device is written without a trim, which it would refuse
    assert main(["spectrum", str(defs / "fibonacci.json"), "--level", "4", "--csv", os.devnull]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", OUTPUT_FILE_ARGV, ids=OUTPUT_FILE_IDS)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_path_gives_the_open_error(defs, tmp_path, capsys, argv, where):
    # the one error line carries the message that open(path, "w") gives
    out = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
    with pytest.raises(OSError) as exc:
        open(out, "w")
    code, captured = _run_to(defs, argv, out, capsys)
    assert code == 1 and captured.err == f"error: {exc.value}\n"
    # spectrum prints its levels before it writes the CSV; the others print nothing
    assert (captured.out == "") == (argv[0] != "spectrum")


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["spectrum", "--level", "2"], ["partition", "--prefix", "50"], ["transcendence"]],
    ids=["analyze", "spectrum", "partition", "transcendence"],
)
def test_undecodable_definition_is_an_input_error(tmp_path, capsys, argv):
    # a byte 0xFF starts no UTF-8 sequence; the decode error ended three of
    # the commands in a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"rules": {"a": "ab", "b": "a"}}')
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and _one_error_line(captured.err)
    assert captured.err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("name", ["fibonacci", "minimal-nonprimitive"])
def test_definition_with_a_byte_order_mark(defs, tmp_path, capsys, name):
    # RFC 8259 lets a reader skip a leading byte-order mark, which some
    # editors write; such a file failed as malformed JSON at line 1, column 1
    plain = defs / f"{name}.json"
    marked = tmp_path / f"{name}.json"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    runs = []
    for path in (plain, marked):
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        runs.append((capsys.readouterr(), out.read_text()))
    assert runs[0] == runs[1]
    assert runs[0][0].err == ""


def test_definition_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # JSON text is UTF-8 whatever the locale; Greek letters failed to load
    # where the locale's encoding is ASCII
    path = tmp_path / "greek.json"
    path.write_bytes('{"rules": {"α": "αβ", "β": "α"}}'.encode("utf-8"))
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONIOENCODING="utf-8")
    argv = [sys.executable, "-m", "linrep.cli", "analyze", str(path)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stderr == "" and "minimal: yes" in child.stdout


def test_partition_and_transcendence_build_no_repetitivity_constant(defs, tmp_path, monkeypatch):
    # only the Schroedinger audits read the constant; the two applications
    # run on the certificate's premises alone, whether they pass or fail
    module = importlib.import_module("linrep.classify")
    calls = []
    bound = module.lr_constant_bound
    monkeypatch.setattr(module, "lr_constant_bound", lambda *a: calls.append(a) or bound(*a))
    shapes = 0
    for name in catalog.names():
        try:
            rec.shape_letters(lr.load(name))
        except rec.ShapeError:
            continue
        path = str(defs / f"{name}.json")
        main(["partition", path, "--prefix", "200", "--json", str(tmp_path / "p.json")])
        main(["partition", path, "--word", "a", "--json", str(tmp_path / "p.json")])
        main(["transcendence", path, "--json", str(tmp_path / "t.json")])
        shapes += 1
    assert shapes == 7 and calls == []

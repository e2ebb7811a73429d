"""Command-line surface.

Subcommands: analyze (classification report), spectrum (periodic-approximant
bands as CSV), partition (1-partition cuts and preimage), transcendence
(stutter premises and expansion value), catalog (list/export named
definitions).

Exit codes: 0 decided, 1 input error or stdout closed by the reader,
3 periodicity undecided-at-depth (minimality is always decided), 4 spectrum
requested for a system without a minimality certificate (computed anyway).
Input errors print one `error: ...` line on stderr: `main` maps to it every
`SubstitutionError` a command raises and every `OSError` but a closed stdout
(an output path that cannot be written); a command adds its own clause only
to prefix a message or to map another type.  `analyze`, `partition` and
`transcendence` write their output files before they print, so a run whose
file cannot be written prints nothing on stdout; `spectrum` prints each
level as it is solved and writes `--csv` last.
Every output file goes through `_write`, which overwrites an existing file in
place and then trims it to the new length: the bytes are those a truncating
open leaves, but the old blocks are not freed and allocated again, which on
ext4 mounted with `discard` costs more than ten times the write of a report.
Identical inputs and flags produce byte-identical outputs; reports carry the
effective parameter values instead of timestamps.  The argument parser is
built once per process and reused by every `main` call; scipy is loaded only
when a command first solves a band-edge eigenproblem (`spectrum`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from pathlib import Path

from . import catalog as cat
from . import numtheory as nt
from . import recognizer as rec
from . import words as wd
from .classify import PERIODIC, UNDECIDED, YES, classify, decide_minimality
from .spectral import band_spectrum
from .substitution import (
    Substitution,
    SubstitutionError,
    iterate_prefix,
    prune_to_reachable,
    validate,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write(path: str, data: bytes) -> None:
    """Write `data` to `path`, created if missing, overwritten in place if not.

    No `O_TRUNC`: every byte is written over the old ones, and only then is a
    regular file trimmed to `len(data)`; a device or a FIFO (`/dev/null`,
    `/dev/stdout`) is written without a trim.  An unwritable path raises the
    `OSError` that `open(path, "w")` raises."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_json(path: str, payload: dict) -> None:
    # ASCII: json.dumps escapes every other character
    _write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii"))


def _load(path: str) -> tuple[Substitution, list[str]]:
    """The validated substitution of a definition file, pruned to the
    letters its witness reaches, and a note for each change made.  The
    file is read as UTF-8, the encoding JSON specifies, whatever the locale;
    a leading byte-order mark is skipped, as RFC 8259 allows a reader to."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise SubstitutionError(f"cannot read {path}: {exc}") from exc
    try:
        definition = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SubstitutionError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    report = validate(definition)
    notes = []
    s = report.substitution
    if not s.split.candidates:
        s = prune_to_reachable(s, report.witness)
        notes.append(
            f"alphabet pruned to letters reachable from {report.witness!r}: "
            f"{''.join(s.letters)}"
        )
    return s, notes


def cmd_analyze(args: argparse.Namespace) -> int:
    s, notes = _load(args.definition)
    report = classify(s, depth=args.depth, growth_nmax=args.nmax)
    if args.json:
        payload = report.to_json_dict()
        payload["depth_caveats"] = notes + payload["depth_caveats"]
        payload["parameters"] = {"depth": args.depth, "nmax": args.nmax}
        _write_json(args.json, payload)
    rules = ", ".join(f"{a}->{s.rules[a]}" for a in s.letters)
    print(f"substitution {s.name or '?'}: {rules}")
    for note in notes:
        print(f"note: {note}")
    print(f"growing letters: {''.join(sorted(s.split.growing)) or '-'}"
          f"   bounded letters: {''.join(sorted(s.split.bounded)) or '-'}")
    print(f"language/subshift compatibility: {report.compatibility.status}"
          + _compat_note(report))
    print(f"primitive: {'yes' if report.primitive.primitive else 'no'}"
          + (f" (power {report.primitive.power})" if report.primitive.primitive else ""))
    print(f"minimal: {report.minimal}" + _minimal_note(report))
    print(f"linearly repetitive: {report.linearly_repetitive}")
    ue_note = "" if report.minimal == YES else " (not implied either way without minimality)"
    print(f"uniquely ergodic: {report.uniquely_ergodic}{ue_note}")
    p = report.periodicity
    if p.status == PERIODIC:
        print(f"periodic: yes (period {p.period!r}, detected at length {p.depth})")
    else:
        print(f"periodic: {p.status} (depth {p.depth})")
    if report.lr is not None:
        print(
            f"repetitivity constant: {report.lr.value:.6g} "
            f"(G={report.lr.G}, theta={report.lr.growth.theta:.12g}, "
            f"lambda={report.lr.growth.lambda_v:.6g}, rho={report.lr.growth.rho_v:.6g})"
        )
    for caveat in report.depth_caveats:
        print(f"caveat: {caveat}")
    return 3 if report.periodicity.status == UNDECIDED else 0


def _compat_note(report) -> str:
    d = report.compatibility.detail
    if report.compatibility.status == "fails-certified":
        return f" (factor {d['blocked_factor']!r} has no {d['side']} extension)"
    return f" (letter {d['letter']!r} recurs inside its power-{d['power']} image)"


def _minimal_note(report) -> str:
    if report.certificate is not None:
        c = report.certificate
        kappa = "undecided" if report.kappa is None else report.kappa
        return f" (letter {c.letter!r} with gap bound {kappa}, block bound {c.bblock_bound})"
    return f" ({report.counterexample.kind})"


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.levels is not None and not 0 <= args.levels[0] <= args.levels[1]:
        return _fail("--levels needs 0 <= FROM <= TO, got {} {}".format(*args.levels))
    s, _ = _load(args.definition)
    window = None
    if args.window is not None:
        lo, hi = args.window
        if not (hi > lo):
            return _fail(f"inverted or empty energy window [{lo}, {hi}]")
        window = (lo, hi)
    decision = decide_minimality(s)
    letter = decision.certificate.letter if decision.certificate else min(s.split.growing)

    if args.levels is not None:
        levels = list(range(args.levels[0], args.levels[1] + 1))
    else:
        levels = [6 if args.level is None else args.level]
    rows = []
    for k in levels:
        spec = band_spectrum(s, letter, k, window=window)
        rows.append(spec)
        merged = f"  [{spec.closed_gaps} closed gaps]" if spec.closed_gaps else ""
        print(
            f"level {k}: period |{spec.period_word[:24]}{'...' if len(spec.period_word) > 24 else ''}|"
            f" = {len(spec.period_word)}, {spec.band_count} bands,"
            f" total measure {spec.total_measure:.10g}{merged}"
        )
    if args.csv:
        lines = ["level,band_index,E_minus,E_plus"]
        for spec in rows:
            for i, (lo, hi) in enumerate(spec.bands):
                lines.append(f"{spec.level},{i},{lo:.17g},{hi:.17g}")
        _write(args.csv, ("\n".join(lines) + "\n").encode("ascii"))
    if decision.status != YES:
        print(
            f"warning: system is not certified minimal (status {decision.status!r}); "
            "bands describe the chosen periodic word only",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    s, _ = _load(args.definition)
    try:
        a, b = rec.shape_letters(s)
        report = classify(s)
        # the rule's first check reads the factors of length 2 * (|S(a)| // 2)
        floor = wd.factor_language(s, 2 * (len(s.rules[a]) // 2))
        rule = rec.recognition_rule(s, floor, report)
    except rec.ShapeError as exc:
        return _fail(f"requires nonprimitive two-letter shape: {exc}")
    if args.word is not None:
        target = args.word
        foreign = set(target) - set(s.letters)
        if foreign:
            return _fail(f"word uses foreign symbols {sorted(foreign)}")
        # a certified check: desubstitution down to a factor of S(a)
        if not rec.is_factor(s, target):
            return _fail("word is not a factor of the language")
    else:
        target = iterate_prefix(s, a, args.prefix)
    # the rule has certified that S(a) begins and ends with a, so every
    # 1-partition is a forced parse
    parses = rec.front_parses(s.rules[a], b, target)
    if not parses:
        # a factor with no 1-partition lies inside one S(a) block (`rec.is_factor`)
        return _fail(f"word admits no 1-partition: it lies strictly inside one S({a!r}) block")
    L = rule.half_width
    first = parses[0]
    cuts = list(rec.interior_cuts(first, L, len(target)))
    preimage = None
    if len(target) > 4 * L + 2:
        # on a factor the parse's interior cuts are the rule's (`recognition_rule`)
        preimage = rec.preimage(a, b, cuts)
        offset = cuts[0]
    if args.json:
        payload = {
            "schema_version": "1",
            "depth_caveats": [
                f"window rule read from every factor of length {2 * L}; "
                "their 1-partitions agree at every center"
            ],
            "word_length": len(target),
            "half_width": L,
            "cut_positions": cuts,
            "blocks": [[target[c1:c2] for c1, c2 in zip(first, first[1:51])]],
            "partition_count": len(parses),
        }
        _write_json(args.json, payload)
    print(f"half-width L = {L}; window set size {len(rule.windows)}")
    print(f"1-partitions: {len(parses)}; distinct interior cut-sets: "
          f"{len({rec.interior_cuts(p, L, len(target)) for p in parses})}")
    print(f"interior cuts: {cuts}")
    if preimage is not None:
        print(f"preimage (from offset {offset}): {preimage}")
    return 0


def cmd_transcendence(args: argparse.Namespace) -> int:
    try:
        s, _ = _load(args.definition)
        if len(s.letters) != 2:
            return _fail("requires a two-letter substitution")
        report = classify(s)
        if report.primitive.primitive:
            print(
                "primitive case: already covered by the Allouche-Zamboni primitive "
                "criterion; not analyzed here"
            )
            return 0
        tr = nt.transcendence_report(s, report, depth=args.depth, bits=args.bits, base=args.base)
        # the tables are printed in decimal; 0 means no int-to-str limit
        limit = getattr(sys, "get_int_max_str_digits", int)()
        w = tr.witness
        if limit and max(w.u_lengths[-1], w.v_lengths[-1], w.v_prime_lengths[-1]) >= 10**limit:
            return _fail(f"--depth {args.depth} gives lengths of more than {limit} digits, "
                         "past the interpreter's int-to-str limit")
        if args.dump_digits and max(tr.digit_letter_map.values()) > 255:
            return _fail("--dump-digits writes one byte per digit; letter values must be below 256")
    except ValueError as exc:
        return _fail(str(exc))
    if args.dump_digits:
        _write(args.dump_digits, bytes(tr.digits))  # one byte per digit
    if args.json:
        _write_json(args.json, tr.to_json_dict())

    if w.case_tag == nt.CASE_SEPARATED:
        shape = f"{w.zero} {w.one}^{w.k} {w.zero} w {w.zero}"
    else:
        shape = f"{w.zero} {w.zero} w {w.zero}"
    print(f"case: {w.case_tag} ({shape}), k={w.k}, w={w.w!r}, prefix p={w.p!r}")
    u, v, v_prime = (table[-1] for table in (w.u_lengths, w.v_lengths, w.v_prime_lengths))
    print(f"depth {w.depth}: |U_n| -> {u}, |V_n| -> {v}, |V'_n| -> {v_prime}")
    c = tr.conditions
    print(f"lengths diverge: {c.lengths_diverge}")
    print(f"prefix ratio bounded: {c.prefix_ratio_bounded} (max {c.max_prefix_ratio:.6g})")
    print(f"core ratio positive: {c.core_ratio_positive} (min {c.min_core_ratio:.6g})")
    print(f"value ({tr.value.bits} bits, base {tr.value.base}): {tr.value.decimal}")
    print(tr.attribution)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.export:
        paths = cat.export(args.export)
        for p in paths:
            print(p)
        return 0
    for name in cat.names():
        d = cat.definition(name)
        rules = ", ".join(f"{k}->{v}" for k, v in sorted(d["rules"].items()))
        print(f"{name}: {rules}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrep",
        description="substitution subshifts: classification, spectra, partitions, expansions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a substitution definition")
    p.add_argument("definition")
    p.add_argument("--depth", type=int, default=16)
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("spectrum", help="periodic-approximant band spectrum")
    p.add_argument("definition")
    # no default on the group, or an explicit --level 6 would pass next to --levels
    group = p.add_mutually_exclusive_group()
    group.add_argument("--level", type=int)
    group.add_argument("--levels", type=int, nargs=2, metavar=("FROM", "TO"))
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--csv", metavar="OUT")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("partition", help="1-partition cuts and preimage")
    p.add_argument("definition")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--prefix", type=int)
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("transcendence", help="stutter premises and expansion value")
    p.add_argument("definition")
    p.add_argument("--depth", type=int, default=32)
    p.add_argument("--bits", type=int, default=160)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--json", metavar="OUT")
    p.add_argument("--dump-digits", metavar="OUT")
    p.set_defaults(func=cmd_transcendence)

    p = sub.add_parser("catalog", help="list or export named definitions")
    p.add_argument("--export", metavar="DIR")
    p.set_defaults(func=cmd_catalog)
    return parser


# the least value each numeric flag accepts, whichever command has it
FLAG_MINIMA = {"depth": 1, "nmax": 1, "level": 0, "prefix": 1, "bits": 1, "base": 2}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for name, low in FLAG_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            return _fail(f"--{name} must be >= {low}, got {value}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SubstitutionError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at interpreter exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:  # an output path that cannot be written
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

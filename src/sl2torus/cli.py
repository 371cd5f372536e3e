"""Command-line interface: batch classification, canonicalization,
equivalence testing, sampling, and figure emission.

Exit codes: 0 ok, 2 parse/validation error, 3 domain error (e.g. a
non-commuting pair) or internal validation failure (error code
INTERNAL_VALIDATION), 4 ambiguous classification.

Rational mode runs the same pipeline on Fraction entries, so every test on
the record (determinant, commutator, the sector itself) is exact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from contextlib import suppress
from dataclasses import fields
from fractions import Fraction

from .canonical import (
    SECTOR_CONTINUOUS,
    SECTORS,
    apply_conjugation,
    canonicalize,
    reconstruct,
    same_class,
)
from .constants import FIGURES  # plot's choices; figures loads on use
from .errors import (
    ClassificationAmbiguous,
    DegenerateCC,
    DeterminantError,
    ForbiddenCombo,
    NotCommuting,
    ParamOutOfRange,
    SL2TorusError,
)
from .pairs import make_pair, spectral_types
from .sl2 import ToleranceConfig, make_sl2

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_AMBIGUOUS = 4


class ParseFailure(Exception):
    """An unusable input or output: its message goes to stderr, exit 2."""


# _read_document and _pair enforce exactly the schemas in sl2torus/schemas,
# the documented input contract.  Every test is on type(x), never
# isinstance: JSON true is a bool, an int subclass, but no schema number.

# the record keys besides the optional "mode", per document kind
_RECORD_KEYS = {"pairs": {"id", "U1", "U2"},
                "comparisons": {"id", "left", "right"}}


def _where(path, i, rec_id):
    return f"{path}: record {i} (id {rec_id!r})"


def _read_document(path, key):
    """The records of the document at `path`: an object whose one key `key`
    holds a list of records with unique string ids.  Each record has
    exactly its keys, an optional mode "float" or "rational" and, in a
    comparison, "left" and "right" objects with exactly the keys U1 and U2.
    The matrices are checked as `_pair` converts them."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}")
    if type(doc) is not dict or doc.keys() != {key}:
        raise ParseFailure(f"{path}: a document is an object with the one "
                           f"key {key!r}")
    records = doc[key]
    if type(records) is not list:
        raise ParseFailure(f"{path}: {key!r} is not a list")
    keys, seen = _RECORD_KEYS[key], set()
    for i, rec in enumerate(records):
        if type(rec) is not dict:
            raise ParseFailure(f"{_where(path, i, None)}: not an object")
        where = _where(path, i, rec.get("id"))
        if rec.keys() - {"mode"} != keys:
            raise ParseFailure(f"{where}: keys {sorted(rec)}, expected "
                               f"{sorted(keys)} and optionally 'mode'")
        if type(rec["id"]) is not str:
            raise ParseFailure(f"{where}: id is not a string")
        if rec.get("mode", "float") not in ("float", "rational"):
            raise ParseFailure(f"{where}: mode is not 'float' or 'rational'")
        for side in ("left", "right") if key == "comparisons" else ():
            if type(rec[side]) is not dict or rec[side].keys() != {"U1", "U2"}:
                raise ParseFailure(f"{where}: {side} is not an object with "
                                   f"the keys 'U1' and 'U2'")
        if rec["id"] in seen:
            raise ParseFailure(f"{path}: duplicate record id {rec['id']!r}")
        seen.add(rec["id"])
    return records


def _check_entry(e, where):
    # a number, or [num, den] of draft-07 integers, which admit 2.0
    if type(e) is list:
        ok = len(e) == 2 and all(
            type(x) is int or type(x) is float and x.is_integer() for x in e)
    else:
        ok = type(e) is int or type(e) is float
    if not ok:
        raise ParseFailure(f"{where}: entry {e!r} is neither a number nor "
                           f"[num, den] of integers")


def _check_denominator(e, where):
    if e[1] == 0:
        raise ParseFailure(f"{where}: zero denominator in entry {e!r}")


def _entry_float(e, where):
    if type(e) is float and math.isfinite(e):
        return e
    _check_entry(e, where)
    try:
        if type(e) is list:
            _check_denominator(e, where)
            x = e[0] / e[1]
        else:
            x = float(e)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    # json.load accepts NaN and Infinity, and the schema lets them through
    if not math.isfinite(x):
        raise ParseFailure(f"{where}: non-finite entry {e!r}")
    return x


def _entry_fraction(e, where):
    if type(e) is int:
        n, d = e, 1
    elif (type(e) is list and len(e) == 2
          and type(e[0]) is int and type(e[1]) is int):
        _check_denominator(e, where)
        n, d = e
    else:
        _check_entry(e, where)
        # the schema's integer also admits integral floats such as 2.0
        raise ParseFailure(f"{where}: rational mode requires integer or "
                           f"[num, den] entries, got {e!r}")
    if _beyond_float_range(n, d):
        raise ParseFailure(f"{where}: entry {e!r} beyond the float range")
    return Fraction(n, d)


def _beyond_float_range(n, d):
    """Whether float(Fraction(n, d)) overflows; classification takes
    square roots in floats.  n / d is the same correctly rounded quotient,
    so the Fraction is not built."""
    try:
        n / d
    except OverflowError:
        return True
    return False


def _matrix(m, entry, where):
    if not (type(m) is list and len(m) == 2
            and type(m[0]) is list and len(m[0]) == 2
            and type(m[1]) is list and len(m[1]) == 2):
        raise ParseFailure(f"{where}: not a list of two rows of two entries")
    (a, b), (c, d) = m
    return entry(a, where), entry(b, where), entry(c, where), entry(d, where)


def _pair(side, where, mode, cfg):
    """The validated pair of a record or comparison side.  In rational mode
    the entries are Fractions, so every test on the pair is exact."""
    entry = _entry_fraction if mode == "rational" else _entry_float
    U1 = _matrix(side["U1"], entry, f"{where}, U1")
    U2 = _matrix(side["U2"], entry, f"{where}, U2")
    if mode == "rational":  # each entry fits a float, its trace may not
        for k, (a, _, _, d) in (("U1", U1), ("U2", U2)):
            if _beyond_float_range(
                    a.numerator * d.denominator + d.numerator * a.denominator,
                    a.denominator * d.denominator):
                raise ParseFailure(f"{where}: trace of {k} beyond the float "
                                   f"range")
    return make_pair(make_sl2(*U1, cfg), make_sl2(*U2, cfg), cfg)


def _cfg(args) -> ToleranceConfig:
    return ToleranceConfig(*(getattr(args, f.name)
                             for f in fields(ToleranceConfig)))


def _type_json(st):
    out = {"tag": st.tag}
    if st.tag == "A":
        out["lambda"] = st.lam
    elif st.tag in ("B", "C"):
        out["eps"] = st.eps
    else:
        out["theta"] = st.theta
    return out


# looked up by isinstance in this order, most specific class first; a bare
# SL2TorusError is an internal validation failure
_ERROR_CODES = {
    NotCommuting: ("NOT_COMMUTING", EXIT_DOMAIN),
    ForbiddenCombo: ("FORBIDDEN_COMBO", EXIT_DOMAIN),
    DeterminantError: ("DETERMINANT", EXIT_DOMAIN),
    DegenerateCC: ("DEGENERATE_CC", EXIT_DOMAIN),
    ParamOutOfRange: ("PARAM_OUT_OF_RANGE", EXIT_DOMAIN),
    ClassificationAmbiguous: ("AMBIGUOUS", EXIT_AMBIGUOUS),
    SL2TorusError: ("INTERNAL_VALIDATION", EXIT_DOMAIN),
}


def _error_json(rec_id, exc):
    code, status = next(v for cls, v in _ERROR_CODES.items()
                        if isinstance(exc, cls))
    return {"id": rec_id, "error": code, "detail": str(exc)}, status


def _classify_record(rec, where, mode, cfg):
    p = _pair(rec, where, mode, cfg)
    t1, t2 = spectral_types(p, cfg)
    return {
        "id": rec["id"],
        "type1": _type_json(t1),
        "type2": _type_json(t2),
        "combo": [t1.tag, t2.tag],
    }


def _canon_record(rec, where, mode, cfg):
    p = _pair(rec, where, mode, cfg)
    result = canonicalize(p, cfg)
    c = result.trace.c
    out = {
        "id": rec["id"],
        "sector": result.sector,
        "params": result.params,
        "witness": result.witness.entries(),
        "trace": {
            "c": None if c is None else float(c),
            "det_sprime_sign": result.trace.det_sprime_sign,
            "branch_notes": list(result.trace.branch_notes),
        },
    }
    if mode == "rational":
        # exact defining data of the irrational canonical angles
        exact = {}
        if result.sector == "CC":
            exact["c"] = [c.numerator, c.denominator]
            exact["det_sprime_sign"] = result.trace.det_sprime_sign
        # U1 is elliptic in DB and DD, U2 in BD and DD
        for key, U, tag in (("cos_theta", p.U1, result.sector[0]),
                            ("cos_phi", p.U2, result.sector[1])):
            if tag == "D":  # cos = tr / 2
                cos = (U.a + U.d) / 2
                exact[key] = [cos.numerator, cos.denominator]
        if exact:
            out["exact"] = exact
    return out


def _canon_json(cp):
    return {"sector": cp.sector, "params": cp.params}


def _equiv_record(rec, where, mode, cfg):
    # both sides are validated before either is canonicalized
    left, right = (_pair(rec[side], f"{where}, {side}", mode, cfg)
                   for side in ("left", "right"))
    cl, cr = canonicalize(left, cfg), canonicalize(right, cfg)
    return {
        "id": rec["id"],
        "verdict": "EQUIVALENT" if same_class(cl, cr, cfg) else "DISTINCT",
        "left": _canon_json(cl),
        "right": _canon_json(cr),
    }


def _is_stdout(fd):
    with suppress(OSError):  # fd 1 may be closed, or be fd itself
        return fd != 1 and os.path.samestat(os.fstat(fd), os.fstat(1))
    return False


def _write_file(path, text):
    """Write text over path in place and cut a regular file to its length,
    so it ends with exactly text; a failed write leaves it empty.  Nothing
    is fsynced.  A truncating open(path, "w") blocks for tens of ms on ext4
    when the old blocks are already on disk, as they are on every rerun.
    Standard output itself goes through sys.stdout, keeping its offset."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        if _is_stdout(fd):
            os.close(fd)
            sys.stdout.write(text)
            return
        try:
            with open(fd, "w", closefd=False) as fh:
                fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        except OSError:
            with suppress(OSError):  # EINVAL unless a regular file
                os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise ParseFailure(f"cannot write {path}: {exc}")


def _write(text, args):
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps's, built once


def _emit(lines, args):
    _write("".join(_encode(obj) + "\n" for obj in lines), args)


def _run_batch(args, key, handler):
    cfg = _cfg(args)
    records = _read_document(args.input, key)
    lines = []
    saw_domain = saw_ambiguous = False
    for i, rec in enumerate(records):
        where = _where(args.input, i, rec["id"])
        mode = args.mode or rec.get("mode", "float")
        try:
            lines.append(handler(rec, where, mode, cfg))
        except SL2TorusError as exc:
            obj, st = _error_json(rec["id"], exc)
            lines.append(obj)
            saw_domain |= st == EXIT_DOMAIN
            saw_ambiguous |= st == EXIT_AMBIGUOUS
    _emit(lines, args)
    # domain errors dominate the exit status over ambiguity
    if saw_domain:
        return EXIT_DOMAIN
    return EXIT_AMBIGUOUS if saw_ambiguous else EXIT_OK


def cmd_classify(args):
    return _run_batch(args, "pairs", _classify_record)


def cmd_canon(args):
    return _run_batch(args, "pairs", _canon_record)


def cmd_equiv(args):
    return _run_batch(args, "comparisons", _equiv_record)


def cmd_sample(args):
    import random

    from .atlas import cells, random_sl2, sample_params

    if args.sector not in SECTORS:
        print(f"unknown sector {args.sector!r}; choose from "
              f"{', '.join(SECTORS)}", file=sys.stderr)
        return EXIT_PARSE
    rng = random.Random(args.seed)
    records = []
    if not SECTOR_CONTINUOUS[args.sector]:  # finite: cycle through its cells
        choices = cells(args.sector)
        param_list = [choices[i % len(choices)] for i in range(args.count)]
    else:
        param_list = [sample_params(args.sector, rng)
                      for _ in range(args.count)]
    for i, params in enumerate(param_list):
        p = reconstruct(args.sector, params)
        if args.conjugate:
            p = apply_conjugation(p, random_sl2(rng))
        records.append({
            "id": f"{args.sector}-{i}",
            "mode": "float",
            "U1": p.U1.entries(),
            "U2": p.U2.entries(),
        })
    _write(json.dumps({"pairs": records}, sort_keys=True, indent=2) + "\n",
           args)
    return EXIT_OK


def cmd_plot(args):
    from .figures import figure_rows, rows_to_csv, rows_to_svg

    rows = figure_rows(args.figure, args.resolution)
    base = args.out or args.figure
    if base.endswith(".svg") or base.endswith(".csv"):
        base = base[:-4]
    _write_file(base + ".csv", rows_to_csv(rows))
    _write_file(base + ".svg", rows_to_svg(rows))
    return EXIT_OK


def _int_at_least(lo):
    """argparse type: an integer not below lo."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < lo:
            raise argparse.ArgumentTypeError(f"{n} is below {lo}")
        return n
    return parse


def _tolerance(text):
    """argparse type: a finite float above 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < x < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number above 0")
    return x


# argparse stores --det-tol as det_tol, the field that _cfg reads
_TOLERANCE_OPTIONS = {"--" + f.name.replace("_", "-"): f.default
                      for f in fields(ToleranceConfig)}


def _join_signed_values(argv):
    """argv with each tolerance option joined to a following number that
    starts with '-', such as -1e-9 or -inf, which argparse would otherwise
    read as an option, so that _tolerance rejects it with its own message."""
    out = []
    for arg in argv:
        if out and out[-1] in _TOLERANCE_OPTIONS and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sl2torus",
        description="classification and canonical forms of commuting "
                    "unit-determinant 2x2 real matrix pairs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in (
        ("classify", cmd_classify, "spectral types and coarse combination"),
        ("canon", cmd_canon, "canonical sector, parameters, witness"),
        ("equiv", cmd_equiv, "decide equivalence of pair comparisons"),
    ):
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("input", help="JSON input document")
        for option, default in _TOLERANCE_OPTIONS.items():
            sub.add_argument(option, type=_tolerance, default=default)
        sub.add_argument("--mode", choices=("float", "rational"),
                         default=None,
                         help="override the per-record arithmetic mode")
        sub.add_argument("--out", default=None)
        sub.set_defaults(func=fn)

    sub = subs.add_parser("sample", help="draw pairs from a sector")
    sub.add_argument("sector")
    sub.add_argument("--count", type=_int_at_least(0), default=10)
    sub.add_argument("--conjugate", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("plot", help="emit SVG + CSV figure")
    sub.add_argument("figure", choices=FIGURES)
    sub.add_argument("--resolution", type=_int_at_least(1), default=12)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

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
import random
import sys
from fractions import Fraction
from importlib import resources
from itertools import product

import jsonschema

from .atlas import sample_params, random_sl2
from .canonical import (
    SECTOR_CONTINUOUS,
    SECTOR_DISCRETE,
    SECTORS,
    SIGNS,
    apply_conjugation,
    canonicalize,
    reconstruct,
    same_class,
)
from .errors import (
    ClassificationAmbiguous,
    DegenerateCC,
    DeterminantError,
    ForbiddenCombo,
    NotCommuting,
    ParamOutOfRange,
    SL2TorusError,
)
from .figures import FIGURES, figure_rows, rows_to_csv, rows_to_svg
from .pairs import make_pair, spectral_types
from .sl2 import ToleranceConfig, is_exact, make_sl2

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_AMBIGUOUS = 4


class ParseFailure(Exception):
    pass


def _load_schema(name):
    with resources.files("sl2torus.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _read_document(path, schema_name):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}")
    try:
        jsonschema.validate(doc, _load_schema(schema_name))
    except jsonschema.ValidationError as exc:
        raise ParseFailure(f"{path}: {exc.message}")
    return doc


def _check_unique_ids(records, path):
    seen = set()
    for rec in records:
        if rec["id"] in seen:
            raise ParseFailure(f"{path}: duplicate record id {rec['id']!r}")
        seen.add(rec["id"])


def _check_denominator(e, where):
    if e[1] == 0:
        raise ParseFailure(f"{where}: zero denominator in entry {e!r}")


def _entry_float(e, where):
    try:
        if isinstance(e, list):
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
    parts = e if isinstance(e, list) else [e, 1]
    # the schema's integer also admits integral floats such as 2.0
    if not all(isinstance(x, int) for x in parts):
        raise ParseFailure(f"{where}: rational mode requires integer or "
                           f"[num, den] entries, got {e!r}")
    _check_denominator(parts, where)
    x = Fraction(*parts)
    _check_float_range(x, f"{where}: entry {e!r}")
    return x


def _check_float_range(x, what):
    # classification takes square roots in floats
    try:
        float(x)
    except OverflowError:
        raise ParseFailure(f"{what} beyond the float range")


def _pair(side, rec_id, mode, cfg):
    """The validated pair of a record or comparison side.  In rational mode
    the entries are Fractions, so every test on the pair is exact."""
    entry = _entry_fraction if mode == "rational" else _entry_float
    U1, U2 = ([entry(x, rec_id) for row in side[k] for x in row]
              for k in ("U1", "U2"))
    if mode == "rational":  # each entry fits a float, its trace may not
        for k, U in (("U1", U1), ("U2", U2)):
            _check_float_range(U[0] + U[3], f"{rec_id}: trace of {k}")
    return make_pair(make_sl2(*U1, cfg), make_sl2(*U2, cfg), cfg)


def _record_mode(rec, args):
    if args.mode is not None:
        return args.mode
    return rec.get("mode", "float")


def _cfg(args) -> ToleranceConfig:
    return ToleranceConfig(
        det_tol=args.det_tol,
        class_tol=args.class_tol,
        comm_tol=args.comm_tol,
        param_tol=args.param_tol,
    )


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


def _classify_record(rec, args, cfg):
    p = _pair(rec, rec["id"], _record_mode(rec, args), cfg)
    t1, t2 = spectral_types(p, cfg)
    return {
        "id": rec["id"],
        "type1": _type_json(t1),
        "type2": _type_json(t2),
        "combo": [t1.tag, t2.tag],
    }


def _canon_record(rec, args, cfg):
    p = _pair(rec, rec["id"], _record_mode(rec, args), cfg)
    result = canonicalize(p, cfg)
    c = result.trace.c
    out = {
        "id": rec["id"],
        "sector": result.sector,
        "params": dict(sorted(result.params.items())),
        "witness": result.witness.entries(),
        "trace": {
            "c": None if c is None else float(c),
            "det_sprime_sign": result.trace.det_sprime_sign,
            "branch_notes": list(result.trace.branch_notes),
        },
    }
    if is_exact(p.U1):
        # exact defining data of the irrational canonical angles
        exact = {}
        if result.sector == "CC":
            exact["c"] = [c.numerator, c.denominator]
            exact["det_sprime_sign"] = result.trace.det_sprime_sign
        for key, U in (("cos_theta", p.U1), ("cos_phi", p.U2)):
            tr = U.trace()
            if abs(tr) < 2:  # elliptic
                exact[key] = [tr.numerator, 2 * tr.denominator]
        if exact:
            out["exact"] = exact
    return out


def _canon_json(cp):
    return {"sector": cp.sector, "params": dict(sorted(cp.params.items()))}


def _equiv_record(rec, args, cfg):
    mode = _record_mode(rec, args)
    # both sides are validated before either is canonicalized
    left, right = (_pair(rec[side], rec["id"], mode, cfg)
                   for side in ("left", "right"))
    cl, cr = canonicalize(left, cfg), canonicalize(right, cfg)
    return {
        "id": rec["id"],
        "verdict": "EQUIVALENT" if same_class(cl, cr, cfg) else "DISTINCT",
        "left": _canon_json(cl),
        "right": _canon_json(cr),
    }


def _write(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(lines, args):
    _write("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines),
           args)


def _run_batch(args, schema, key, handler):
    cfg = _cfg(args)
    doc = _read_document(args.input, schema)
    _check_unique_ids(doc[key], args.input)
    lines = []
    saw_domain = saw_ambiguous = False
    for rec in doc[key]:
        try:
            lines.append(handler(rec, args, cfg))
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
    return _run_batch(args, "pair_document.schema.json", "pairs",
                      _classify_record)


def cmd_canon(args):
    return _run_batch(args, "pair_document.schema.json", "pairs",
                      _canon_record)


def cmd_equiv(args):
    return _run_batch(args, "equiv_document.schema.json", "comparisons",
                      _equiv_record)


def cmd_sample(args):
    if args.sector not in SECTORS:
        print(f"unknown sector {args.sector!r}; choose from "
              f"{', '.join(SECTORS)}", file=sys.stderr)
        return EXIT_PARSE
    rng = random.Random(args.seed)
    records = []
    finite = not SECTOR_CONTINUOUS[args.sector]
    if finite:
        keys = SECTOR_DISCRETE[args.sector]
        combos = list(product(SIGNS, repeat=len(keys)))
        choices = [dict(zip(keys, combo)) for combo in combos]
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
    rows = figure_rows(args.figure, args.resolution)
    base = args.out or args.figure
    if base.endswith(".svg") or base.endswith(".csv"):
        base = base[:-4]
    with open(base + ".csv", "w") as fh:
        fh.write(rows_to_csv(rows))
    with open(base + ".svg", "w") as fh:
        fh.write(rows_to_svg(rows))
    return EXIT_OK


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
        sub.add_argument("--det-tol", type=float, default=1e-9)
        sub.add_argument("--class-tol", type=float, default=1e-9)
        sub.add_argument("--comm-tol", type=float, default=1e-9)
        sub.add_argument("--param-tol", type=float, default=1e-8)
        sub.add_argument("--mode", choices=("float", "rational"),
                         default=None,
                         help="override the per-record arithmetic mode")
        sub.add_argument("--out", default=None)
        sub.set_defaults(func=fn)

    sub = subs.add_parser("sample", help="draw pairs from a sector")
    sub.add_argument("sector")
    sub.add_argument("--count", type=int, default=10)
    sub.add_argument("--conjugate", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("plot", help="emit SVG + CSV figure")
    sub.add_argument("figure", choices=FIGURES)
    sub.add_argument("--resolution", type=int, default=12)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

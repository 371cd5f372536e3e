"""Command-line interface: batch classification, canonicalization,
equivalence testing, sampling, and figure emission.

Exit codes: 0 ok, 2 parse/validation error, 3 domain error (e.g. a
non-commuting pair), 4 ambiguous classification.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from importlib import resources

import jsonschema

from .atlas import sample_params, random_sl2
from .canonical import (
    SECTOR_CONTINUOUS,
    SECTORS,
    apply_conjugation,
    canonicalize,
    equivalent,
    reconstruct,
)
from .errors import (
    ClassificationAmbiguous,
    DegenerateCC,
    DeterminantError,
    ForbiddenCombo,
    NotCommuting,
    ParamOutOfRange,
)
from .figures import FIGURES, figure_rows, rows_to_csv, rows_to_svg
from .oracle import exact_classify
from .pairs import allowed_combination, make_pair
from .sl2 import ToleranceConfig, make_sl2

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
    if isinstance(e, list):
        _check_denominator(e, where)
        return e[0] / e[1]
    return float(e)


def _entry_fraction(e, where):
    if isinstance(e, list):
        _check_denominator(e, where)
        return Fraction(e[0], e[1])
    if isinstance(e, int):
        return Fraction(e)
    raise ParseFailure(f"{where}: rational mode requires integer or "
                       f"[num, den] entries, got {e!r}")


def _matrix_floats(m, where):
    return (_entry_float(m[0][0], where), _entry_float(m[0][1], where),
            _entry_float(m[1][0], where), _entry_float(m[1][1], where))


def _matrix_fractions(m, where):
    return tuple(_entry_fraction(m[i][j], where)
                 for i in range(2) for j in range(2))


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


_ERROR_CODES = {
    NotCommuting: ("NOT_COMMUTING", EXIT_DOMAIN),
    ForbiddenCombo: ("FORBIDDEN_COMBO", EXIT_DOMAIN),
    DeterminantError: ("DETERMINANT", EXIT_DOMAIN),
    DegenerateCC: ("DEGENERATE_CC", EXIT_DOMAIN),
    ParamOutOfRange: ("PARAM_OUT_OF_RANGE", EXIT_DOMAIN),
    ClassificationAmbiguous: ("AMBIGUOUS", EXIT_AMBIGUOUS),
}


def _error_json(rec_id, exc):
    code, status = _ERROR_CODES[type(exc)]
    return {"id": rec_id, "error": code, "detail": str(exc)}, status


def _classify_record(rec, args, cfg):
    mode = _record_mode(rec, args)
    if mode == "rational":
        f1 = _matrix_fractions(rec["U1"], rec["id"])
        f2 = _matrix_fractions(rec["U2"], rec["id"])
        t1 = exact_classify(*f1)
        t2 = exact_classify(*f2)
        U1 = make_sl2(*(float(x) for x in f1), cfg)
        U2 = make_sl2(*(float(x) for x in f2), cfg)
        comm = _exact_commutes(f1, f2)
        if not comm:
            raise NotCommuting("nonzero exact commutator")
        if not allowed_combination(t1.tag, t2.tag):
            raise ForbiddenCombo((t1.tag, t2.tag))
    else:
        U1 = make_sl2(*_matrix_floats(rec["U1"], rec["id"]), cfg)
        U2 = make_sl2(*_matrix_floats(rec["U2"], rec["id"]), cfg)
        p = make_pair(U1, U2, cfg)
        from .pairs import coarse_combo
        from .sl2 import classify

        t1 = classify(U1, cfg)
        t2 = classify(U2, cfg)
        coarse_combo(p, cfg)
    return {
        "id": rec["id"],
        "type1": _type_json(t1),
        "type2": _type_json(t2),
        "combo": [t1.tag, t2.tag],
    }


def _exact_commutes(f1, f2):
    a, b, c, d = f1
    e, f, g, h = f2
    return (
        a * e + b * g == e * a + f * c
        and a * f + b * h == e * b + f * d
        and c * e + d * g == g * a + h * c
        and c * f + d * h == g * b + h * d
    )


def _exact_cc_data(f1, f2, t1, t2):
    """Exact coupling scalar and basis-determinant sign for a rational CC
    pair; the canonical angle itself is generally irrational."""
    a, b, c, d = f1
    e1 = t1.eps
    na, nb, nc, nd = a - e1, b, c, d - e1
    if nb != 0 or nd != 0:
        w = (Fraction(0), Fraction(1))
        v1 = (nb, nd)
    else:
        w = (Fraction(1), Fraction(0))
        v1 = (na, nc)
    e, f, g, h = f2
    e2 = t2.eps
    rw = (e * w[0] + f * w[1] - e2 * w[0], g * w[0] + h * w[1] - e2 * w[1])
    i = 0 if v1[0] != 0 else 1
    cc = rw[i] / v1[i]
    det = v1[0] * w[1] - v1[1] * w[0]
    return cc, (1 if det > 0 else -1)


def _canon_record(rec, args, cfg):
    mode = _record_mode(rec, args)
    exact = {}
    if mode == "rational":
        f1 = _matrix_fractions(rec["U1"], rec["id"])
        f2 = _matrix_fractions(rec["U2"], rec["id"])
        t1 = exact_classify(*f1)
        t2 = exact_classify(*f2)
        if not _exact_commutes(f1, f2):
            raise NotCommuting("nonzero exact commutator")
        if not allowed_combination(t1.tag, t2.tag):
            raise ForbiddenCombo((t1.tag, t2.tag))
        U1 = make_sl2(*(float(x) for x in f1), cfg)
        U2 = make_sl2(*(float(x) for x in f2), cfg)
        if (t1.tag, t2.tag) == ("C", "C"):
            cc, sgn = _exact_cc_data(f1, f2, t1, t2)
            exact["c"] = [cc.numerator, cc.denominator]
            exact["det_sprime_sign"] = sgn
        if t1.tag == "D":
            tr = f1[0] + f1[3]
            exact["cos_theta"] = [tr.numerator, 2 * tr.denominator]
        if t2.tag == "D":
            tr = f2[0] + f2[3]
            exact["cos_phi"] = [tr.numerator, 2 * tr.denominator]
    else:
        U1 = make_sl2(*_matrix_floats(rec["U1"], rec["id"]), cfg)
        U2 = make_sl2(*_matrix_floats(rec["U2"], rec["id"]), cfg)
    p = make_pair(U1, U2, cfg)
    result = canonicalize(p, cfg)
    out = {
        "id": rec["id"],
        "sector": result.sector,
        "params": dict(sorted(result.params.items())),
        "witness": result.witness.entries(),
        "trace": {
            "c": result.trace.c,
            "det_sprime_sign": result.trace.det_sprime_sign,
            "branch_notes": list(result.trace.branch_notes),
        },
    }
    if exact:
        out["exact"] = exact
    return out


def _equiv_record(rec, args, cfg):
    sides = {}
    for side in ("left", "right"):
        U1 = make_sl2(*_matrix_floats(rec[side]["U1"], rec["id"]), cfg)
        U2 = make_sl2(*_matrix_floats(rec[side]["U2"], rec["id"]), cfg)
        sides[side] = make_pair(U1, U2, cfg)
    cl = canonicalize(sides["left"], cfg)
    cr = canonicalize(sides["right"], cfg)
    verdict = (
        "EQUIVALENT"
        if equivalent(sides["left"], sides["right"], cfg)
        else "DISTINCT"
    )
    return {
        "id": rec["id"],
        "verdict": verdict,
        "left": {"sector": cl.sector, "params": dict(sorted(cl.params.items()))},
        "right": {"sector": cr.sector, "params": dict(sorted(cr.params.items()))},
    }


def _emit(lines, args):
    text = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_batch(args, schema, key, handler):
    cfg = _cfg(args)
    doc = _read_document(args.input, schema)
    _check_unique_ids(doc[key], args.input)
    lines = []
    saw_domain = saw_ambiguous = False
    for rec in doc[key]:
        try:
            lines.append(handler(rec, args, cfg))
        except tuple(_ERROR_CODES) as exc:
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
        from itertools import product

        from .canonical import SECTOR_DISCRETE

        keys = SECTOR_DISCRETE[args.sector]
        combos = list(product((1, -1), repeat=len(keys)))
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
    text = json.dumps({"pairs": records}, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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


def _add_common(sub):
    sub.add_argument("--det-tol", type=float, default=1e-9)
    sub.add_argument("--class-tol", type=float, default=1e-9)
    sub.add_argument("--comm-tol", type=float, default=1e-9)
    sub.add_argument("--param-tol", type=float, default=1e-8)
    sub.add_argument("--mode", choices=("float", "rational"), default=None,
                     help="override the per-record arithmetic mode")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)


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
        _add_common(sub)
        sub.set_defaults(func=fn)

    sub = subs.add_parser("sample", help="draw pairs from a sector")
    sub.add_argument("sector")
    sub.add_argument("--count", type=int, default=10)
    sub.add_argument("--conjugate", action="store_true")
    _add_common(sub)
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("plot", help="emit SVG + CSV figure")
    sub.add_argument("figure", choices=FIGURES)
    sub.add_argument("--resolution", type=int, default=12)
    _add_common(sub)
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

import copy
import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import astuple, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sl2torus
from sl2torus import SL2Matrix, conjugate, reconstruct, rotation
from sl2torus.cli import (
    EXIT_AMBIGUOUS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    ParseFailure,
    _check_entry,
    _matrix,
    _read_document,
    _write_file,
    main,
)
from test_canonical import overflow_cc


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def pair_doc(*pairs):
    return {"pairs": [
        {"id": f"p{i}", "U1": u1, "U2": u2} for i, (u1, u2) in enumerate(pairs)
    ]}


DIAG = [[2, 0], [0, 0.5]]
DIAG2 = [[3, 0], [0, [1, 3]]]
JORDAN = [[1, 1], [0, 1]]
IDENT = [[1, 0], [0, 1]]
NEG_IDENT = [[-1, 0], [0, -1]]


# --- classify -------------------------------------------------------------


def test_classify_basic(tmp_path):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out)]) == EXIT_OK
    recs = read_lines(out)
    assert recs[0]["combo"] == ["A", "A"]
    assert recs[0]["type1"]["lambda"] == pytest.approx(0.5)


def test_classify_rational_entry(tmp_path):
    inp = write_doc(tmp_path, pair_doc((IDENT, JORDAN)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["type1"] == {"tag": "B", "eps": 1}
    assert rec["type2"] == {"tag": "C", "eps": 1}


def test_classify_noncommuting_exit_3(tmp_path):
    inp = write_doc(tmp_path, pair_doc((DIAG, JORDAN)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out)]) == EXIT_DOMAIN
    rec = read_lines(out)[0]
    assert rec["error"] == "NOT_COMMUTING"


def test_classify_ambiguous_exit_4(tmp_path):
    near = [[1, 5e-9], [0, 1]]
    inp = write_doc(tmp_path, pair_doc((IDENT, near)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out)]) == EXIT_AMBIGUOUS
    assert read_lines(out)[0]["error"] == "AMBIGUOUS"


def test_rational_mode_resolves_ambiguity(tmp_path):
    near = [[1, [1, 200000000]], [0, 1]]
    inp = write_doc(tmp_path, pair_doc((IDENT, near)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK
    assert read_lines(out)[0]["type2"] == {"tag": "C", "eps": 1}


def test_domain_dominates_ambiguous(tmp_path):
    near = [[1, 5e-9], [0, 1]]
    inp = write_doc(tmp_path, pair_doc((IDENT, near), (DIAG, JORDAN)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out)]) == EXIT_DOMAIN


def test_parse_error_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == EXIT_PARSE


def test_parse_error_schema_violation(tmp_path):
    inp = write_doc(tmp_path, {"pairs": [{"id": "x", "U1": [[1, 0]]}]})
    assert main(["classify", inp]) == EXIT_PARSE


def test_parse_error_duplicate_ids(tmp_path):
    doc = {"pairs": [
        {"id": "a", "U1": IDENT, "U2": IDENT},
        {"id": "a", "U1": IDENT, "U2": IDENT},
    ]}
    inp = write_doc(tmp_path, doc)
    assert main(["classify", inp]) == EXIT_PARSE


def test_parse_error_missing_file(tmp_path):
    assert main(["classify", str(tmp_path / "absent.json")]) == EXIT_PARSE


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_parse_error_zero_denominator(tmp_path, capsys, mode):
    doc = pair_doc(([[1, [1, 0]], [0, 1]], IDENT))
    doc["pairs"][0]["mode"] = mode
    inp = write_doc(tmp_path, doc)
    assert main(["canon", inp]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "p0" in err and "zero denominator" in err


HUGE = 15 * 10**307


@pytest.mark.parametrize("U1,mode,message", [
    ([[math.nan, 0], [0, 1]], "float", "non-finite"),
    ([[math.inf, 0], [0, 1]], "float", "non-finite"),
    ([[-math.inf, 0], [0, 1]], "float", "non-finite"),
    ([[10**400, 0], [0, 1]], "float", "non-finite"),
    ([[10**330, 0], [0, [1, 10**330]]], "rational", "beyond the float range"),
    # draft-07 integer admits 2.0, but a ratio part must be an integer
    ([[[2.0, 2], 0], [0, 1]], "rational",
     "rational mode requires integer or [num, den] entries"),
    # every entry fits a float, the trace 2a does not
    ([[HUGE, HUGE], [[HUGE * HUGE - 1, HUGE], HUGE]], "rational",
     "trace of U1 beyond the float range"),
], ids=["nan", "inf", "-inf", "huge-int", "rational-huge",
        "rational-float-ratio", "rational-huge-trace"])
def test_parse_error_non_finite(tmp_path, capsys, U1, mode, message):
    doc = pair_doc((U1, IDENT))
    doc["pairs"][0]["mode"] = mode
    inp = write_doc(tmp_path, doc)
    assert main(["canon", inp]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "p0" in err and message in err


@pytest.mark.parametrize("mutate,message", [
    (lambda r: r["U2"][1].__setitem__(0, True), "U2: entry True"),
    (lambda r: r["U1"].append([0, 1]), "U1: not a list of two rows"),
    (lambda r: r.__setitem__("mode", "exact"), "mode is not"),
    (lambda r: r.__setitem__("extra", 1), "keys"),
    (lambda r: r.__setitem__("id", 7), "id is not a string"),
], ids=["true-entry", "three-rows", "bad-mode", "extra-key", "int-id"])
def test_parse_error_names_record(tmp_path, capsys, mutate, message):
    doc = copy.deepcopy(pair_doc((DIAG, DIAG2), (IDENT, JORDAN)))
    mutate(doc["pairs"][1])
    inp = write_doc(tmp_path, doc)
    assert main(["canon", inp]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "record 1" in err and message in err


# --- the reader against the schemas it enforces ---------------------------

SCHEMAS = {"pairs": "pair_document.schema.json",
           "comparisons": "equiv_document.schema.json"}

# the reader looks at types and lengths only, so a few values of each
# kind will do
_entries = st.sampled_from((0, -3, 10**400, 0.5, -1e300, 5e-324, [1, 2],
                            [-3, 0], [10**400, 7]))
_matrices = st.lists(st.lists(_entries, min_size=2, max_size=2),
                     min_size=2, max_size=2)
_sides = st.fixed_dictionaries({"U1": _matrices, "U2": _matrices})
_bodies = {"pairs": _sides,
           "comparisons": st.fixed_dictionaries({"left": _sides,
                                                 "right": _sides})}
# stand-ins for any node: bools, null, strings, a float inside a ratio
# (2.0 passes as a draft-07 integer, 1.5 does not), non-finite numbers,
# numbers where a string or list belongs, and containers of the wrong kind
_REPLACEMENTS = (True, None, "x", "float", 2.0, 1.5, math.nan, math.inf, 7,
                 [], [1, 2], [1, 2, 3], {})


@st.composite
def documents(draw, key):
    """A valid document of the kind `key` with one record, sharing no
    list between two places."""
    rec = {"id": "r0", **draw(_bodies[key])}
    mode = draw(st.sampled_from((None, "float", "rational")))
    if mode is not None:
        rec["mode"] = mode
    return json.loads(json.dumps({key: [rec]}))


def mutations(doc):
    """The document and every document one step from it: a key dropped or
    added, a list grown or shrunk, or any one node replaced."""
    yield doc
    paths = [((), doc)]
    for path, node in paths:
        items = node.items() if type(node) is dict else \
            enumerate(node) if type(node) is list else ()
        paths.extend((path + (k,), v) for k, v in items)
    for path, node in paths:
        edits = [lambda n, v=v: v for v in _REPLACEMENTS] if path else []
        if type(node) is dict:
            edits += [lambda n, k=k: {j: v for j, v in n.items() if j != k}
                      for k in node]
            edits += [lambda n, k=k: {**n, k: "float"}
                      for k in ("extra", "mode")]
        if type(node) is list:
            # a grown record gets a new id: duplicate ids are no schema
            # matter
            edits += [lambda n: n[:-1], lambda n: n + [
                {**n[-1], "id": "copy"} if type(n[-1]) is dict
                and "id" in n[-1] else n[-1]] if n else [0]]
        for edit in edits:
            mutant = copy.deepcopy(doc)
            if not path:
                yield edit(mutant)
                continue
            parent = mutant
            for k in path[:-1]:
                parent = parent[k]
            parent[path[-1]] = edit(parent[path[-1]])
            yield mutant


def reader_accepts(path, key):
    """Whether the CLI's reader passes the document's shape: the record
    checks of _read_document and the matrix checks that _pair applies."""
    try:
        for rec in _read_document(path, key):
            for side in (rec,) if key == "pairs" else (rec["left"],
                                                       rec["right"]):
                for k in ("U1", "U2"):
                    _matrix(side[k], _check_entry, k)
    except ParseFailure:
        return False
    return True


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "doc.json"


@pytest.mark.parametrize("key", sorted(SCHEMAS))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_reader_accepts_what_the_schema_accepts(doc_path, key, data):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(json.loads(
        resources.files("sl2torus.schemas").joinpath(SCHEMAS[key])
        .read_text()))
    for doc in mutations(data.draw(documents(key))):
        _write_file(str(doc_path), json.dumps(doc))
        valid = validator.is_valid(json.loads(doc_path.read_text()))
        assert reader_accepts(str(doc_path), key) == valid, doc


# An exact parabolic part far below the float range: 10^-400 rounds to 0.0.
TINY_C = [[1, [1, 10**400]], [0, 1]]


def test_classify_rational_below_float_range(tmp_path):
    inp = write_doc(tmp_path, pair_doc((TINY_C, IDENT)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["type1"] == {"tag": "C", "eps": 1}
    assert rec["type2"] == {"tag": "B", "eps": 1}


@pytest.mark.parametrize("U2,sector,params", [
    (IDENT, "CB", {"eps1": 1, "eps2": 1, "eps3": 1}),
    ([[1, [2, 10**400]], [0, 1]], "CC",
     {"eps1": 1, "eps2": 1, "alpha": math.atan(2)}),
], ids=["CB", "CC"])
def test_canon_rational_below_float_range(tmp_path, U2, sector, params):
    inp = write_doc(tmp_path, pair_doc((TINY_C, U2)))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK
    rec = read_lines(out)[0]
    assert (rec["sector"], rec["params"]) == (sector, pytest.approx(params))
    # the witness, about diag(10^-200, 10^200), checked exactly
    W = SL2Matrix(*(Fraction(x) for row in rec["witness"] for x in row))
    target = reconstruct(sector, rec["params"])
    for U, T in ((TINY_C, target.U1), (U2, target.U2)):
        U = SL2Matrix(*(Fraction(*x) if type(x) is list else Fraction(x)
                        for row in U for x in row))
        assert conjugate(U, W).max_abs_diff(T) <= 1e-9


@pytest.mark.parametrize("command", ["canon", "equiv"])
def test_witness_beyond_float_range_is_record_error(tmp_path, capsys,
                                                    command):
    # the det 1 basis of this Jordan block has a column near 2^1163
    U1 = [[1, [1, 10**700]], [0, 1]]
    if command == "canon":
        doc = pair_doc((U1, IDENT), (JORDAN, IDENT))
    else:
        doc = equiv_doc((U1, IDENT, JORDAN, IDENT),
                        (JORDAN, IDENT, JORDAN, IDENT))
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "out.jsonl"
    assert main([command, inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_DOMAIN
    bad, good = read_lines(out)
    assert (bad["error"], bad["detail"]) == \
        ("INTERNAL_VALIDATION", "witness beyond the float range")
    assert "error" not in good
    assert capsys.readouterr().err == ""


def test_exact_witness_error_beyond_float_range_both_orders(tmp_path, capsys):
    # the exact witness check's err is beyond the float range; swapped,
    # alpha rounds to pi/2
    U1, U2 = (
        [[[x.numerator, x.denominator] for x in row] for row in U.entries()]
        for U in overflow_cc())
    inp = write_doc(tmp_path, pair_doc((U1, U2), (U2, U1), (JORDAN, IDENT)))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_DOMAIN
    given, swapped, good = read_lines(out)
    assert (given["error"], given["detail"]) == (
        "INTERNAL_VALIDATION",
        "internal witness validation failed (CC, err beyond the float range)")
    assert swapped["error"] == "PARAM_OUT_OF_RANGE"
    assert swapped["detail"].startswith("alpha = 1.5707963267948966 ")
    assert "error" not in good
    assert capsys.readouterr().err == ""


def rational_rotation(n, sign):
    """The exact rotation with tan(angle / 2) = sign / n."""
    q = n * n + 1
    return [[[n * n - 1, q], [-sign * 2 * n, q]],
            [[sign * 2 * n, q], [n * n - 1, q]]]


BIG = 10**20


@pytest.mark.parametrize("command,U1,U2,detail", [
    # the eigenvalue BIG / (BIG + 1) rounds to 1.0
    ("classify", [[[BIG + 1, BIG], 0], [0, [BIG, BIG + 1]]], IDENT,
     "lam = 1.0"),
    ("canon", [[[BIG + 1, BIG], 0], [0, [BIG, BIG + 1]]], IDENT,
     "lam = 1.0"),
    # 2 pi - 2e-20 rounds to 2 pi
    ("classify", rational_rotation(BIG, -1), IDENT, "theta = 6.28"),
    ("canon", rational_rotation(BIG, -1), IDENT, "theta = 6.28"),
    # the coupling 10^-600 of the pivot U1: alpha, about 10^-600, rounds
    # to 0, and with the pivot U2, pi/2 - 10^-600 rounds to pi/2
    ("canon", [[1, 10**300], [0, 1]], [[1, [1, 10**300]], [0, 1]],
     "alpha = 0.0 "),
    ("canon", [[1, [1, 10**300]], [0, 1]], [[1, 10**300], [0, 1]],
     "alpha = 1.5707963267948966 "),
], ids=["classify-lam", "canon-lam", "classify-theta", "canon-theta",
        "canon-alpha", "canon-coupling"])
def test_rational_rounding_to_boundary_is_out_of_range(tmp_path, capsys,
                                                       command, U1, U2,
                                                       detail):
    inp = write_doc(tmp_path, pair_doc((U1, U2), (JORDAN, IDENT)))
    out = tmp_path / "out.jsonl"
    assert main([command, inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_DOMAIN
    bad, good = read_lines(out)
    assert bad["error"] == "PARAM_OUT_OF_RANGE"
    assert bad["detail"].startswith(detail)
    assert "error" not in good
    assert capsys.readouterr().err == ""


def test_classify_rational_angle_below_cosine_resolution(tmp_path):
    # the float cosine of the angle 2e-9 rounds to 1.0
    inp = write_doc(tmp_path, pair_doc((rational_rotation(10**9, 1), IDENT)))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["type1"] == {"tag": "D", "theta": pytest.approx(2e-9)}
    # canon answers the angle classify gives, with either matrix elliptic
    # and for a DD pair
    R, Rinv = rational_rotation(10**9, 1), rational_rotation(10**9, -1)
    pairs = ((R, IDENT), (Rinv, IDENT), (IDENT, R), (IDENT, Rinv), (R, Rinv))
    inp = write_doc(tmp_path, pair_doc(*pairs), "rotations.json")
    outs = {}
    for command in ("classify", "canon"):
        outs[command] = tmp_path / f"{command}.jsonl"
        assert main([command, inp, "--out", str(outs[command]),
                     "--mode", "rational"]) == EXIT_OK
    small, large = pytest.approx(2e-9), pytest.approx(2 * math.pi - 2e-9)
    want = [("DB", {"theta": small, "eps2": 1}),
            ("DB", {"theta": large, "eps2": 1}),
            ("BD", {"eps1": 1, "phi": small}),
            ("BD", {"eps1": 1, "phi": large}),
            ("DD", {"theta": small, "phi": large})]
    for (sector, params), typed, canon in zip(
            want, read_lines(outs["classify"]), read_lines(outs["canon"])):
        assert (canon["sector"], canon["params"]) == (sector, params)
        for key, angle in (("type1", "theta"), ("type2", "phi")):
            if typed[key]["tag"] == "D":
                assert canon["params"][angle] == \
                    pytest.approx(typed[key]["theta"], rel=1e-12)


def test_internal_validation_error_code(tmp_path):
    # the commutator (8.4e-10) passes comm_tol; the near-scalar U1 is read
    # off the pivot U2 as xI + yU2, so the pair is DD
    U1 = rotation(1e-4)
    U2 = conjugate(rotation(1.0), SL2Matrix(1.0, 5e-6, 0.0, 1.0))
    # a nearly commuting pair of a parabolic U1 and a hyperbolic U2: no
    # witness reproduces the canonical form read off the pivot U2
    C1 = [[0.26762243637792693, -1.3981695701289762],
          [0.38362792836889215, 1.7323775636220722]]
    A2 = [[13.643716773922394, 24.137904986854938],
          [-6.622926633989956, -11.64371677150326]]
    inp = write_doc(tmp_path, pair_doc((U1.entries(), U2.entries()),
                                       (C1, A2), (DIAG, DIAG2)))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out)]) == EXIT_DOMAIN
    dd, bad, good = read_lines(out)
    assert dd["sector"] == "DD"
    assert dd["params"]["theta"] == pytest.approx(1e-4, abs=1e-12)
    assert dd["params"]["phi"] == pytest.approx(1.0, abs=1e-12)
    assert bad["error"] == "INTERNAL_VALIDATION"
    assert "validation failed" in bad["detail"]
    assert good["sector"] == "AA1"


def test_degenerate_basis_is_record_error(tmp_path, capsys):
    # classified parabolic; its nilpotent column is parallel to the
    # standard basis vector paired with it, so no witness exists
    U1 = [[0.99999, 0], [0, 1.000010000100001]]
    inp = write_doc(tmp_path, pair_doc((U1, IDENT), (DIAG, DIAG2)))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out)]) == EXIT_DOMAIN
    bad, good = read_lines(out)
    assert bad["error"] == "INTERNAL_VALIDATION"
    assert "degenerate" in bad["detail"]
    assert good["sector"] == "AA1"
    assert capsys.readouterr().err == ""


def test_degenerate_eigenbasis_is_record_error(tmp_path, capsys):
    # with det_tol 1e-6, 1.0000004 * I is hyperbolic, and both of its
    # eigendirections come out the same
    bad = (IDENT, [[1.0000004, 0], [0, 1.0000004]])
    docs = (("canon", pair_doc(bad, (DIAG, DIAG2))),
            ("equiv", equiv_doc(bad + bad, (DIAG, DIAG2, DIAG, DIAG2))))
    for cmd, doc in docs:
        inp = write_doc(tmp_path, doc)
        out = tmp_path / "out.jsonl"
        assert main([cmd, inp, "--out", str(out), "--det-tol", "1e-6"]) \
            == EXIT_DOMAIN
        err, good = read_lines(out)
        assert err["error"] == "INTERNAL_VALIDATION"
        assert "degenerate" in err["detail"]
        assert "error" not in good
        assert capsys.readouterr().err == ""


# The exact CC pair with off-diagonals 1e-12 and 2e-12: float arithmetic
# sees two scalars, the exact tests see coupling c = 2.
TINY_CC = ([[1, [1, 10**12]], [0, 1]], [[1, [2, 10**12]], [0, 1]])


# |tr| - 2 is just above the default class_tol of 1e-9: the edge of the
# |tr| = 2 band, where the matrix is hyperbolic (discriminant 4e-9 > 0)
BAND_EDGE = [[1.000000001, 1], [1e-9, 1]]


@pytest.mark.parametrize("command,key,answer", [
    ("classify", "combo", ["A", "B"]),
    ("canon", "sector", "AB"),
])
def test_band_edge_record(tmp_path, capsys, command, key, answer):
    inp = write_doc(tmp_path, pair_doc((BAND_EDGE, IDENT)))
    out = tmp_path / "out.jsonl"
    assert main([command, inp, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert read_lines(out)[0][key] == answer


def test_classify_rational_tiny_cc(tmp_path):
    inp = write_doc(tmp_path, pair_doc(TINY_CC))
    out = tmp_path / "out.jsonl"
    assert main(["classify", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["combo"] == ["C", "C"]
    assert rec["type1"] == rec["type2"] == {"tag": "C", "eps": 1}


# --- canon ----------------------------------------------------------------


def test_canon_aa1(tmp_path):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out)]) == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["sector"] == "AA1"
    assert rec["params"]["lam"] == pytest.approx(0.5)
    assert rec["params"]["mu"] == pytest.approx(1 / 3)
    assert len(rec["witness"]) == 2


def test_canon_rational_cc_exact_payload(tmp_path):
    doc = pair_doc(([[1, 1], [0, 1]], [[1, 2], [0, 1]]))
    doc["pairs"][0]["mode"] = "rational"
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out)]) == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["sector"] == "CC"
    assert rec["exact"]["c"] == [2, 1]
    assert rec["exact"]["det_sprime_sign"] == 1
    assert rec["params"]["alpha"] == pytest.approx(math.atan(2))


def test_canon_rational_exact_cosines(tmp_path):
    # cos = 3/5 and 4/5; their traces 6/5 and 8/5 have even numerators
    R, S = rational_rotation(2, 1), rational_rotation(3, -1)
    inp = write_doc(tmp_path, pair_doc((R, IDENT), (NEG_IDENT, S), (R, S)))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK

    def cos(U):
        q = (Fraction(*U[0][0]) + Fraction(*U[1][1])) / 2
        return [q.numerator, q.denominator]

    assert cos(R) == [3, 5] and cos(S) == [4, 5]
    db, bd, dd = read_lines(out)
    assert (db["sector"], db["exact"]) == ("DB", {"cos_theta": cos(R)})
    assert (bd["sector"], bd["exact"]) == ("BD", {"cos_phi": cos(S)})
    assert (dd["sector"], dd["exact"]) == \
        ("DD", {"cos_theta": cos(R), "cos_phi": cos(S)})
    assert math.cos(dd["params"]["theta"]) == pytest.approx(0.6)
    assert math.cos(dd["params"]["phi"]) == pytest.approx(0.8)


def test_rational_records_build_each_integer_form_once(tmp_path,
                                                        monkeypatch):
    # the form is kept on the matrix, so the commutator test, the
    # classification, the construction and the exact cosines share it
    R, S = rational_rotation(2, 1), rational_rotation(3, -1)
    pairs = ((R, IDENT), (NEG_IDENT, S), (R, S), (JORDAN, [[1, 2], [0, 1]]),
             (DIAG2, IDENT), (DIAG2, [[2, 0], [0, [1, 2]]]))
    inp = write_doc(tmp_path, pair_doc(*pairs))
    out = tmp_path / "out.jsonl"
    calls = []
    real = sl2torus.sl2.exact_integers

    def counted(U):
        calls.append(U)
        return real(U)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "sl2torus"
                and hasattr(module, "exact_integers")):
            monkeypatch.setattr(module, "exact_integers", counted)
    for command in ("classify", "canon"):
        calls.clear()
        assert main([command, inp, "--out", str(out), "--mode", "rational"]) \
            == EXIT_OK
        assert len(read_lines(out)) == len(pairs)
        assert len(calls) == 2 * len(pairs)
        assert len({id(U) for U in calls}) == len(calls)
    # the kept form is no field: equality, repr and astuple see four entries
    U = calls[0]
    V = SL2Matrix(U.a, U.b, U.c, U.d)
    assert [f.name for f in fields(SL2Matrix)] == ["a", "b", "c", "d"]
    assert astuple(U) == astuple(V) == (U.a, U.b, U.c, U.d)
    assert U == V and repr(U) == repr(V)


def test_canon_rational_tiny_cc(tmp_path):
    inp = write_doc(tmp_path, pair_doc(TINY_CC))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["sector"] == "CC"
    assert rec["exact"] == {"c": [2, 1], "det_sprime_sign": 1}
    assert rec["trace"]["c"] == 2.0
    assert rec["params"]["alpha"] == pytest.approx(math.atan(2), abs=1e-12)
    W = SL2Matrix(*rec["witness"][0], *rec["witness"][1])
    target = reconstruct("CC", rec["params"])
    for U, T in ((SL2Matrix(1.0, 1e-12, 0.0, 1.0), target.U1),
                 (SL2Matrix(1.0, 2e-12, 0.0, 1.0), target.U2)):
        assert conjugate(U, W).max_abs_diff(T) <= 1e-9


def test_canon_forbidden_combo(tmp_path):
    # hyperbolic with parabolic cannot commute: an exact (A, C) pair is
    # caught as non-commuting, a domain error, before any classification
    inp = write_doc(tmp_path, pair_doc((DIAG2, JORDAN)))
    out = tmp_path / "out.jsonl"
    assert main(["canon", inp, "--out", str(out), "--mode", "rational"]) \
        == EXIT_DOMAIN
    assert read_lines(out)[0]["error"] == "NOT_COMMUTING"


# pi to 50 places, and atan of a rational |y| <= 1/10 to within 10^-45
PI = Fraction(314159265358979323846264338327950288419716939937510, 10**50)


def exact_atan(y):
    total, power, n = y, y, 1
    while abs(power) > Fraction(1, 10**45):
        power, n = -power * y * y, n + 2
        total += power / n
    return total


COUPLINGS = [(s, k) for k in (*range(1, 20), 30, 50, 100, 200, 300)
             for s in (1, -1)]


@pytest.mark.parametrize("sign,k", COUPLINGS,
                         ids=[f"{s * 10**-k:g}" for s, k in COUPLINGS])
def test_canon_rational_tiny_coupling_both_orders(tmp_path, sign, k):
    # the coupling y = +-10^-k of [[1, y], [0, 1]] beside the pivot
    # [[1, 1], [0, 1]], below param_tol from k = 9 on: exact input has
    # tolerance 0, so the pair is CC in either order, alpha = atan(y) or
    # pi/2 - atan(y) mod 2 pi, unless alpha lies within half an ulp of an
    # end 0, pi/2 or 2 pi of its quarter arc
    y = Fraction(sign, 10**k)
    near = [[1, [sign, 10**k]], [0, 1]]
    inp = write_doc(tmp_path, pair_doc((JORDAN, near), (near, JORDAN)))
    out = tmp_path / "out.jsonl"
    code = main(["canon", inp, "--out", str(out), "--mode", "rational"])
    recs = read_lines(out)
    for rec, alpha, c in zip(recs, (exact_atan(y), PI / 2 - exact_atan(y)),
                             (y, 1 / y)):
        alpha %= 2 * PI
        end = min((0, PI / 2, 2 * PI), key=lambda e: abs(alpha - e))
        if abs(alpha - end) < math.ulp(float(end)) / 2:
            assert rec["error"] == "PARAM_OUT_OF_RANGE"
            assert rec["detail"].startswith(f"alpha = {float(end)!r} ")
            continue
        assert rec["sector"] == "CC"
        assert rec["params"]["eps1"] == rec["params"]["eps2"] == 1
        assert abs(Fraction(rec["params"]["alpha"]) - alpha) <= \
            2 * math.ulp(float(alpha))
        assert rec["exact"]["c"] == [c.numerator, c.denominator]
        if k >= 8:  # cos(alpha) rounds to 1 in the pivot's frame
            assert rec["witness"] == [[1.0, 0.0], [0.0, 1.0]]
    assert code == (EXIT_OK if all("sector" in r for r in recs)
                    else EXIT_DOMAIN)
    if code == EXIT_OK:  # the one pivot, so the one witness
        assert recs[0]["witness"] == recs[1]["witness"]


def test_canon_determinism(tmp_path):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2), (IDENT, JORDAN)))
    o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["canon", inp, "--out", str(o1)]) == EXIT_OK
    assert main(["canon", inp, "--out", str(o2)]) == EXIT_OK
    assert o1.read_bytes() == o2.read_bytes()


def test_canon_float_round_trip_serialization(tmp_path):
    # repr round-trip: the JSON floats reparse to the exact binary values
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    out = tmp_path / "out.jsonl"
    main(["canon", inp, "--out", str(out)])
    rec = read_lines(out)[0]
    assert rec["params"]["mu"] == json.loads(json.dumps(rec["params"]["mu"]))


# --- equiv ----------------------------------------------------------------


def equiv_doc(*comparisons):
    return {"comparisons": [
        {"id": f"c{i}", "left": {"U1": l1, "U2": l2},
         "right": {"U1": r1, "U2": r2}}
        for i, (l1, l2, r1, r2) in enumerate(comparisons)
    ]}


def test_equiv_equivalent(tmp_path):
    # conjugate of diag pair by [[1,1],[0,1]]
    left = (DIAG, DIAG2)
    right = ([[2, -1.5], [0, 0.5]], [[3, [-8, 3]], [0, [1, 3]]])
    inp = write_doc(tmp_path, equiv_doc(left + right))
    out = tmp_path / "out.jsonl"
    assert main(["equiv", inp, "--out", str(out)]) == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["verdict"] == "EQUIVALENT"
    assert rec["left"]["sector"] == rec["right"]["sector"] == "AA1"


def test_equiv_distinct(tmp_path):
    inp = write_doc(tmp_path, equiv_doc(
        (NEG_IDENT, JORDAN, NEG_IDENT, [[1, -1], [0, 1]])))
    out = tmp_path / "out.jsonl"
    assert main(["equiv", inp, "--out", str(out)]) == EXIT_OK
    assert read_lines(out)[0]["verdict"] == "DISTINCT"


def test_equiv_rational_tiny_cc(tmp_path):
    doc = equiv_doc(TINY_CC + (JORDAN, [[1, 2], [0, 1]]))
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "out.jsonl"
    assert main(["equiv", inp, "--out", str(out)]) == EXIT_OK
    assert read_lines(out)[0]["verdict"] == "DISTINCT"  # float: BB vs CC
    doc["comparisons"][0]["mode"] = "rational"
    inp = write_doc(tmp_path, doc)
    assert main(["equiv", inp, "--out", str(out)]) == EXIT_OK
    rec = read_lines(out)[0]
    assert rec["verdict"] == "EQUIVALENT"
    assert rec["left"]["sector"] == rec["right"]["sector"] == "CC"


def test_equiv_domain_error(tmp_path):
    inp = write_doc(tmp_path, equiv_doc((DIAG, JORDAN, IDENT, IDENT)))
    out = tmp_path / "out.jsonl"
    assert main(["equiv", inp, "--out", str(out)]) == EXIT_DOMAIN


# --- sample ---------------------------------------------------------------


def test_sample_bb_enumerates_four(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sample", "BB", "--count", "4", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    mats = {json.dumps(r["U1"]) + json.dumps(r["U2"]) for r in doc["pairs"]}
    assert len(mats) == 4


def test_sample_feeds_canon(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sample", "DD", "--count", "5", "--conjugate", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    res = tmp_path / "c.jsonl"
    assert main(["canon", str(out), "--out", str(res)]) == EXIT_OK
    assert all(r["sector"] == "DD" for r in read_lines(res))


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["sample", "CC", "--count", "3", "--seed", "9", "--out", str(a)])
    main(["sample", "CC", "--count", "3", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sample_unknown_sector():
    assert main(["sample", "ZZ"]) == EXIT_PARSE


# --- plot -----------------------------------------------------------------


@pytest.mark.parametrize("figure", ["ab", "bc", "bd", "overall"])
def test_plot_emits_csv_and_svg(tmp_path, figure):
    base = tmp_path / figure
    assert main(["plot", figure, "--out", str(base)]) == EXIT_OK
    csv_text = (tmp_path / f"{figure}.csv").read_text()
    svg_text = (tmp_path / f"{figure}.svg").read_text()
    assert csv_text.splitlines()[0] == \
        "figure,kind,component,circle,sector,params,x,y,z"
    assert svg_text.startswith("<svg") or "<svg" in svg_text


def test_plot_bc_structure(tmp_path):
    base = tmp_path / "bc"
    main(["plot", "bc", "--out", str(base)])
    rows = (tmp_path / "bc.csv").read_text().splitlines()[1:]
    circles = {r.split(",")[3] for r in rows if r.split(",")[1] == "arc"}
    arcs = {r.split(",")[2] for r in rows if r.split(",")[1] == "arc"}
    points = {r.split(",")[2] for r in rows if r.split(",")[1] == "point"}
    assert len(circles) == 4
    assert len(arcs) == 16
    assert len(points) == 16


@pytest.mark.parametrize("argv", [
    ["plot", "ab", "--det-tol", "1"],
    ["plot", "ab", "--mode", "float"],
    ["plot", "ab", "--seed", "1"],
    ["sample", "DD", "--param-tol", "1"],
    ["sample", "DD", "--mode", "rational"],
    ["classify", "in.json", "--seed", "1"],
    ["canon", "in.json", "--seed", "1"],
    ["equiv", "in.json", "--seed", "1"],
], ids=lambda argv: argv[0] + argv[2])
def test_unread_options_rejected(argv):
    # each subcommand declares only the options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_plot_deterministic(tmp_path):
    main(["plot", "bd", "--out", str(tmp_path / "x")])
    main(["plot", "bd", "--out", str(tmp_path / "y")])
    assert (tmp_path / "x.svg").read_bytes() == (tmp_path / "y.svg").read_bytes()
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


# --- --out ----------------------------------------------------------------


JUNK = b"junk\n" * 20_000


def canon_stdout(capsys, inp):
    assert main(["canon", inp]) == EXIT_OK
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("prior", ["longer", "shorter", "rerun"])
def test_out_overwrites_existing_file(tmp_path, capsys, prior):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2), (IDENT, JORDAN)))
    expected = canon_stdout(capsys, inp)
    out = tmp_path / "out.jsonl"
    if prior == "rerun":
        assert main(["canon", inp, "--out", str(out)]) == EXIT_OK
    else:
        out.write_bytes({"longer": JUNK, "shorter": b"{}\n"}[prior])
    assert main(["canon", inp, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == expected


def test_out_through_symlink_keeps_link(tmp_path, capsys):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    expected = canon_stdout(capsys, inp)
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_bytes(JUNK)
    link.symlink_to(target)
    assert main(["canon", inp, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == expected


def test_out_keeps_file_mode(tmp_path, capsys):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    expected = canon_stdout(capsys, inp)
    out = tmp_path / "out.jsonl"
    out.write_bytes(JUNK)
    out.chmod(0o600)
    assert main(["canon", inp, "--out", str(out)]) == EXIT_OK
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.read_bytes() == expected


@pytest.mark.skipif(os.name != "posix", reason="/dev/null is POSIX")
def test_out_dev_null(tmp_path):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    assert main(["canon", inp, "--out", "/dev/null"]) == EXIT_OK


def child_env():
    """The environment of a child process that imports this sl2torus."""
    src = str(Path(sl2torus.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
def test_out_dev_stdout_keeps_append_redirect(tmp_path):
    # echo old > f; sl2torus sample BB --count 1 --out /dev/stdout >> f
    argv = [sys.executable, "-m", "sl2torus", "sample", "BB", "--count", "1"]
    doc = subprocess.run(argv, env=child_env(), capture_output=True,
                         check=True).stdout
    f = tmp_path / "f"
    f.write_bytes(b"old\n")
    with open(f, "ab") as redirect:
        child = subprocess.run(argv + ["--out", "/dev/stdout"],
                               env=child_env(), stdout=redirect)
    assert child.returncode == EXIT_OK
    assert f.read_bytes() == b"old\n" + doc


def test_plot_out_over_existing_files(tmp_path):
    for ext in (".csv", ".svg"):
        (tmp_path / f"old{ext}").write_bytes(JUNK)
    assert main(["plot", "ab", "--out", str(tmp_path / "new")]) == EXIT_OK
    assert main(["plot", "ab", "--out", str(tmp_path / "old")]) == EXIT_OK
    for ext in (".csv", ".svg"):
        assert (tmp_path / f"old{ext}").read_bytes() == \
            (tmp_path / f"new{ext}").read_bytes()


# The child lowers its own file-size limit, so writing past 4 KiB fails
# with EFBIG after the in-place write has already replaced the first 4 KiB.
FSIZE_CHILD = """
import resource, signal, sys
from sl2torus.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(["canon", sys.argv[1], "--out", sys.argv[2]]))
"""


@pytest.mark.skipif(os.name != "posix", reason="RLIMIT_FSIZE is POSIX")
def test_failed_write_leaves_file_empty(tmp_path, capsys):
    inp = write_doc(tmp_path, pair_doc(*[(DIAG, DIAG2)] * 60))
    assert len(canon_stdout(capsys, inp)) > 8192
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"x" * 8192)
    child = subprocess.run([sys.executable, "-c", FSIZE_CHILD, inp, str(out)],
                           env=child_env(), capture_output=True, text=True)
    assert child.returncode == EXIT_PARSE
    assert child.stderr.startswith(f"cannot write {out}")
    assert out.read_bytes() == b""


# --- usage ----------------------------------------------------------------


@pytest.mark.parametrize("command", ["classify", "canon", "equiv", "sample",
                                     "plot"])
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    pairs = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    comps = write_doc(tmp_path, equiv_doc((DIAG, DIAG2, DIAG, DIAG2)),
                      name="comps.json")
    args = {"classify": [pairs], "canon": [pairs], "equiv": [comps],
            "sample": ["BB", "--count", "2"],
            "plot": ["ab", "--resolution", "1"]}[command]
    out = tmp_path / "no" / "such" / "x.json"
    assert main([command, *args, "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"cannot write {out}")


@pytest.mark.parametrize("argv", [
    ["plot", "ab", "--resolution", "0"],
    ["sample", "DD", "--count", "-3"],
], ids=lambda argv: argv[2])
def test_out_of_range_counts_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[3]} is below" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value", ["0", "-1", "nan", "inf", "-1e-9", "-inf", "-nan"])
@pytest.mark.parametrize(
    "option", ["--det-tol", "--class-tol", "--comm-tol", "--param-tol"])
def test_bad_tolerance_is_usage_error(tmp_path, capsys, option, value):
    inp = write_doc(tmp_path, pair_doc((DIAG, DIAG2)))
    with pytest.raises(SystemExit) as exc:
        main(["canon", inp, option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{value!r} is not a finite number above 0" in captured.err


def test_smallest_counts_accepted(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sample", "DD", "--count", "0", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == {"pairs": []}
    base = tmp_path / "ab"
    assert main(["plot", "ab", "--resolution", "1", "--out", str(base)]) \
        == EXIT_OK
    assert len((tmp_path / "ab.csv").read_text().splitlines()) > 5

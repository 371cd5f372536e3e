"""Checks of the program's answers against the planted inputs.

Every check recomputes what it needs with the benchmark's own arithmetic
(``inputs``); none compares against a saved copy of earlier output.  Each
check returns None when the answer is right, or a short reason.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

from inputs import (CONTINUOUS, DISCRETE, canonical, cc_expectation, conj,
                    det, max_abs_diff)

TOL = 1e-6
# Constants of sl2torus.oracle, restated: an equivalent search must reach
# CONVERGENCE_THRESHOLD, a distinct one must stay at or above DISTINCT_FLOOR.
CONVERGENCE_THRESHOLD = 1e-8
DISTINCT_FLOOR = 1e-3


def _floats(m):
    return tuple(float(x) for x in m)


def params_problem(sector, got, want):
    keys = set(CONTINUOUS[sector]) | set(DISCRETE[sector])
    if set(got) != keys:
        return f"parameter keys {sorted(got)}"
    for k in DISCRETE[sector]:
        if got[k] != want[k]:
            return f"{k} = {got[k]!r}, planted {want[k]!r}"
    for k in CONTINUOUS[sector]:
        if not abs(got[k] - want[k]) <= TOL:
            return f"{k} = {got[k]!r}, planted {want[k]!r}"
    return None


def witness_problem(u1, u2, w, sector, params):
    """W must have det 1 and carry the input to the canonical matrices of
    the planted parameters: W^-1 U_i W = C_i."""
    w = _floats(w)
    if not abs(det(w) - 1.0) <= TOL:
        return f"witness det {det(w)!r}"
    u1, u2 = _floats(u1), _floats(u2)
    c1, c2 = canonical(sector, params)
    scale = max(1.0, max(abs(x) for x in u1 + u2))
    err = max(max_abs_diff(conj(u1, w), c1), max_abs_diff(conj(u2, w), c2))
    if not err <= TOL * scale:
        return f"witness residual {err:.3e}"
    return None


def canonical_problem(rec, sector, params, witness):
    if sector != rec["sector"]:
        return f"sector {sector}, planted {rec['sector']}"
    return (params_problem(sector, params, rec["params"])
            or witness_problem(rec["U1"], rec["U2"], witness, sector,
                               rec["params"]))


def _fraction(e):
    return Fraction(e[0], e[1])


def exact_problem(rec, exact):
    """The "exact" block of a rational canon record: the CC coupling and
    the cosines of D angles, recomputed with Fraction arithmetic."""
    u1, u2 = rec["U1"], rec["U2"]
    want = {}
    if rec["sector"] == "CC":
        e1, e2, alpha, c = cc_expectation(u1, u2)
        want["c"] = c
        want["det_sprime_sign"] = 1 if math.cos(alpha) > 0 else -1
    if rec["sector"] in ("DB", "DD"):
        want["cos_theta"] = (u1[0] + u1[3]) / 2
    if rec["sector"] in ("BD", "DD"):
        want["cos_phi"] = (u2[0] + u2[3]) / 2
    if not want:
        return None
    if exact is None:
        return "missing exact block"
    for k, v in want.items():
        got = exact.get(k)
        if got is None:
            return f"exact {k} missing"
        got = got if k == "det_sprime_sign" else _fraction(got)
        if got != v:
            return f"exact {k} = {got}, expected {v}"
    return None


def canon_record_problem(rec, out):
    prob = canonical_problem(rec, out["sector"], out["params"],
                             [x for row in out["witness"] for x in row])
    if prob is None and rec["mode"] == "rational":
        prob = exact_problem(rec, out.get("exact"))
    return prob


_TAGS = {
    "AA1": (("A", "lam"), ("A", "mu")), "AA2": (("A", "lam"), ("A", "mu")),
    "AB": (("A", "lam"), ("B", "eps2")), "BA": (("B", "eps1"), ("A", "mu")),
    "BB": (("B", "eps1"), ("B", "eps2")), "BC": (("B", "eps1"), ("C", "eps2")),
    "CB": (("C", "eps1"), ("B", "eps2")), "BD": (("B", "eps1"), ("D", "phi")),
    "DB": (("D", "theta"), ("B", "eps2")), "CC": (("C", "eps1"), ("C", "eps2")),
    "DD": (("D", "theta"), ("D", "phi")),
}
_TYPE_FIELD = {"A": "lambda", "B": "eps", "C": "eps", "D": "theta"}


def classify_record_problem(rec, out):
    """Spectral tags of the planted sector, with the small eigenvalue of an
    A matrix, the sign of a B or C matrix and the angle of a D matrix."""
    tags = _TAGS[rec["sector"]]
    if out["combo"] != [t for t, _ in tags]:
        return f"combo {out['combo']}, planted sector {rec['sector']}"
    for (tag, key), got in zip(tags, (out["type1"], out["type2"])):
        want = rec["params"][key]
        value = got.get(_TYPE_FIELD[tag])
        if got["tag"] != tag or value is None:
            return f"type {got}, expected tag {tag}"
        if tag in "BC" and value != want:
            return f"type {got}, expected eps {want}"
        if tag in "AD" and not abs(value - want) <= TOL:
            return f"type {got}, expected {want!r}"
    return None


def equiv_record_problem(comp, out):
    want = "EQUIVALENT" if comp["equivalent"] else "DISTINCT"
    if out["verdict"] != want:
        return f"verdict {out['verdict']}, planted {comp['kind']}"
    for side in ("left", "right"):
        got = out[side]
        if got["sector"] != comp["sector"]:
            return f"{side} sector {got['sector']}, planted {comp['sector']}"
        prob = params_problem(comp["sector"], got["params"],
                              comp[side]["params"])
        if prob:
            return f"{side} {prob}"
    return None


def figure_rows_expected(n):
    """Rows of `plot overall` at resolution n, by kind, and the number of
    distinct components of each kind."""
    rows = {"sheet": 8 * n * n, "edge": 8 * n, "vertex": 8, "arc": 24 * n,
            "point": 16, "patch": 4 * n * n}
    comps = {"sheet": 2, "edge": 8, "vertex": 4, "arc": 24, "point": 16,
             "patch": 4}
    return rows, comps


def plot_problem(csv_text, svg_text, n):
    rows_want, comps_want = figure_rows_expected(n)
    reader = csv.DictReader(io.StringIO(csv_text))
    rows, comps = {}, {}
    for r in reader:
        if r["figure"] != "overall":
            return f"row of figure {r['figure']!r}"
        if not all(math.isfinite(float(r[k])) for k in "xyz"):
            return f"non-finite coordinates in {r}"
        rows[r["kind"]] = rows.get(r["kind"], 0) + 1
        comps.setdefault(r["kind"], set()).add(r["component"])
    if rows != rows_want:
        return f"rows by kind {rows}, expected {rows_want}"
    comps = {k: len(v) for k, v in comps.items()}
    if comps != comps_want:
        return f"components by kind {comps}, expected {comps_want}"
    circles = svg_text.count("<circle ")
    if circles != sum(rows_want.values()):
        return f"{circles} SVG points, expected {sum(rows_want.values())}"
    return None


def _residual(s, p, q):
    return max(max_abs_diff(conj(_floats(u), s), _floats(v))
               for u, v in zip(p, q))


def search_problem(case, rep):
    """An equivalent search must converge to a conjugator the benchmark
    verifies; a distinct search must stay at or above the floor."""
    s = tuple(rep["best_S"])
    if not abs(det(s) - 1.0) <= 1e-9 * max(1.0, max(abs(x) for x in s)) ** 2:
        return f"best_S det {det(s)!r}"
    r = _residual(s, case["p"], case["q"])
    if not abs(r - rep["residual"]) <= 1e-9 + 1e-6 * r:
        return f"reported residual {rep['residual']!r}, recomputed {r!r}"
    if case["kind"] == "equivalent":
        if not (rep["converged"] and r <= CONVERGENCE_THRESHOLD):
            return f"equivalent pair not found: residual {r:.3e}"
    elif rep["converged"] or r < DISTINCT_FLOOR:
        return (f"distinct pair found equivalent: residual {r:.3e}, "
                f"converged {rep['converged']}")
    return None

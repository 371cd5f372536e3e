"""Planted inputs for the benchmark, built with the benchmark's own
arithmetic so that every expected answer is known without running the
program.

Matrices are row-major 4-tuples ``(a, b, c, d)`` of floats or Fractions.
Every random draw comes from ``rng_for(seed, *labels)``, which hashes the
integer seed and the labels with SHA-256, so the inputs do not depend on
``PYTHONHASHSEED`` or on the order in which other inputs were drawn.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

SECTORS = ("AA1", "AA2", "AB", "BA", "BB", "BC", "CB", "BD", "DB", "CC", "DD")
CONTINUOUS = {
    "AA1": ("lam", "mu"), "AA2": ("lam", "mu"), "AB": ("lam",),
    "BA": ("mu",), "BB": (), "BC": (), "CB": (), "BD": ("phi",),
    "DB": ("theta",), "CC": ("alpha",), "DD": ("theta", "phi"),
}
DISCRETE = {
    "AA1": (), "AA2": (), "AB": ("eps2",), "BA": ("eps1",),
    "BB": ("eps1", "eps2"), "BC": ("eps1", "eps2", "eps4"),
    "CB": ("eps1", "eps2", "eps3"), "BD": ("eps1",), "DB": ("eps2",),
    "CC": ("eps1", "eps2"), "DD": (),
}
# Sectors whose det -1 twin is a different SL(2,R) class.
TWIN_SECTORS = ("BC", "CB", "CC", "BD", "DB", "DD")

# Sampling ranges of the program's own sampler (sl2torus.atlas and
# sl2torus.constants).  Conjugators stay inside CONJ_LOG_SCALE_RANGE and
# CONJ_SHEAR_RANGE, where no record is rejected by the absolute det and
# commutator tolerances.
LAM_RANGE = (0.05, 0.95)
ANGLE_MARGIN = 0.05
LOG_SCALE_RANGE = (-2.0, 2.0)
SHEAR_RANGE = (-2.0, 2.0)

TWO_PI = 2.0 * math.pi
_UNIT = ("lam", "mu")
_ANGLE_COMPONENTS = ((0.0, math.pi), (math.pi, TWO_PI))
_ALPHA_COMPONENTS = tuple(
    (k * math.pi / 2, (k + 1) * math.pi / 2) for k in range(4)
)


def rng_for(seed: int, *labels) -> random.Random:
    digest = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# 2x2 arithmetic
# ---------------------------------------------------------------------------


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def inv(m):
    a, b, c, d = m
    k = det(m)
    return (d / k, -b / k, -c / k, a / k)


def conj(m, s):
    """S^-1 M S."""
    return mul(mul(inv(s), m), s)


def max_abs_diff(m, n):
    return max(abs(x - y) for x, y in zip(m, n))


def _diag(x):
    return (x, 0, 0, 1 / x)


def _scalar(e):
    return (e, 0, 0, e)


def _jordan(e, off):
    return (e, off, 0, e)


def _rotation(t):
    co, si = math.cos(t), math.sin(t)
    return (co, -si, si, co)


FLIP = (-1, 0, 0, 1)  # det -1 and its own inverse


def canonical(sector, p):
    """The literal canonical matrices of a sector at parameters ``p``."""
    if sector == "AA1":
        return _diag(p["lam"]), _diag(p["mu"])
    if sector == "AA2":
        return _diag(p["lam"]), _diag(1 / p["mu"])
    if sector == "AB":
        return _diag(p["lam"]), _scalar(p["eps2"])
    if sector == "BA":
        return _scalar(p["eps1"]), _diag(p["mu"])
    if sector == "BB":
        return _scalar(p["eps1"]), _scalar(p["eps2"])
    if sector == "BC":
        return _scalar(p["eps1"]), _jordan(p["eps2"], p["eps4"])
    if sector == "CB":
        return _jordan(p["eps1"], p["eps3"]), _scalar(p["eps2"])
    if sector == "BD":
        return _scalar(p["eps1"]), _rotation(p["phi"])
    if sector == "DB":
        return _rotation(p["theta"]), _scalar(p["eps2"])
    if sector == "CC":
        return (_jordan(p["eps1"], math.cos(p["alpha"])),
                _jordan(p["eps2"], math.sin(p["alpha"])))
    if sector == "DD":
        return _rotation(p["theta"]), _rotation(p["phi"])
    raise ValueError(sector)


def conjugator(rng):
    """Rotation x positive diagonal x unit upper shear, inside the ranges
    of the program's sampler."""
    om = rng.uniform(0.0, TWO_PI)
    s = rng.uniform(*LOG_SCALE_RANGE)
    x = rng.uniform(*SHEAR_RANGE)
    co, si = math.cos(om), math.sin(om)
    es, ei = math.exp(s), math.exp(-s)
    return (co * es, co * es * x - si * ei, si * es, si * es * x + co * ei)


def sample_params(sector, rng):
    p = {k: rng.choice((1, -1)) for k in DISCRETE[sector]}
    for k in CONTINUOUS[sector]:
        if k in _UNIT:
            p[k] = rng.choice((1, -1)) * rng.uniform(*LAM_RANGE)
        else:
            comps = _ALPHA_COMPONENTS if k == "alpha" else _ANGLE_COMPONENTS
            lo, hi = rng.choice(comps)
            p[k] = rng.uniform(lo + ANGLE_MARGIN, hi - ANGLE_MARGIN)
    return p


def distinct_params(sector, p, rng):
    """A second point of the same sector in another class: the rule of the
    program's oracle-discrimination acceptance test."""
    out = dict(p)
    if DISCRETE[sector]:
        k = rng.choice(DISCRETE[sector])
        out[k] = -out[k]
        return out
    k = rng.choice(CONTINUOUS[sector])
    v = out[k]
    if k in _UNIT:
        out[k] = math.copysign(0.5 * abs(v) + 0.02, v)
        if abs(out[k] - v) < 0.01:
            out[k] = math.copysign(abs(v) * 0.3 + 0.04, v)
    else:
        lo, hi = (0.0, math.pi) if v < math.pi else (math.pi, TWO_PI)
        out[k] = lo + (hi - lo) * (0.8 if (v - lo) / (hi - lo) < 0.5 else 0.2)
    return out


def twin_params(sector, p):
    """Canonical parameters of the pair conjugated by FLIP (det -1)."""
    out = dict(p)
    if sector == "BC":
        out["eps4"] = -p["eps4"]
    elif sector == "CB":
        out["eps3"] = -p["eps3"]
    elif sector == "CC":
        out["alpha"] = (p["alpha"] + math.pi) % TWO_PI
    else:
        for k in ("theta", "phi"):
            if k in p:
                out[k] = TWO_PI - p[k]
    return out


def planted_pair(sector, params, rng):
    """(U1, U2) = S^-1 C S for the canonical C and a random conjugator."""
    s = conjugator(rng)
    c1, c2 = canonical(sector, params)
    return conj(c1, s), conj(c2, s)


# ---------------------------------------------------------------------------
# records: each carries its inputs and the planted answer
# ---------------------------------------------------------------------------


def float_pair(seed, sector, i, label):
    rng = rng_for(seed, label, sector, i)
    params = sample_params(sector, rng)
    u1, u2 = planted_pair(sector, params, rng)
    return {"sector": sector, "params": params, "U1": u1, "U2": u2,
            "mode": "float"}


def comparison(seed, sector, i, kind, label):
    """kind: 'conjugate' (equivalent), 'partner' (another class of the same
    sector) or 'twin' (det -1 conjugate, a different class)."""
    rng = rng_for(seed, label, sector, i, kind)
    params = sample_params(sector, rng)
    left = planted_pair(sector, params, rng)
    if kind == "conjugate":
        right_params = params
        right = planted_pair(sector, params, rng)
    elif kind == "partner":
        right_params = distinct_params(sector, params, rng)
        right = planted_pair(sector, right_params, rng)
    else:
        # FLIP-conjugate the canonical pair, then apply one conjugator:
        # flipping `left` itself would stack two conjugators and leave the
        # sampler's range
        right_params = twin_params(sector, params)
        s = conjugator(rng)
        right = tuple(conj(conj(c, FLIP), s) for c in canonical(sector, params))
    return {"kind": kind, "sector": sector,
            "left": {"params": params, "U1": left[0], "U2": left[1]},
            "right": {"params": right_params, "U1": right[0],
                      "U2": right[1]},
            "equivalent": kind == "conjugate"}


def comparisons(seed, blocks, label):
    """Per sector and block: a planted conjugate, a different-parameter
    partner and, for the six twin sectors, a det -1 twin."""
    out = []
    for b in range(blocks):
        for sector in SECTORS:
            kinds = ("conjugate", "partner")
            if sector in TWIN_SECTORS:
                kinds += ("twin",)
            out.extend(comparison(seed, sector, b, k, label) for k in kinds)
    for n, c in enumerate(out):
        c["id"] = f"q{n}"
    return out


def oracle_case(seed, r):
    """Round r of the oracle workload: one planted equivalent and one
    planted distinct pair of sector r mod 11, in the distribution of the
    oracle-discrimination acceptance test.  The first pair of each search
    is the canonical pair itself."""
    sector = SECTORS[r % len(SECTORS)]
    cases = []
    for kind in ("equivalent", "distinct"):
        rng = rng_for(seed, "oracle", r, kind)
        params = sample_params(sector, rng)
        other = params if kind == "equivalent" else \
            distinct_params(sector, params, rng)
        p = canonical(sector, params)
        q = planted_pair(sector, other, rng)
        cases.append({"kind": kind, "sector": sector, "params": params,
                      "p": p, "q": q, "search_seed": r})
    return cases


# ---------------------------------------------------------------------------
# rational records
# ---------------------------------------------------------------------------

# Pythagorean (cos, sin) pairs: rotations with rational entries.
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                (20, 21, 29), (12, 35, 37), (9, 40, 41))


def _rational_unit(rng):
    q = rng.randint(2, 6)
    return Fraction(rng.choice((1, -1)) * rng.randint(1, q - 1), q)


def _rational_rotation(rng):
    a, b, c = rng.choice(_PYTHAGOREAN)
    if rng.random() < 0.5:
        a, b = b, a
    co = Fraction(rng.choice((1, -1)) * a, c)
    si = Fraction(rng.choice((1, -1)) * b, c)
    return (co, -si, si, co)


def _rational_conjugator(rng):
    """Product of rational shears and a rational diagonal: det exactly 1.
    Entries stay at or below 20, so the float images of the exact entries
    keep their determinant within the program's absolute tolerance."""
    p = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    r = Fraction(rng.randint(1, 2), rng.randint(1, 2))
    return mul(mul((1, p, 0, 1), (1, 0, q, 1)), (r, 0, 0, 1 / r))


def _angle(co, si):
    a = math.atan2(float(si), float(co))
    return a if a > 0 else a + TWO_PI


def rational_pair(seed, sector, i):
    """An exact rational pair of the sector: rational canonical-like
    matrices conjugated by a rational unit-determinant matrix."""
    rng = rng_for(seed, "rational", sector, i)
    e = lambda: rng.choice((1, -1))  # noqa: E731
    p = {}
    if sector in ("AA1", "AA2", "AB", "BA"):
        lam, mu = _rational_unit(rng), _rational_unit(rng)
        if sector == "AA1":
            m1, m2, p = _diag(lam), _diag(mu), {"lam": lam, "mu": mu}
        elif sector == "AA2":
            m1, m2, p = _diag(lam), _diag(1 / mu), {"lam": lam, "mu": mu}
        elif sector == "AB":
            p = {"lam": lam, "eps2": e()}
            m1, m2 = _diag(lam), _scalar(p["eps2"])
        else:
            p = {"eps1": e(), "mu": mu}
            m1, m2 = _scalar(p["eps1"]), _diag(mu)
    elif sector == "BB":
        p = {"eps1": e(), "eps2": e()}
        m1, m2 = _scalar(p["eps1"]), _scalar(p["eps2"])
    elif sector in ("BC", "CB"):
        k = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * e()
        eb, ec = e(), e()
        if sector == "BC":
            p = {"eps1": eb, "eps2": ec, "eps4": 1 if k > 0 else -1}
            m1, m2 = _scalar(eb), _jordan(ec, k)
        else:
            p = {"eps1": ec, "eps2": eb, "eps3": 1 if k > 0 else -1}
            m1, m2 = _jordan(ec, k), _scalar(eb)
    elif sector == "CC":
        x = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * e()
        y = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * e()
        p = {"eps1": e(), "eps2": e(), "alpha": _angle(x, y)}
        m1, m2 = _jordan(p["eps1"], x), _jordan(p["eps2"], y)
    elif sector in ("BD", "DB"):
        r = _rational_rotation(rng)
        eb = e()
        if sector == "BD":
            p = {"eps1": eb, "phi": _angle(r[0], r[2])}
            m1, m2 = _scalar(eb), r
        else:
            p = {"theta": _angle(r[0], r[2]), "eps2": eb}
            m1, m2 = r, _scalar(eb)
    else:  # DD
        r1, r2 = _rational_rotation(rng), _rational_rotation(rng)
        p = {"theta": _angle(r1[0], r1[2]), "phi": _angle(r2[0], r2[2])}
        m1, m2 = r1, r2
    s = _rational_conjugator(rng)
    u1 = tuple(Fraction(x) for x in conj(m1, s))
    u2 = tuple(Fraction(x) for x in conj(m2, s))
    params = {k: (v if isinstance(v, int) else float(v)) for k, v in p.items()}
    return {"sector": sector, "params": params, "U1": u1, "U2": u2,
            "mode": "rational"}


def cc_expectation(u1, u2):
    """Sector data of an exact CC pair: (eps1, eps2, alpha, c).

    With N_i = U_i - eps_i I, N2 = c N1.  A nilpotent [[a, b], [g, -a]] is
    SL(2,R)-conjugate to a positive multiple of [[0, s], [0, 0]] with
    s = sign(b - g), so the canonical (cos alpha, sin alpha) is a positive
    multiple of (s, s c)."""
    e1 = 1 if u1[0] + u1[3] > 0 else -1
    e2 = 1 if u2[0] + u2[3] > 0 else -1
    n1 = (u1[0] - e1, u1[1], u1[2], u1[3] - e1)
    n2 = (u2[0] - e2, u2[1], u2[2], u2[3] - e2)
    k = next(i for i in range(4) if n1[i] != 0)
    c = Fraction(n2[k]) / Fraction(n1[k])
    s = 1 if n1[1] - n1[2] > 0 else -1
    return e1, e2, _angle(s, s * c), c


# The rational CC pairs with off-diagonals of order 1e-12.  They are exact
# CC pairs, but canon reports sector BB for them while its own "exact" block
# gives the coupling c and classify says (C, C).  They are the same in every
# run and count as failed operations until that fault is mended.
_TINY = 10 ** 12
TINY_CC = (
    ((1, Fraction(1, _TINY), 0, 1), (1, Fraction(2, _TINY), 0, 1)),
    ((-1, Fraction(1, _TINY), 0, -1), (1, Fraction(-3, _TINY), 0, 1)),
    ((1, 0, Fraction(1, _TINY), 1), (-1, 0, Fraction(5, 10 * _TINY), -1)),
    ((1, Fraction(3, _TINY), 0, 1), (-1, Fraction(-1, _TINY), 0, -1)),
)


def tiny_cc_records():
    out = []
    for u1, u2 in TINY_CC:
        u1 = tuple(Fraction(x) for x in u1)
        u2 = tuple(Fraction(x) for x in u2)
        e1, e2, alpha, _ = cc_expectation(u1, u2)
        out.append({"sector": "CC", "mode": "rational", "tiny": True,
                    "params": {"eps1": e1, "eps2": e2, "alpha": alpha},
                    "U1": u1, "U2": u2})
    return out


# ---------------------------------------------------------------------------
# JSON documents for the CLI
# ---------------------------------------------------------------------------


def _entry(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else \
            [x.numerator, x.denominator]
    return x


def json_matrix(m):
    return [[_entry(m[0]), _entry(m[1])], [_entry(m[2]), _entry(m[3])]]


def cli_records(seed, per_sector, rational_per_sector):
    """Pair records of the cli-batch workload, in document order."""
    recs = []
    for i in range(per_sector):
        recs.extend(float_pair(seed, s, i, "cli-pair") for s in SECTORS)
    for i in range(rational_per_sector):
        recs.extend(rational_pair(seed, s, i) for s in SECTORS)
    recs.extend(tiny_cc_records())
    for n, r in enumerate(recs):
        r["id"] = f"p{n}"
    return recs


def pair_document(records):
    return {"pairs": [
        {"id": r["id"], "mode": r["mode"], "U1": json_matrix(r["U1"]),
         "U2": json_matrix(r["U2"])} for r in records]}


def equiv_document(comps):
    return {"comparisons": [
        {"id": c["id"], "mode": "float",
         "left": {"U1": json_matrix(c["left"]["U1"]),
                  "U2": json_matrix(c["left"]["U2"])},
         "right": {"U1": json_matrix(c["right"]["U1"]),
                   "U2": json_matrix(c["right"]["U2"])}}
        for c in comps]}

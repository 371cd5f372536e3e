"""Canonical representatives of commuting pairs under simultaneous
unit-determinant conjugation: the eleven sectors and the domains of their
parameters, an explicit conjugating witness, reconstruction from
parameters, and the equivalence decision."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateCC, ParamOutOfRange, SL2TorusError
from .pairs import CommutingPair
from .sl2 import (
    DEFAULT_TOL,
    SL2Matrix,
    SpectralType,
    ToleranceConfig,
    classify,
    conjugate,
    float_copy,
    integer_form,
    rotation,
    scalar_band,
)

SECTORS = ("AA1", "AA2", "AB", "BA", "BB", "BC", "CB", "BD", "DB", "CC", "DD")

# Parameter layout per sector: which keys are continuous, which discrete.
SECTOR_CONTINUOUS = {
    "AA1": ("lam", "mu"),
    "AA2": ("lam", "mu"),
    "AB": ("lam",),
    "BA": ("mu",),
    "BB": (),
    "BC": (),
    "CB": (),
    "BD": ("phi",),
    "DB": ("theta",),
    "CC": ("alpha",),
    "DD": ("theta", "phi"),
}
SECTOR_DISCRETE = {
    "AA1": (),
    "AA2": (),
    "AB": ("eps2",),
    "BA": ("eps1",),
    "BB": ("eps1", "eps2"),
    "BC": ("eps1", "eps2", "eps4"),
    "CB": ("eps1", "eps2", "eps3"),
    "BD": ("eps1",),
    "DB": ("eps2",),
    "CC": ("eps1", "eps2"),
    "DD": (),
}

_TWO_PI = 2.0 * math.pi

SIGNS = (1, -1)  # the values of every discrete parameter

# Open components of every continuous parameter, numbered in this order by
# component_index; their endpoints are excluded.  lam and mu are real
# eigenvalues, theta, phi and alpha angles.
_UNIT = ((-1.0, 0.0), (0.0, 1.0))
_ANGLE = ((0.0, math.pi), (math.pi, _TWO_PI))
AXIS_COMPONENTS = {
    "lam": _UNIT,
    "mu": _UNIT,
    "theta": _ANGLE,
    "phi": _ANGLE,
    "alpha": ((0.0, math.pi / 2), (math.pi / 2, math.pi),
              (math.pi, 3 * math.pi / 2), (3 * math.pi / 2, _TWO_PI)),
}


@dataclass(slots=True)
class CanonTrace:
    """Audit record of the constructive steps that produced a canonical form.

    ``c`` is the CC coupling scalar, tan(alpha) = c; on an exact pair (all
    entries Fractions) it is computed exactly and is a Fraction."""

    c: float | None = None
    det_sprime_sign: int | None = None  # sign of det S' before repair
    branch_notes: tuple = ()


@dataclass(slots=True)
class CanonicalPair:
    sector: str
    params: dict
    witness: SL2Matrix
    trace: CanonTrace = field(default_factory=CanonTrace)

    def continuous(self):
        return tuple(self.params[k] for k in SECTOR_CONTINUOUS[self.sector])

    def discrete(self):
        return tuple(self.params[k] for k in SECTOR_DISCRETE[self.sector])


def apply_conjugation(p: CommutingPair, S: SL2Matrix) -> CommutingPair:
    return CommutingPair(conjugate(p.U1, S), conjugate(p.U2, S))


def component_index(name: str, value) -> int:
    """Index of the open component of parameter ``name`` that holds value;
    ParamOutOfRange on an excluded boundary, outside the range, or NaN."""
    for i, (lo, hi) in enumerate(AXIS_COMPONENTS[name]):
        if lo < value < hi:
            return i
    raise ParamOutOfRange(
        f"{name} = {value!r} not in any of {AXIS_COMPONENTS[name]}"
    )


def check_params(sector: str, params: dict) -> None:
    """ParamOutOfRange unless sector is known, its discrete parameters are
    +-1 and its continuous ones lie in an open component."""
    if sector not in SECTOR_DISCRETE:
        raise ParamOutOfRange(f"unknown sector {sector!r}")
    for k in SECTOR_DISCRETE[sector]:
        if params[k] not in SIGNS:
            raise ParamOutOfRange(f"{k} = {params[k]!r} not in {{+1, -1}}")
    for k in SECTOR_CONTINUOUS[sector]:
        component_index(k, params[k])


def _diag(x):
    return SL2Matrix(x, 0.0, 0.0, 1.0 / x)


def _scalar(eps):
    return SL2Matrix(float(eps), 0.0, 0.0, float(eps))


def _jordan(eps, off):
    return SL2Matrix(float(eps), float(off), 0.0, float(eps))


# the two canonical matrices of each sector; unlike reconstruct, no check,
# so they can be evaluated at the ends of the open components (a diagonal
# entry that runs to infinity raises ZeroDivisionError)
CANONICAL = {
    "AA1": lambda p: (_diag(p["lam"]), _diag(p["mu"])),
    "AA2": lambda p: (_diag(p["lam"]), _diag(1.0 / p["mu"])),
    "AB": lambda p: (_diag(p["lam"]), _scalar(p["eps2"])),
    "BA": lambda p: (_scalar(p["eps1"]), _diag(p["mu"])),
    "BB": lambda p: (_scalar(p["eps1"]), _scalar(p["eps2"])),
    "BC": lambda p: (_scalar(p["eps1"]), _jordan(p["eps2"], p["eps4"])),
    "CB": lambda p: (_jordan(p["eps1"], p["eps3"]), _scalar(p["eps2"])),
    "BD": lambda p: (_scalar(p["eps1"]), rotation(p["phi"])),
    "DB": lambda p: (rotation(p["theta"]), _scalar(p["eps2"])),
    "CC": lambda p: (_jordan(p["eps1"], math.cos(p["alpha"])),
                     _jordan(p["eps2"], math.sin(p["alpha"]))),
    "DD": lambda p: (rotation(p["theta"]), rotation(p["phi"])),
}


def reconstruct(sector: str, params: dict) -> CommutingPair:
    """The literal canonical matrices of the given sector and parameters."""
    check_params(sector, params)
    return CommutingPair(*CANONICAL[sector](params))


# ---------------------------------------------------------------------------
# one construction per spectral family of the pivot P (A, C or D), as if P
# were U1; its partner O is scalar (xy is None) or O = xI + yP; exact says
# that both matrices are exact, when x and y are Fractions
# ---------------------------------------------------------------------------


def _columns(v, w) -> SL2Matrix:
    return SL2Matrix(v[0], w[0], v[1], w[1])


def _det2(v, w):
    """det(v, w); SL2TorusError when v and w are parallel."""
    d = v[0] * w[1] - v[1] * w[0]
    if d == 0:
        raise SL2TorusError(f"basis {v!r}, {w!r} is degenerate, det 0")
    return d


def _canon_A(P, t: SpectralType, xy, exact, cfg: ToleranceConfig):
    lam, (v, w) = t.lam, t.basis  # small-|eigenvalue| direction first
    # w rescaled so that the column matrix has det 1
    d = _det2(v, w)
    S = _columns(v, (w[0] / d, w[1] / d))
    sgn = 1 if d > 0 else -1
    if not xy:
        return "AB", {"lam": lam}, S, None, sgn
    x, y = float(xy[0]), float(xy[1])
    # AA1 if O also contracts v, else AA2, whose mu is O's eigenvalue on w
    mu = x + y * lam
    if abs(mu) < 1.0:
        return "AA1", {"lam": lam, "mu": mu}, S, None, sgn
    return "AA2", {"lam": lam, "mu": x + y / lam}, S, None, sgn


def _unit_basis(v, w, exact):
    """Column matrix of v and w scaled to determinant 1, with v negated
    when det(v, w) < 0, and the sign of det(v, w).  SL2TorusError when v
    and w are parallel, or when an exact column has a float entry beyond
    the float range.  On exact columns, four Fractions, the determinant
    and its sign are exact, and the columns and |det| become floats only
    after the negation, each correctly rounded once."""
    d = _det2(v, w)
    sgn = 1 if d > 0 else -1
    if sgn < 0:  # an exact 0 negates to 0, whose float is 0.0, not -0.0
        v, d = (-v[0], -v[1]), -d
    try:
        if exact:
            v, w, d = ((float(v[0]), float(v[1])),
                       (float(w[0]), float(w[1])), float(d))
        r = 1.0 / math.sqrt(d)
        return _columns((v[0] * r, v[1] * r), (w[0] * r, w[1] * r)), sgn
    except OverflowError:
        raise SL2TorusError("witness beyond the float range") from None


def _canon_C(P, t: SpectralType, xy, exact, cfg: ToleranceConfig):
    """CB, or CC with O = xI + yP.  On an exact pair x, y and P's basis
    are Fractions: the float code runs on them with tolerance 0, so the
    vanishing coupling, eps2 and the sign of det(v1, w) are exact, and y
    and the basis become floats only then, each correctly rounded once."""
    v1, w = t.basis  # P v1 = eps v1, P w = v1 + eps w
    if not xy:
        # a negative basis is repaired with diag(-1, 1); the off-diagonal
        # sign flips and the two signs are not related by any
        # unit-determinant conjugation
        S, sgn = _unit_basis(v1, w, exact)
        return "CB", {"eps1": t.eps, "eps3": sgn}, S, None, sgn
    # O w = y v1 + eps2 w, so the coupling U2 w - eps2 w = c v1 is c = y
    c = xy[1]
    if abs(c) <= (0 if exact else cfg.param_tol):
        raise DegenerateCC(f"coupling scalar {c!r} vanishes within "
                           "tolerance")
    eps2 = 1 if xy[0] + c * t.eps > 0 else -1
    sgn = 1 if _det2(v1, w) > 0 else -1
    # the exact P of a mixed pair has a Fraction basis too; float(F) op x
    # is F op x, without the mixed operation
    cf = float(c)
    v1, w = (float(v1[0]), float(v1[1])), (float(w[0]), float(w[1]))
    base = math.atan(cf)  # in (-pi/2, pi/2), cos > 0
    if sgn > 0:  # the sign of c, as cf can round to 0
        alpha = base if c > 0 else base + _TWO_PI
    else:
        alpha = base + math.pi
    cos_a = math.cos(alpha)
    # det(v1 / cos(alpha), w) = det(v1, w) / cos(alpha) > 0
    S, _ = _unit_basis((v1[0] / cos_a, v1[1] / cos_a), w, False)
    return "CC", {"eps1": t.eps, "eps2": eps2, "alpha": alpha}, S, c, sgn


def _rotation_angle(si, co) -> float:
    ang = math.atan2(si, co)
    return ang if ang > 0 else ang + _TWO_PI


def _canon_D(P, t: SpectralType, xy, exact, cfg: ToleranceConfig):
    # flipping the first basis vector applies angle -> 2*pi - angle
    S, sgn = _unit_basis(*t.basis, False)
    R = conjugate(float_copy(P), S)  # the rotation by P's angle
    theta = _rotation_angle(R.c, R.a)
    if not xy:
        return "DB", {"theta": theta}, S, None, sgn
    x, y = float(xy[0]), float(xy[1])
    phi = _rotation_angle(y * R.c, x + y * R.a)  # arg(x + y exp(i theta))
    return "DD", {"theta": theta, "phi": phi}, S, None, sgn


# keyed by the tag of the pivot; each returns (sector, params, witness, c,
# sign of det S' before repair) as if P were U1, with a scalar O's eps2
# left out; the BB witness is a new identity, not sl2.IDENTITY, which a
# caller could change through the answer
_FAMILY = {"A": _canon_A, "C": _canon_C, "D": _canon_D,
           "B": lambda P, t, *_: ("BB", {"eps1": t.eps},
                                  SL2Matrix(1.0, 0.0, 0.0, 1.0), None,
                                  None)}

# the exchange of U1 and U2, [[0, 1], [1, 0]] in GL(2, Z), renames sectors
# and parameters; it commutes with simultaneous conjugation, so the
# witness is kept except in AA2
_EXCHANGE = {"AB": "BA", "BA": "AB", "CB": "BC", "BC": "CB", "DB": "BD",
             "BD": "DB"}
_EXCHANGE_PARAM = {"eps1": "eps2", "eps2": "eps1", "eps3": "eps4",
                   "eps4": "eps3", "lam": "mu", "mu": "lam",
                   "theta": "phi", "phi": "theta", "alpha": "alpha"}


def _exchange(sector, params, S, c, sgn):
    """(sector, params, witness, c, sign) with U1 and U2 exchanged.  CC and
    DD negate the sign when U2 = xI + yU1 with y < 0; y has the sign of c,
    and of sin(phi) / sin(theta)."""
    params = {_EXCHANGE_PARAM[k]: v for k, v in params.items()}
    if sector == "AA2":  # S [[0, 1], [-1, 0]] swaps the diagonal
        S, sgn = SL2Matrix(-S.b, S.a, -S.d, S.c), -sgn
    elif sector == "CC":  # cos and sin exchanged
        params["alpha"] = (math.pi / 2 - params["alpha"]) % _TWO_PI
        c, sgn = 1 / c, -sgn if c < 0 else sgn
    elif sector == "DD" and (params["theta"] < math.pi) != (
            params["phi"] < math.pi):
        sgn = -sgn
    return _EXCHANGE.get(sector, sector), params, S, c, sgn


def _traceless(U: SL2Matrix, exact):
    """(h, t, n, k, g): U's traceless part ((a - d)/2, b, c) is h / n and
    its trace t / n, h[k] is the first entry of the largest size g = |h[k]|;
    integers with n > 0 from U's integer form on an exact pair, else floats
    (Fractions for the exact matrix of a mixed pair), n = 1."""
    if exact:
        a, b, c, d, m = integer_form(U)
        h, t, n = (a - d, 2 * b, 2 * c), 2 * (a + d), 2 * m
    else:
        h, t, n = ((U.a - U.d) / 2, U.b, U.c), U.a + U.d, 1
    x, y, z = abs(h[0]), abs(h[1]), abs(h[2])
    if x >= y and x >= z:
        return h, t, n, 0, x
    return (h, t, n, 1, y) if y >= z else (h, t, n, 2, z)


def canonicalize(p: CommutingPair, cfg: ToleranceConfig = DEFAULT_TOL) -> CanonicalPair:
    """Sector, parameters and witness of p.  Only the pivot P, the matrix
    whose traceless part ((a - d)/2, b, c) has the larger entry, is
    classified.  Its partner O is B by classify's test, or else O = xI + yP
    (Horn & Johnson, 3.2.4), with y the ratio of the traceless parts at
    P's largest entry, which cannot overflow as a squared norm can.  On an
    exact pair the pivot, x and y are computed in integers, as every exact
    record needs them, and x and y are Fractions; the C family's signs are
    then decided in Fraction arithmetic (see _canon_C)."""
    U1, U2 = p.U1, p.U2
    exact = integer_form(U1) is not None and integer_form(U2) is not None
    h1, t1, n1, k1, g1 = _traceless(U1, exact)
    h2, t2, n2, k2, g2 = _traceless(U2, exact)
    swap = g2 * n1 > g1 * n2
    if swap:
        P, O, k = U2, U1, k2
        hP, hO, tP, tO, nP, nO = h2, h1, t2, t1, n2, n1
    else:
        P, O, k = U1, U2, k1
        hP, hO, tP, tO, nP, nO = h1, h2, t1, t2, n1, n2
    eps_o, o_scalar = scalar_band(O, cfg)
    t = classify(P, cfg)
    if t.tag == "B" and not o_scalar:
        # only with det_tol well above class_tol: O becomes the pivot
        P, t, eps_o, o_scalar, swap = (
            O, classify(O, cfg), t.eps, True, not swap)
    xy = None
    if not o_scalar:
        if hP[k] == 0:  # P is a scalar off +-I by more than class_tol
            raise SL2TorusError(f"basis of scalar {P!r} is degenerate")
        if exact:  # y = yn / yd, and x = (tr O - y tr P) / 2 as below
            y = Fraction(hO[k] * nP, hP[k] * nO)
            yn, yd = y.numerator, y.denominator
            xy = (Fraction(tO * nP * yd - yn * tP * nO, 2 * nO * nP * yd), y)
        else:
            y = hO[k] / hP[k]
            xy = ((tO - y * tP) / 2, y)
    sector, params, S, c, sgn = _FAMILY[t.tag](P, t, xy, exact, cfg)
    if o_scalar:
        params["eps2"] = eps_o
    if swap:  # P is U2
        sector, params, S, c, sgn = _exchange(sector, params, S, c, sgn)
    notes = ("BB trivial",) if sector == "BB" else (sector,)
    result = CanonicalPair(sector, params, S, CanonTrace(c, sgn, notes))
    # witness validity check: conjugating the input by the witness must
    # reproduce the reconstructed canonical matrices
    target = reconstruct(sector, params)
    Q1, Q2 = float_copy(U1), float_copy(U2)
    tol = 10.0 * cfg.param_tol * max(
        1.0, abs(Q1.a), abs(Q1.b), abs(Q1.c), abs(Q1.d),
        abs(Q2.a), abs(Q2.b), abs(Q2.c), abs(Q2.d))
    err = _witness_error(Q1, Q2, S, target)
    if err > tol and (Q1 is not U1 or Q2 is not U2):
        # a float product rounds an exact entry far below the float range
        # to zero, so exact input that fails is checked again exactly
        err = _witness_error(U1, U2, _fractions(S), CommutingPair(
            _fractions(target.U1), _fractions(target.U2)))
    if err > tol:
        try:
            size = f"err {float(err):.3e}"
        except OverflowError:  # an exact err too large for a float
            size = "err beyond the float range"
        raise SL2TorusError(
            f"internal witness validation failed ({sector}, {size})")
    return result


def _fractions(M: SL2Matrix) -> SL2Matrix:
    return SL2Matrix(*(Fraction(x) for x in (M.a, M.b, M.c, M.d)))


def _witness_error(U1, U2, W, target: CommutingPair):
    """Largest entry of |W^-1 Ui W - Ti| over i = 1, 2, T the target pair,
    entry by entry with the operations of conjugate and of
    SL2Matrix.max_abs_diff in the same order, so it is the same number as
    max(conjugate(Ui, W).max_abs_diff(Ti) for both i)."""
    sa, sb, sc, sd = W.a, W.b, W.c, W.d
    nb, nc = -sb, -sc
    T1, T2 = target.U1, target.U2
    ma, mb = sd * U1.a + nb * U1.c, sd * U1.b + nb * U1.d
    mc, md = nc * U1.a + sa * U1.c, nc * U1.b + sa * U1.d
    e1 = max(abs(ma * sa + mb * sc - T1.a), abs(ma * sb + mb * sd - T1.b),
             abs(mc * sa + md * sc - T1.c), abs(mc * sb + md * sd - T1.d))
    ma, mb = sd * U2.a + nb * U2.c, sd * U2.b + nb * U2.d
    mc, md = nc * U2.a + sa * U2.c, nc * U2.b + sa * U2.d
    e2 = max(abs(ma * sa + mb * sc - T2.a), abs(ma * sb + mb * sd - T2.b),
             abs(mc * sa + md * sc - T2.c), abs(mc * sb + md * sd - T2.d))
    return max(e1, e2)


def equivalent(
    p: CommutingPair, q: CommutingPair, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    return same_class(canonicalize(p, cfg), canonicalize(q, cfg), cfg)


def same_class(
    cp: CanonicalPair, cq: CanonicalPair, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Whether two canonical forms name the same equivalence class: same
    sector and discrete parameters, continuous ones within param_tol."""
    if cp.sector != cq.sector or cp.discrete() != cq.discrete():
        return False
    return all(
        abs(x - y) <= cfg.param_tol for x, y in zip(cp.continuous(), cq.continuous())
    )

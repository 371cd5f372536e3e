"""Canonical representatives of commuting pairs under simultaneous
unit-determinant conjugation: the eleven sectors and the domains of their
parameters, an explicit conjugating witness, reconstruction from
parameters, and the equivalence decision."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateCC, ParamOutOfRange, SL2TorusError
from .pairs import CommutingPair, spectral_types
from .sl2 import (
    DEFAULT_TOL,
    IDENTITY,
    SL2Matrix,
    SpectralType,
    ToleranceConfig,
    conjugate,
    is_exact,
    rotation,
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


@dataclass(frozen=True)
class CanonTrace:
    """Audit record of the constructive steps that produced a canonical form.

    ``c`` is the CC coupling scalar, tan(alpha) = c; on an exact pair (all
    entries Fractions) it is computed exactly and is a Fraction."""

    c: float | None = None
    det_sprime_sign: int | None = None  # sign of det S' before repair
    branch_notes: tuple = ()


@dataclass(frozen=True)
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
# one construction per spectral family of U1: hyperbolic (A), parabolic (C)
# or elliptic (D); U2 is of the same family or scalar (B)
# ---------------------------------------------------------------------------


def _columns(v, w) -> SL2Matrix:
    return SL2Matrix(v[0], w[0], v[1], w[1])


def _det2(v, w):
    return v[0] * w[1] - v[1] * w[0]


def _canon_A(p: CommutingPair, t1: SpectralType, t2: SpectralType,
             cfg: ToleranceConfig):
    v, w = t1.basis  # small-|eigenvalue| direction first
    # w rescaled so that the column matrix has det 1
    d = _det2(v, w)
    S = _columns(v, (w[0] / d, w[1] / d))
    sgn = 1 if d > 0 else -1
    lam = conjugate(p.U1, S).a
    if t2.tag == "B":
        return "AB", {"lam": lam, "eps2": t2.eps}, S, None, sgn
    C2 = conjugate(p.U2, S)
    # AA1 if U2 also contracts the first direction, else AA2, whose mu is
    # the eigenvalue of U2 on the second
    if abs(C2.a) < 1.0:
        return "AA1", {"lam": lam, "mu": C2.a}, S, None, sgn
    return "AA2", {"lam": lam, "mu": C2.d}, S, None, sgn


def _unit_basis(v, w):
    """Column matrix of v and w scaled to determinant 1, with v negated
    when det(v, w) < 0, and the sign of det(v, w).  SL2TorusError when v
    and w are parallel, or when an exact column has a float entry beyond
    the float range."""
    try:
        d = _det2(v, w)
        if d == 0:
            raise SL2TorusError(f"basis {v!r}, {w!r} is degenerate, det 0")
        sgn = 1 if d > 0 else -1
        if sgn < 0:
            v, d = (-v[0], -v[1]), -d
        r = 1.0 / math.sqrt(d)
        return _columns((v[0] * r, v[1] * r), (w[0] * r, w[1] * r)), sgn
    except OverflowError:
        raise SL2TorusError("witness beyond the float range") from None


def _canon_C(p: CommutingPair, t1: SpectralType, t2: SpectralType,
             cfg: ToleranceConfig):
    v1, w = t1.basis
    if t2.tag == "B":
        # a negative basis is repaired with diag(-1, 1); the off-diagonal
        # sign flips and the two signs are not related by any
        # unit-determinant conjugation
        S, sgn = _unit_basis(v1, w)
        return "CB", {"eps1": t1.eps, "eps2": t2.eps, "eps3": sgn}, S, None, sgn
    d = _det2(v1, w)
    sgn = 1 if d > 0 else -1
    # U2 w - eps2 w = c * v1 for some c != 0
    rw = (
        p.U2.a * w[0] + p.U2.b * w[1] - t2.eps * w[0],
        p.U2.c * w[0] + p.U2.d * w[1] - t2.eps * w[1],
    )
    nv = v1[0] * v1[0] + v1[1] * v1[1]
    c = (rw[0] * v1[0] + rw[1] * v1[1]) / nv
    if abs(c) <= cfg.param_tol:
        raise DegenerateCC(f"coupling scalar {c!r} vanishes within tolerance")
    base = math.atan(c)  # in (-pi/2, pi/2), cos > 0
    if sgn > 0:
        alpha = base if base > 0 else base + _TWO_PI
    else:
        alpha = base + math.pi
    cos_a = math.cos(alpha)
    # det(v1 / cos(alpha), w) = d / cos(alpha) > 0
    S, _ = _unit_basis((v1[0] / cos_a, v1[1] / cos_a), w)
    return "CC", {"eps1": t1.eps, "eps2": t2.eps, "alpha": alpha}, S, c, sgn


def _rotation_angle(C: SL2Matrix) -> float:
    ang = math.atan2(C.c, C.a)
    return ang if ang > 0 else ang + _TWO_PI


def _canon_D(p: CommutingPair, t1: SpectralType, t2: SpectralType,
             cfg: ToleranceConfig):
    x, y = t1.basis
    # flipping the first basis vector applies angle -> 2*pi - angle
    S, sgn = _unit_basis(x, y)
    theta = _rotation_angle(conjugate(p.U1, S))
    if t2.tag == "B":
        return "DB", {"theta": theta, "eps2": t2.eps}, S, None, sgn
    # joint eigenvector of U1, validated against U2
    u = (complex(x[0], y[0]) / 2, complex(x[1], y[1]) / 2)
    i = 0 if abs(u[0]) >= abs(u[1]) else 1
    im = (
        p.U2.a * u[0] + p.U2.b * u[1],
        p.U2.c * u[0] + p.U2.d * u[1],
    )
    mu = im[i] / u[i]
    resid = max(abs(im[0] - mu * u[0]), abs(im[1] - mu * u[1]))
    if resid > 10.0 * cfg.class_tol * max(1.0, abs(u[0]), abs(u[1])):
        raise SL2TorusError(
            f"joint eigenvector validation failed, residual {resid:.3e}"
        )
    phi = _rotation_angle(conjugate(p.U2, S))
    return "DD", {"theta": theta, "phi": phi}, S, None, sgn


# keyed by the tag of U1; each returns (sector, params, witness, c, sign of
# det S' before repair)
_FAMILY = {"A": _canon_A, "C": _canon_C, "D": _canon_D}

# BA, BC and BD are AB, CB and DB with U1 and U2 exchanged; simultaneous
# conjugation commutes with the exchange, so one witness serves both
_MIRROR = {"AB": "BA", "CB": "BC", "DB": "BD"}
_MIRROR_PARAM = {"eps1": "eps2", "eps2": "eps1", "eps3": "eps4",
                 "lam": "mu", "theta": "phi"}


def canonicalize(p: CommutingPair, cfg: ToleranceConfig = DEFAULT_TOL) -> CanonicalPair:
    """Sector, parameters and witness of p.  Each matrix is classified once;
    the construction of the non-scalar matrix's family receives the two
    spectral types."""
    t1, t2 = spectral_types(p, cfg)
    if t1.tag == t2.tag == "B":
        result = CanonicalPair(
            "BB", {"eps1": t1.eps, "eps2": t2.eps}, IDENTITY,
            CanonTrace(branch_notes=("BB trivial",)),
        )
    else:
        if t1.tag == "B":
            sector, params, S, c, sgn = _FAMILY[t2.tag](
                CommutingPair(p.U2, p.U1), t2, t1, cfg)
            sector = _MIRROR[sector]
            params = {_MIRROR_PARAM[k]: v for k, v in params.items()}
        else:
            sector, params, S, c, sgn = _FAMILY[t1.tag](p, t1, t2, cfg)
        result = CanonicalPair(sector, params, S, CanonTrace(c, sgn, (sector,)))
    # witness validity check: conjugating the input by the witness must
    # reproduce the reconstructed canonical matrices
    target = reconstruct(result.sector, result.params)
    W = result.witness
    tol = 10.0 * cfg.param_tol * _scale(p)
    err = _witness_error(p, W, target)
    if err > tol and (is_exact(p.U1) or is_exact(p.U2)):
        # a float product rounds an exact entry far below the float range
        # to zero, so exact input that fails is checked again exactly
        W = SL2Matrix(*(Fraction(x) for x in (W.a, W.b, W.c, W.d)))
        err = _witness_error(p, W, target)
    if err > tol:
        raise SL2TorusError(
            f"internal witness validation failed ({result.sector}, err {err:.3e})"
        )
    return result


def _witness_error(p: CommutingPair, W: SL2Matrix, target: CommutingPair):
    got = apply_conjugation(p, W)
    return max(got.U1.max_abs_diff(target.U1), got.U2.max_abs_diff(target.U2))


def _scale(p: CommutingPair):
    return max(
        1.0,
        abs(p.U1.a), abs(p.U1.b), abs(p.U1.c), abs(p.U1.d),
        abs(p.U2.a), abs(p.U2.b), abs(p.U2.c), abs(p.U2.d),
    )


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

"""Core 2x2 unit-determinant matrix arithmetic and single-matrix spectral
classification.

A matrix is hyperbolic (two real eigenvalues lambda, 1/lambda), scalar
(plus or minus the identity), parabolic non-scalar (single eigendirection
with eigenvalue +-1), or elliptic (no real eigenvalues, rotation-like).
These are the tags A, B, C, D.

Exactness is a property of the matrix: one whose four entries are all
``Fraction``s is exact, and every tolerance applied to it is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ClassificationAmbiguous,
    DeterminantError,
    ParamOutOfRange,
)

# Scalar-deviation band: below class_tol we call a near-scalar matrix B,
# above AMBIG_FACTOR*class_tol we call it C, in between we refuse.
AMBIG_FACTOR = 10.0


@dataclass(frozen=True)
class ToleranceConfig:
    det_tol: float = 1e-9
    class_tol: float = 1e-9
    comm_tol: float = 1e-9
    param_tol: float = 1e-8

    def __post_init__(self):
        for name in ("det_tol", "class_tol", "comm_tol", "param_tol"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and above 0")


DEFAULT_TOL = ToleranceConfig()


@dataclass(slots=True)
class SL2Matrix:
    """Row-major 2x2 real matrix; construction via make_sl2 enforces det = 1.
    The entries are floats, or all Fractions for an exact matrix.

    Like the pair, spectral-type and canonical-form objects, it is a
    slotted dataclass: it compares by value and cannot be hashed.  The
    package never changes one after building it, and callers should treat
    it as read-only.  ``ToleranceConfig`` stays frozen."""

    a: float
    b: float
    c: float
    d: float

    def trace(self) -> float:
        return self.a + self.d

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inv(self) -> "SL2Matrix":
        # adjugate; valid because det = 1
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, o: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def apply(self, v):
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def entries(self):
        return [[self.a, self.b], [self.c, self.d]]

    def max_abs_diff(self, o: "SL2Matrix") -> float:
        return max(
            abs(self.a - o.a), abs(self.b - o.b),
            abs(self.c - o.c), abs(self.d - o.d),
        )


IDENTITY = SL2Matrix(1.0, 0.0, 0.0, 1.0)


def rotation(angle: float) -> SL2Matrix:
    co, si = math.cos(angle), math.sin(angle)
    return SL2Matrix(co, -si, si, co)


def sl2_from_coords(omega: float, s: float, x: float) -> SL2Matrix:
    """Rotation * positive diagonal scaling * unit upper shear; covers the
    whole group (Iwasawa-style product)."""
    co, si = math.cos(omega), math.sin(omega)
    es = math.exp(s)
    ei = 1.0 / es
    # R(omega) @ diag(es, ei) @ [[1, x], [0, 1]]
    return SL2Matrix(
        co * es, co * es * x - si * ei,
        si * es, si * es * x + co * ei,
    )


def conjugate(U: SL2Matrix, S: SL2Matrix) -> SL2Matrix:
    """S^{-1} U S, entry by entry: (adj(S) U) S with the operations of
    ``S.inv() @ U @ S`` in the same order, so every result is the same."""
    sa, sb, sc, sd = S.a, S.b, S.c, S.d
    ma = sd * U.a + -sb * U.c
    mb = sd * U.b + -sb * U.d
    mc = -sc * U.a + sa * U.c
    md = -sc * U.b + sa * U.d
    return SL2Matrix(
        ma * sa + mb * sc, ma * sb + mb * sd,
        mc * sa + md * sc, mc * sb + md * sd,
    )


def commutator_norm(U1: SL2Matrix, U2: SL2Matrix) -> float:
    """Largest entry of |U1 U2 - U2 U1|, entry by entry with the operations
    of ``(U1 @ U2).max_abs_diff(U2 @ U1)`` in the same order."""
    a1, b1, c1, d1 = U1.a, U1.b, U1.c, U1.d
    a2, b2, c2, d2 = U2.a, U2.b, U2.c, U2.d
    return max(
        abs((a1 * a2 + b1 * c2) - (a2 * a1 + b2 * c1)),
        abs((a1 * b2 + b1 * d2) - (a2 * b1 + b2 * d1)),
        abs((c1 * a2 + d1 * c2) - (c2 * a1 + d2 * c1)),
        abs((c1 * b2 + d1 * d2) - (c2 * b1 + d2 * d1)),
    )


def _all_fractions(a, b, c, d) -> bool:
    return (type(a) is Fraction and type(b) is Fraction
            and type(c) is Fraction and type(d) is Fraction)


def is_exact(U: SL2Matrix) -> bool:
    """True when all four entries are Fractions, so tests on U are exact."""
    return (type(U.a) is Fraction and type(U.b) is Fraction
            and type(U.c) is Fraction and type(U.d) is Fraction)


def make_sl2(a, b, c, d, cfg: ToleranceConfig = DEFAULT_TOL) -> SL2Matrix:
    """Validating constructor; rejects (never renormalizes) non-unit det.

    Four Fraction entries are kept and their determinant, tested in
    integers, must be exactly 1; any other input is converted to floats."""
    if _all_fractions(a, b, c, d):
        dad, dbc = a.denominator * d.denominator, b.denominator * c.denominator
        if (a.numerator * d.numerator * dbc - b.numerator * c.numerator * dad
                != dad * dbc):
            raise DeterminantError(a * d - b * c)
        return SL2Matrix(a, b, c, d)
    det = a * d - b * c
    # written so that a NaN determinant fails too
    if not abs(det - 1) <= cfg.det_tol:
        raise DeterminantError(det)
    return SL2Matrix(float(a), float(b), float(c), float(d))


def float_copy(U: SL2Matrix) -> SL2Matrix:
    """U with float entries if exact.  Fraction op float is float(F) op x,
    so an expression that takes each entry into a float operation first
    gives the same bits on the copy; not so -F / x (0.0 for F = 0, -0.0 on
    the copy) or F1 * F2 + x (rounded once, on the copy twice)."""
    if not is_exact(U):
        return U
    return SL2Matrix(float(U.a), float(U.b), float(U.c), float(U.d))


def binary_exponent(x: Fraction) -> int:
    """e with 2**(e-1) < x < 2**(e+1), for x > 0.  Scaling by a power of
    two is exact, for Fractions and for floats in the normal range, so it
    changes no float result but brings tiny or huge Fractions into the
    float range."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _real_eigendirection(U: SL2Matrix, lam: float):
    """Unit kernel vector of U - lam*I, sign-normalized."""
    r1 = (U.a - lam, U.b)
    r2 = (U.c, U.d - lam)
    row = r1 if math.hypot(*r1) >= math.hypot(*r2) else r2
    n = math.hypot(row[1], -row[0])
    if n == 0.0:
        raise ValueError("zero eigendirection")
    x, y = row[1] / n, -row[0] / n
    # sign convention: first nonzero component positive
    if x < 0 or (abs(x) < 1e-14 and y < 0):
        x, y = -x, -y
    return (x, y)


def _parabolic_basis(U: SL2Matrix, eps):
    """Columns v1, w with U v1 = eps v1 and U w = v1 + eps w, for a
    non-scalar parabolic U.  v1 is the larger column of the nilpotent part
    N = U - eps*I, which spans the kernel of N, and w the standard basis
    vector with N w = v1, which yields the identity witness on canonical
    input."""
    c1 = (U.a - eps, U.c)
    c2 = (U.b, U.d - eps)
    exact = is_exact(U)
    if exact:  # by largest entry, so that a tiny one is not rounded to zero
        second = max(map(abs, c2)) >= max(map(abs, c1))
    else:
        second = math.hypot(*c2) >= math.hypot(*c1)
    v1, w = (c2, (0, 1)) if second else (c1, (1, 0))
    if not exact:
        return v1, w
    # scaled by a power of two to determinant near 1, so that a nilpotent
    # part far below the float range keeps its witness
    det = v1[0] * w[1] - v1[1] * w[0]
    s = Fraction(2) ** (binary_exponent(abs(det)) // 2)
    return (v1[0] / s, v1[1] / s), (w[0] / s, w[1] / s)


@dataclass(slots=True)
class SpectralType:
    tag: str  # "A" | "B" | "C" | "D"
    lam: float | None = None       # A: signed eigenvalue, 0 < |lam| < 1
    eps: int | None = None         # B, C: +-1
    theta: float | None = None     # D: angle in (0,pi) u (pi,2pi)
    # A, C, D: columns v, w of a real basis putting U in its family's normal
    # form.  A: unit eigenvectors, small-|eigenvalue| first; C: U v = eps v,
    # U w = v + eps w; D: twice the real and imaginary parts of an
    # eigenvector for exp(i theta0), theta0 in (0, pi) before 2 pi - theta
    basis: tuple = field(default=())


def trace_class(U: SL2Matrix, cfg: ToleranceConfig = DEFAULT_TOL) -> str:
    """The one |tr| = 2 band decision, which classify and scalar_band read:
    with off = |tr U| - 2, parabolic when |off| <= class_tol (0 on an exact
    matrix), else hyperbolic when off > 0 and elliptic when off < 0.  For
    |tr| in [1, 4], off is exact in floats (Sterbenz), and so is its sign."""
    t, exact = U.trace(), is_exact(U)
    # on an exact U, off times the positive denominator of t: an integer
    off = abs(t.numerator) - 2 * t.denominator if exact else abs(t) - 2
    if abs(off) <= (0 if exact else cfg.class_tol):
        return "parabolic"
    return "hyperbolic" if off > 0 else "elliptic"


def _scalar_test(U: SL2Matrix, cfg: ToleranceConfig):
    """(eps, scalar) for U in the parabolic band: eps the sign of tr U, and
    whether U is eps*I within class_tol; ClassificationAmbiguous between
    class_tol and AMBIG_FACTOR * class_tol."""
    eps = 1 if U.trace() > 0 else -1
    if is_exact(U):  # tolerance 0, so no band
        return eps, U.b == 0 and U.c == 0 and U.a == eps and U.d == eps
    tol = cfg.class_tol
    dev = max(abs(U.a - eps), abs(U.b), abs(U.c), abs(U.d - eps))
    if tol < dev < AMBIG_FACTOR * tol:
        raise ClassificationAmbiguous(
            f"scalar deviation {dev:.3e} in the unresolved band"
        )
    return eps, dev <= tol


def scalar_band(U: SL2Matrix, cfg: ToleranceConfig = DEFAULT_TOL):
    """classify's B test: (eps, scalar), eps the sign of tr U when
    trace_class says parabolic, else None, and whether U is then eps*I
    within tolerance."""
    if trace_class(U, cfg) != "parabolic":
        return None, False
    return _scalar_test(U, cfg)


def classify(U: SL2Matrix, cfg: ToleranceConfig = DEFAULT_TOL) -> SpectralType:
    """Spectral type of U and its normal-form basis, in the family that
    trace_class names.  On an exact matrix the tolerance is 0, so the
    |tr| = 2 tests are exact and ClassificationAmbiguous cannot occur.
    Integer constants keep Fraction arithmetic exact up to the square roots
    and the final float results."""
    band = trace_class(U, cfg)
    t = U.trace()
    if band == "hyperbolic":
        # the large-modulus root has no cancellation and t*t cannot
        # overflow; the small one is its inverse, since det = 1
        s = abs(t)
        disc = math.sqrt(s - 2) * math.sqrt(s + 2)
        lam_inv = math.copysign((s + disc) / 2.0, t)
        lam = 1.0 / lam_inv                # the member with |lam| < 1
        if not 0 < abs(lam) < 1:  # exact |t| within float resolution of 2
            raise ParamOutOfRange(f"lam = {lam!r} rounds to a boundary")
        v_small = _real_eigendirection(U, lam)
        v_big = _real_eigendirection(U, lam_inv)
        return SpectralType("A", lam=lam, basis=(v_small, v_big))
    if band == "parabolic":
        eps, scalar = _scalar_test(U, cfg)
        if scalar:
            return SpectralType("B", eps=eps)
        return SpectralType("C", eps=eps, basis=_parabolic_basis(U, eps))
    # elliptic
    co = max(-1.0, min(1.0, t / 2.0))
    theta = math.acos(co)
    if not 0 < theta < math.pi:
        # an exact |t| within float resolution of 2: the angle's distance
        # from 0 or pi, from the exact 2 - |t|
        off = 2.0 * math.asin(math.sqrt((2 - abs(t)) / 4))
        theta = off if t > 0 else math.pi - off
    ev = complex(co, math.sin(theta))  # exp(i theta0), even if co is +-1
    if U.c - U.b < 0:
        theta = 2.0 * math.pi - theta
    if theta in (0.0, math.pi, 2.0 * math.pi):
        raise ParamOutOfRange(f"theta = {theta!r} rounds to a boundary")
    # the kernel of U - ev*I, from the row with the larger off-diagonal entry
    if abs(U.b) >= abs(U.c):
        u = (complex(U.b), ev - U.a)
    else:
        u = (ev - U.d, complex(U.c))
    return SpectralType("D", theta=theta, basis=(
        (2.0 * u[0].real, 2.0 * u[1].real),
        (2.0 * u[0].imag, 2.0 * u[1].imag),
    ))

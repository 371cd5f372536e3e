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


@dataclass
class SL2Matrix:
    """Row-major 2x2 real matrix; construction via make_sl2 enforces det = 1.
    The entries are floats, or all Fractions for an exact matrix.

    Like the pair, spectral-type and canonical-form objects, it is a
    slotted dataclass: it compares by value and cannot be hashed.  The
    package never changes one after building it, and callers should treat
    it as read-only: ``integer_form`` keeps the matrix's integer form in
    the slot ``_form``, which is no field, so equality, ``repr`` and
    ``astuple`` see only the entries.  ``ToleranceConfig`` stays frozen."""

    __slots__ = ("a", "b", "c", "d", "_form")

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


def is_exact(U: SL2Matrix) -> bool:
    """True when all four entries are Fractions, so tests on U are exact."""
    return (type(U.a) is Fraction and type(U.b) is Fraction
            and type(U.c) is Fraction and type(U.d) is Fraction)


def make_sl2(a, b, c, d, cfg: ToleranceConfig = DEFAULT_TOL) -> SL2Matrix:
    """Validating constructor; rejects (never renormalizes) non-unit det.

    Four Fraction entries are kept, and their integer form is built here,
    once: A D - B C must be exactly m^2.  Any other input becomes floats.
    This is is_exact's test, on the arguments before a matrix is built."""
    if (type(a) is Fraction and type(b) is Fraction
            and type(c) is Fraction and type(d) is Fraction):
        U = SL2Matrix(a, b, c, d)
        A, B, C, D, m = U._form = exact_integers(U)
        if A * D - B * C != m * m:
            raise DeterminantError(a * d - b * c)
        return U
    det = a * d - b * c
    # written so that a NaN determinant fails too
    if not abs(det - 1) <= cfg.det_tol:
        raise DeterminantError(det)
    U = SL2Matrix(float(a), float(b), float(c), float(d))
    U._form = None  # known float, so integer_form need not test the entries
    return U


def float_copy(U: SL2Matrix) -> SL2Matrix:
    """U with float entries if exact, else U itself.  Fraction op float is
    float(F) op x, so an expression that takes each entry into a float
    operation first gives the same bits on the copy; not so -F / x (0.0 for
    F = 0, -0.0 on the copy) or F1 * F2 + x (rounded once, on the copy
    twice).  A / m is float(a), both correctly rounded quotients of one
    rational."""
    F = integer_form(U)
    if F is None:
        return U
    A, B, C, D, m = F
    return SL2Matrix(A / m, B / m, C / m, D / m)


def exact_integers(U: SL2Matrix):
    """(A, B, C, D, m) for an exact U: its entries times m, the product of
    their denominators, all integers, m > 0.  Exact decisions compare these,
    and a float of an exact quantity is an integer quotient such as A / m:
    it is correctly rounded, so it is the float Fraction arithmetic gives;
    the trace is (A + D) / m."""
    a, b, c, d = U.a, U.b, U.c, U.d
    da, db, dc, dd = a.denominator, b.denominator, c.denominator, d.denominator
    dab, dcd = da * db, dc * dd
    return (a.numerator * db * dcd, b.numerator * da * dcd,
            c.numerator * dab * dd, d.numerator * dab * dc, dab * dcd)


def integer_form(U: SL2Matrix):
    """U's integer form: exact_integers(U) on an exact U, else None, built
    by make_sl2 or on first use and kept on the matrix, so every decision
    on U reads it instead of testing U's entries again."""
    try:
        return U._form
    except AttributeError:
        F = U._form = exact_integers(U) if is_exact(U) else None
        return F


def binary_exponent(x: Fraction) -> int:
    """e with 2**(e-1) < |x| < 2**(e+1), for x != 0.  Scaling by a power of
    two is exact, for Fractions and for floats in the normal range, so it
    changes no float result but brings tiny or huge Fractions into the
    float range."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _real_eigendirection(a, b, c, d, minus_c, lam):
    """Unit kernel vector of [[a, b], [c, d]] - lam*I, sign-normalized.
    minus_c is -c as a float; for an exact c = 0 it is the float of the
    exact -c, 0.0, where negating the float copy would give -0.0."""
    if math.hypot(a - lam, b) >= math.hypot(c, d - lam):
        x, y = b, -(a - lam)
    else:
        x, y = d - lam, minus_c
    n = math.hypot(x, y)
    if n == 0.0:
        raise ValueError("zero eigendirection")
    x, y = x / n, y / n
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
    F = integer_form(U)
    if F is None:
        c1, c2 = (U.a - eps, U.c), (U.b, U.d - eps)
        if math.hypot(*c2) >= math.hypot(*c1):
            return c2, (0, 1)
        return c1, (1, 0)
    # by largest entry, so that a tiny one is not rounded to zero
    A, B, C, D, m = F
    second = max(abs(B), abs(D - eps * m)) >= max(abs(A - eps * m), abs(C))
    # the column (b, d - eps) or (a - eps, c) and w times a power of two
    # s, so that det(v1, w), which is b or -c, comes near 1 and a
    # nilpotent part far below the float range keeps its witness
    off, diag = (U.b, U.d) if second else (U.c, U.a)
    s = Fraction(2) ** -(binary_exponent(off) // 2)
    off, diag, zero = off * s, (diag - eps) * s, Fraction(0)
    if second:
        return (off, diag), (zero, s)
    return (diag, off), (s, zero)


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
    F = integer_form(U)
    if F is not None:  # off times the denominator m > 0 of the form F
        A, _, _, D, m = F
        off, tol = abs(A + D) - 2 * m, 0
    else:
        off, tol = abs(U.a + U.d) - 2, cfg.class_tol
    if abs(off) <= tol:
        return "parabolic"
    return "hyperbolic" if off > 0 else "elliptic"


def _scalar_test(U: SL2Matrix, cfg: ToleranceConfig):
    """(eps, scalar) for U in the parabolic band: eps the sign of tr U, and
    whether U is eps*I within class_tol; ClassificationAmbiguous between
    class_tol and AMBIG_FACTOR * class_tol."""
    F = integer_form(U)
    if F is not None:  # tolerance 0, so no band
        A, B, C, D, m = F
        eps = 1 if A + D > 0 else -1
        return eps, B == 0 and C == 0 and A == eps * m and D == eps * m
    eps = 1 if U.a + U.d > 0 else -1
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
    Every other decision on an exact matrix is made on its integers (see
    ``exact_integers``), and every float is an integer quotient, rounded
    once, so the results are those of Fraction arithmetic, in which
    Fraction op float is float(F) op x."""
    band = trace_class(U, cfg)
    if band == "parabolic":
        eps, scalar = _scalar_test(U, cfg)
        if scalar:
            return SpectralType("B", eps=eps)
        return SpectralType("C", eps=eps, basis=_parabolic_basis(U, eps))
    # U is [[A, B], [C, D]] / m: integers on an exact U, else the float
    # entries over 1, where each expression below is the float one; the
    # entries become floats only after the boundary checks, so that one
    # beyond the float range raises where it did in Fraction arithmetic
    F = integer_form(U)
    exact = F is not None
    if exact:
        A, B, C, D, m = F
        t = (A + D) / m
    else:
        A, B, C, D, m = U.a, U.b, U.c, U.d, 1
        t = A + D
    if band == "hyperbolic":
        # the large-modulus root has no cancellation and t*t cannot
        # overflow; the small one is its inverse, since det = 1
        s, n = abs(t), abs(A + D)
        disc = math.sqrt((n - 2 * m) / m) * math.sqrt((n + 2 * m) / m)
        lam_inv = (s + disc) / 2.0 if t > 0 else -(s + disc) / 2.0
        lam = 1.0 / lam_inv                # the member with |lam| < 1
        if not 0 < abs(lam) < 1:  # exact |t| within float resolution of 2
            raise ParamOutOfRange(f"lam = {lam!r} rounds to a boundary")
        a, b, c, d = (A / m, B / m, C / m, D / m) if exact else (A, B, C, D)
        v_small = _real_eigendirection(a, b, c, d, -C / m, lam)
        v_big = _real_eigendirection(a, b, c, d, -C / m, lam_inv)
        return SpectralType("A", lam=lam, basis=(v_small, v_big))
    # elliptic
    co = max(-1.0, min(1.0, t / 2.0))
    theta = math.acos(co)
    if not 0 < theta < math.pi:
        # an exact |t| within float resolution of 2: the angle's distance
        # from 0 or pi, from the exact 2 - |t|
        off = 2.0 * math.asin(math.sqrt((2 * m - abs(A + D)) / (4 * m)))
        theta = off if t > 0 else math.pi - off
    ev = complex(co, math.sin(theta))  # exp(i theta0), even if co is +-1
    if C < B:
        theta = 2.0 * math.pi - theta
    if theta in (0.0, math.pi, 2.0 * math.pi):
        raise ParamOutOfRange(f"theta = {theta!r} rounds to a boundary")
    # the kernel of U - ev*I, from the row with the larger off-diagonal entry
    a, b, c, d = (A / m, B / m, C / m, D / m) if exact else (A, B, C, D)
    if abs(B) >= abs(C):
        u = (complex(b), ev - a)
    else:
        u = (ev - d, complex(c))
    return SpectralType("D", theta=theta, basis=(
        (2.0 * u[0].real, 2.0 * u[1].real),
        (2.0 * u[0].imag, 2.0 * u[1].imag),
    ))

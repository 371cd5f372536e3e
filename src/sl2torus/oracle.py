"""Construction-free verification tools: a direct linear-algebra solve for a
conjugator between two pairs, and exact-rational classification for
boundary cases.

The conjugator solve uses nothing of the canonical construction (no
eigenvectors, no sectors).  ``S^-1 U_i S = V_i`` holds exactly when
``U_i S - S V_i = 0``, which is linear in ``vec S = (a, b, c, d)``
(the Kronecker/vec form of the Sylvester equation).  The solutions of both
equations form the intertwiner space; the pairs are SL(2,R)-conjugate
exactly when the determinant, a quadratic form on that space, takes a
positive value there.  Gaussian elimination finds the space and Jacobi
rotations the largest value of the form on it, in plain Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .pairs import CommutingPair
from .sl2 import (
    SL2Matrix,
    SpectralType,
    classify,
    conjugate,
    make_sl2,
)

CONVERGENCE_THRESHOLD = 1e-8
DISTINCT_FLOOR = 1e-3  # empirical separation, not a mathematical claim

# Elimination with complete pivoting stops at the first pivot of at most
# RANK_TOL * max(1, largest entry of the system); the columns left without
# a pivot span the intertwiner space.
RANK_TOL = 1e-9
# On an orthonormal basis of the intertwiner space the determinant form has
# eigenvalues in [-1/2, 1/2]; the pairs count as conjugate only when the
# largest exceeds SIGN_TOL.  For reflection (det -1) twins of BC and CB it
# is exactly 0.
SIGN_TOL = 1e-9
# Jacobi rotations end after a sweep that rotates nothing; on a matrix of
# order 4 or less that takes a handful of sweeps
_JACOBI_SWEEPS = 30


@dataclass(frozen=True)
class ConjugatorSearchReport:
    best_S: SL2Matrix
    residual: float
    iterations: int
    converged: bool


def _sylvester_rows(U: SL2Matrix, V: SL2Matrix):
    """The four rows of U S - S V as a linear map of vec S = (a, b, c, d)."""
    return [
        [U.a - V.a, -V.c, U.b, 0.0],
        [-V.b, U.a - V.d, 0.0, U.b],
        [U.c, 0.0, U.d - V.a, -V.c],
        [0.0, U.c, -V.b, U.d - V.d],
    ]


def _det_form(s, t):
    """The polar form of the determinant: det S = _det_form(s, s) for
    s = vec S."""
    return 0.5 * (s[0] * t[3] + s[3] * t[0] - s[1] * t[2] - s[2] * t[1])


def _eliminate(rows):
    """Gaussian elimination with complete pivoting on the float copy of the
    4-column ``rows``, stopped at the first pivot of at most
    RANK_TOL * max(1, largest entry); the largest entry is the first pivot.
    Returns the rows, whose first ``rank`` are the echelon rows, the
    columns (pivot columns in pivot order, then the rest) and the rank,
    the number of pivots taken."""
    A = [list(map(float, row)) for row in rows]
    pivots, free = [], [0, 1, 2, 3]
    for k in range(4):
        piv = -1.0
        for i in range(k, len(A)):
            row = A[i]
            for j in free:
                x = abs(row[j])
                if x > piv:
                    piv, pi, pj = x, i, j
        if k == 0:
            tol = RANK_TOL * max(1.0, piv)
        if piv <= tol:
            break
        A[k], A[pi] = A[pi], A[k]
        top = A[k]
        pivots.append(pj)
        free.remove(pj)
        for row in A[k + 1:]:
            f = row[pj] / top[pj]
            if f:
                for j in free:
                    row[j] -= f * top[j]
    return A, pivots + free, len(pivots)


def _back_substitute(A, cols, rank, free):
    """The solution of the first ``rank`` echelon rows that is 1 at column
    ``free`` and 0 at every other column past the first ``rank``."""
    x = [0.0] * 4
    x[free] = 1.0
    for k in range(rank - 1, -1, -1):
        row, c = A[k], cols[k]
        acc = 0.0  # added from left to right, see _dot
        for j in cols[k + 1:]:
            acc += row[j] * x[j]
        x[c] = -acc / row[c]
    return x


def _dot(u, v):
    """The sum of u[i] * v[i], added from left to right; the built-in sum()
    of floats is compensated from Python 3.12 on, so it would round
    differently on different versions."""
    acc = 0.0
    for x, y in zip(u, v):
        acc += x * y
    return acc


def _unit(v):
    n = math.hypot(*v)
    return [x / n for x in v]


def _intertwiners(p: CommutingPair, q: CommutingPair):
    """An orthonormal basis (Gram-Schmidt) of the intertwiner space of p
    and q, from one back substitution per column without a pivot; empty at
    rank 4."""
    A, cols, rank = _eliminate(
        _sylvester_rows(p.U1, q.U1) + _sylvester_rows(p.U2, q.U2))
    basis = []
    for j in cols[rank:]:
        v = _back_substitute(A, cols, rank, j)
        for u in basis:
            d = _dot(u, v)
            v = [x - d * y for x, y in zip(v, u)]
        basis.append(_unit(v))
    return basis


def _jacobi_tangent(app, aqq, apq):
    """tan of the rotation angle that zeroes apq (Golub and Van Loan,
    Matrix Computations, section 8.5)."""
    tau = (aqq - app) / (2.0 * apq)
    return math.copysign(1.0 / (abs(tau) + math.hypot(1.0, tau)), tau)


def _top_eigenpair(G):
    """The largest eigenvalue of the symmetric matrix G and a unit
    eigenvector, by cyclic Jacobi rotations until a sweep has nothing left
    to rotate."""
    n = len(G)
    A = [row[:] for row in G]
    V = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p][q]
                if abs(apq) <= 1e-17 * (abs(A[p][p]) + abs(A[q][q])):
                    continue
                rotated = True
                t = _jacobi_tangent(A[p][p], A[q][q], apq)
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for M in (A, V):  # columns p and q of A J and of V J
                    for row in M:
                        x, y = row[p], row[q]
                        row[p], row[q] = c * x - s * y, s * x + c * y
                A[p], A[q] = (  # rows p and q of J^T A J
                    [c * x - s * y for x, y in zip(A[p], A[q])],
                    [s * x + c * y for x, y in zip(A[p], A[q])])
                A[p][q] = A[q][p] = 0.0
        if not rotated:
            break
    k = max(range(n), key=lambda i: A[i][i])
    return A[k][k], [row[k] for row in V]


def _unit_det(s) -> SL2Matrix:
    """The matrix of vec s (det s > 0) rescaled to determinant one."""
    a, b, c, d = s
    k = 1.0 / math.sqrt(a * d - b * c)
    return SL2Matrix(a * k, b * k, c * k, d * k)


def search_conjugator(
    p: CommutingPair,
    q: CommutingPair,
    budget: int = 200_000,
    seed: int = 0,
) -> ConjugatorSearchReport:
    """Solve for S in SL(2,R) with S^-1 p.U_i S = q.U_i, i = 1, 2.

    The two Sylvester equations U_i S - S V_i = 0 stack into one 8x4
    system M vec S = 0, whose entries are converted to floats.  Gaussian
    elimination with complete pivoting stops at the first pivot of at most
    RANK_TOL * max(1, largest entry of M); back substitution gives one
    solution per column left without a pivot, and Gram-Schmidt makes them
    an orthonormal basis of the intertwiner space N (of dimension 0, 2 or
    4 for commuting pairs).  When the largest eigenvalue of the
    determinant form restricted to N (cyclic Jacobi rotations) exceeds
    SIGN_TOL, its eigenvector, mapped back into N and rescaled to det 1, is
    the conjugator ``best_S``.  Otherwise the pairs are not conjugate, and
    ``best_S`` is the identity.

    ``residual`` is the largest entry of S^-1 p.U_i S - q.U_i recomputed
    from ``best_S``, and ``converged`` is ``residual <=
    CONVERGENCE_THRESHOLD``.  Non-convergence is data, not an error.
    ``iterations`` is the number of solves (1).  ``budget`` and ``seed`` are
    accepted for compatibility and do not change the result.
    """
    basis = _intertwiners(p, q)
    S = SL2Matrix(1.0, 0.0, 0.0, 1.0)  # a new one, not sl2.IDENTITY
    if basis:
        lam, v = _top_eigenpair(
            [[_det_form(x, y) for y in basis] for x in basis])
        if lam > SIGN_TOL:
            S = _unit_det([_dot(v, col) for col in zip(*basis)])
    residual = max(
        conjugate(U, S).max_abs_diff(V)
        for U, V in ((p.U1, q.U1), (p.U2, q.U2))
    )
    return ConjugatorSearchReport(
        best_S=S,
        residual=residual,
        iterations=1,
        converged=residual <= CONVERGENCE_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# exact-rational classification
# ---------------------------------------------------------------------------


def exact_classify(a, b, c, d) -> SpectralType:
    """Classification with exact rational arithmetic; the only decidable way
    to separate the scalar and parabolic cases on the |tr| = 2 boundary.

    The entries are converted to Fractions, so ``make_sl2`` keeps them and
    requires a determinant of exactly 1, and ``classify`` applies no
    tolerance.  A pair of such matrices stays exact through
    ``canonicalize``, whose CC coupling ``CanonTrace.c`` is then a Fraction.
    """
    return classify(make_sl2(*(Fraction(x) for x in (a, b, c, d))))

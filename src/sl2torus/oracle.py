"""Construction-free verification tools: a direct linear-algebra solve for a
conjugator between two pairs, and exact-rational classification for
boundary cases.

The conjugator solve uses nothing of the canonical construction (no
eigenvectors, no sectors).  ``S^-1 U_i S = V_i`` holds exactly when
``U_i S - S V_i = 0``, which is linear in ``vec S = (a, b, c, d)``
(the Kronecker/vec form of the Sylvester equation).  The solutions of both
equations form the intertwiner space; the pairs are SL(2,R)-conjugate
exactly when the determinant, a quadratic form on that space, takes a
positive value there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pairs import CommutingPair
from .sl2 import IDENTITY, SL2Matrix, SpectralType, classify, make_sl2

CONVERGENCE_THRESHOLD = 1e-8
DISTINCT_FLOOR = 1e-3  # empirical separation, not a mathematical claim

# A right singular vector of the Sylvester system spans part of the
# intertwiner space when its singular value is at most
# RANK_TOL * max(1, largest singular value).
RANK_TOL = 1e-9
# On an orthonormal basis of the intertwiner space the determinant form has
# eigenvalues in [-1/2, 1/2]; the pairs count as conjugate only when the
# largest exceeds SIGN_TOL.  For reflection (det -1) twins of BC and CB it
# is exactly 0.
SIGN_TOL = 1e-9

# det S = a d - b c = s^T J s for s = (a, b, c, d)
_DET_FORM = np.array([
    [0.0, 0.0, 0.0, 0.5],
    [0.0, 0.0, -0.5, 0.0],
    [0.0, -0.5, 0.0, 0.0],
    [0.5, 0.0, 0.0, 0.0],
])


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


def _unit_det(s) -> SL2Matrix:
    """The matrix of vec s (det s > 0) rescaled to determinant one."""
    a, b, c, d = (float(x) for x in s)
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
    system M vec S = 0.  Right singular vectors of M whose singular value is
    at most RANK_TOL * max(1, sigma_max) span the intertwiner space N (for
    commuting pairs of dimension 0, 2 or 4).  When the largest eigenvalue of
    the determinant form restricted to N exceeds SIGN_TOL, its eigenvector,
    mapped back into N and rescaled to det 1, is the conjugator.  Otherwise
    the pairs are not conjugate, and ``best_S`` is the least-singular vector
    of M rescaled to det 1 when its det exceeds SIGN_TOL, else the identity.

    ``residual`` is the largest entry of S^-1 p.U_i S - q.U_i recomputed
    from ``best_S``, and ``converged`` is ``residual <=
    CONVERGENCE_THRESHOLD``.  Non-convergence is data, not an error.
    ``iterations`` is the number of solves (1).  ``budget`` and ``seed`` are
    accepted for compatibility and do not change the result.
    """
    M = np.array(_sylvester_rows(p.U1, q.U1) + _sylvester_rows(p.U2, q.U2),
                 dtype=float)
    _, sv, vt = np.linalg.svd(M)
    null = vt[sv <= RANK_TOL * max(1.0, sv[0])]
    s = vt[-1]
    if len(null):
        w, v = np.linalg.eigh(null @ _DET_FORM @ null.T)
        if w[-1] > SIGN_TOL:
            s = v[:, -1] @ null
    S = _unit_det(s) if s @ _DET_FORM @ s > SIGN_TOL else IDENTITY
    Si = S.inv()
    residual = max(
        (Si @ U @ S).max_abs_diff(V)
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

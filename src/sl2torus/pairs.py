"""Commuting ordered pairs and their coarse type combinations."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ForbiddenCombo, NotCommuting
from .sl2 import (
    DEFAULT_TOL,
    SL2Matrix,
    SpectralType,
    ToleranceConfig,
    classify,
    commutator_norm,
    integer_form,
)

# Coarse combinations that can occur for commuting pairs: matching non-B
# types, or anything paired with a scalar.
ALLOWED_COMBOS = frozenset(
    {("A", "A"), ("C", "C"), ("D", "D")}
    | {("B", t) for t in "ABCD"}
    | {(t, "B") for t in "ABCD"}
)


@dataclass(slots=True)
class CommutingPair:
    U1: SL2Matrix
    U2: SL2Matrix


def make_pair(
    U1: SL2Matrix, U2: SL2Matrix, cfg: ToleranceConfig = DEFAULT_TOL
) -> CommutingPair:
    """Validating constructor; two exact matrices must commute exactly: the
    commutator entries +-(b1 c2 - b2 c1), b2 h1 - b1 h2 and c1 h2 - c2 h1,
    h = a - d, are 0 on U1 and U2 scaled to integers."""
    F1, F2 = integer_form(U1), integer_form(U2)
    if F1 is not None and F2 is not None:
        a1, b1, c1, d1, _ = F1
        a2, b2, c2, d2, _ = F2
        h1, h2 = a1 - d1, a2 - d2
        if b1 * c2 == b2 * c1 and b2 * h1 == b1 * h2 and c1 * h2 == c2 * h1:
            return CommutingPair(U1, U2)
        raise NotCommuting(commutator_norm(U1, U2))
    norm = commutator_norm(U1, U2)
    if norm > cfg.comm_tol:
        raise NotCommuting(norm)
    return CommutingPair(U1, U2)


def allowed_combination(t1: str, t2: str) -> bool:
    return (t1, t2) in ALLOWED_COMBOS


def spectral_types(
    p: CommutingPair, cfg: ToleranceConfig = DEFAULT_TOL
) -> tuple[SpectralType, SpectralType]:
    """The spectral type of each matrix of the pair, each classified once."""
    t1, t2 = classify(p.U1, cfg), classify(p.U2, cfg)
    if not allowed_combination(t1.tag, t2.tag):
        # cannot happen for exactly commuting pairs; fail loudly
        raise ForbiddenCombo((t1.tag, t2.tag))
    return t1, t2


def coarse_combo(p: CommutingPair, cfg: ToleranceConfig = DEFAULT_TOL):
    t1, t2 = spectral_types(p, cfg)
    return t1.tag, t2.tag

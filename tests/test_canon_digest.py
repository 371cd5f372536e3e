"""Digest of canonicalize's answers on a seeded deck of float, exact and
mixed pairs, in both orders.

Mixed pairs, one matrix of Fractions beside one of floats, reach
canonicalize only through the library, so no golden document holds them.
Per seed and sector the deck holds the float pair ``sample_sector`` draws,
its Fraction copy, both mixed pairs and one conjugated exact pair as
tests/test_exact_golden.py builds it; per seed, exact CC and CB pairs whose
coupling is +-10^-k for k in COUPLING_EXPONENTS, conjugated by a seeded
exact conjugator.  Each answer is recorded as its sector, parameters,
witness and trace, or as its error's type and message, and the SHA-256 of
all of them must stay what is committed here.
"""

import hashlib
import random
from fractions import Fraction

from sl2torus import (
    CommutingPair,
    SL2Matrix,
    SL2TorusError,
    canonicalize,
    conjugate,
)
from sl2torus.atlas import sample_sector
from sl2torus.canonical import SECTORS
from test_exact_golden import _canonical, _conjugator

SEEDS = range(40)
COUPLING_EXPONENTS = (3, 12, 30, 200, 400)
DIGEST = "bd64ef86728734031daa540d4761d574312dae051c60e2655a7fa4502e363ac0"


def _fractions(U):
    return SL2Matrix(*(Fraction(x) for x in (U.a, U.b, U.c, U.d)))


def _jordan(eps, off):
    return SL2Matrix(Fraction(eps), Fraction(off), Fraction(0), Fraction(eps))


def deck():
    for seed in SEEDS:
        rng = random.Random(seed)
        for sector in SECTORS:
            p = sample_sector(sector, seed)
            E1, E2 = _fractions(p.U1), _fractions(p.U2)
            yield p.U1, p.U2
            yield E1, E2
            yield E1, p.U2
            yield p.U1, E2
            U1, U2 = _canonical(sector, rng)
            S = _conjugator(rng)
            yield conjugate(U1, S), conjugate(U2, S)
        for k in COUPLING_EXPONENTS:
            for sign in (1, -1):
                c = Fraction(sign, 10**k)
                e1, e2 = rng.choice((1, -1)), rng.choice((1, -1))
                S = _conjugator(rng)
                for U1, U2 in ((_jordan(e1, 1), _jordan(e2, c)),  # CC
                               (_jordan(e1, c), _jordan(e2, 0))):  # CB
                    yield conjugate(U1, S), conjugate(U2, S)


def _answer(U1, U2):
    try:
        cp = canonicalize(CommutingPair(U1, U2))
    except SL2TorusError as exc:
        return f"{type(exc).__name__}: {exc}"
    W, t = cp.witness, cp.trace
    return repr((cp.sector, sorted(cp.params.items()), (W.a, W.b, W.c, W.d),
                 t.c, t.det_sprime_sign, t.branch_notes))


def test_canonicalize_answers_match_digest():
    h = hashlib.sha256()
    for U1, U2 in deck():
        for order in ((U1, U2), (U2, U1)):
            h.update(_answer(*order).encode() + b"\n")
    assert h.hexdigest() == DIGEST

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2torus import (
    CommutingPair,
    ForbiddenCombo,
    NotCommuting,
    SL2Matrix,
    allowed_combination,
    coarse_combo,
    make_pair,
    make_sl2,
    rotation,
)
from sl2torus.atlas import random_sl2, sample_sector
from sl2torus.canonical import SECTORS
from sl2torus.sl2 import commutator_norm


def test_make_pair_identity():
    I = make_sl2(1, 0, 0, 1)
    assert make_pair(I, I).U1 == I


def test_make_pair_diagonals_commute():
    p = make_pair(make_sl2(2, 0, 0, 0.5), make_sl2(3, 0, 0, 1 / 3))
    assert p.U2.a == 3.0


def test_make_pair_rejects_noncommuting():
    U1 = make_sl2(2, 0, 0, 0.5)
    U2 = make_sl2(1, 1, 0, 1)
    # independent oracle: direct multiplication
    P = U1 @ U2
    Q = U2 @ U1
    norm = max(abs(P.a - Q.a), abs(P.b - Q.b), abs(P.c - Q.c), abs(P.d - Q.d))
    assert norm > 0
    with pytest.raises(NotCommuting) as exc:
        make_pair(U1, U2)
    assert exc.value.norm == pytest.approx(norm)


def test_make_pair_exact_requires_zero_commutator():
    one, zero, e = Fraction(1), Fraction(0), Fraction(1, 10**30)
    J = make_sl2(one, one, zero, one)
    K = make_sl2(one, zero, e, one)  # commutator norm 1e-30
    make_pair(make_sl2(1, 1, 0, 1), make_sl2(1, 0, float(e), 1))
    with pytest.raises(NotCommuting):
        make_pair(J, K)


# signed, zero, and with numerators and denominators far beyond 2**64
wide_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]),
    st.fractions(-3, 3, max_denominator=6),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


@st.composite
def exact_pairs(draw):
    """Two exact matrices, built directly; the second is often xI + yU,
    which commutes with the first, and sometimes that with one entry
    nudged."""
    U = SL2Matrix(*(draw(wide_fractions) for _ in range(4)))
    kind = draw(st.sampled_from(["any", "commuting", "nudged"]))
    if kind == "any":
        return U, SL2Matrix(*(draw(wide_fractions) for _ in range(4)))
    x, y = draw(wide_fractions), draw(wide_fractions)
    V = [x + y * U.a, y * U.b, y * U.c, x + y * U.d]
    if kind == "nudged":
        V[draw(st.integers(0, 3))] += draw(wide_fractions)
    return U, SL2Matrix(*V)


@given(exact_pairs())
@settings(max_examples=400)
def test_make_pair_exact_decides_like_fractions(UV):
    U, V = UV
    if U @ V == V @ U:  # the commutator in Fractions
        assert make_pair(U, V) == CommutingPair(U, V)
    else:
        with pytest.raises(NotCommuting) as exc:
            make_pair(U, V)
        norm = exc.value.norm
        assert type(norm) is Fraction and norm == commutator_norm(U, V) > 0


def test_coarse_combo_aa():
    p = make_pair(make_sl2(2, 0, 0, 0.5), make_sl2(3, 0, 0, 1 / 3))
    assert coarse_combo(p) == ("A", "A")


def test_coarse_combo_bd():
    p = make_pair(make_sl2(-1, 0, 0, -1), rotation(math.pi / 3))
    assert coarse_combo(p) == ("B", "D")


def test_coarse_combo_cc():
    U1 = make_sl2(1, 1, 0, 1)
    U2 = make_sl2(1, 2, 0, 1)
    # verify commutation by direct multiplication
    assert (U1 @ U2) == (U2 @ U1)
    assert coarse_combo(make_pair(U1, U2)) == ("C", "C")


@pytest.mark.parametrize("combo,expected", [
    (("A", "A"), True), (("C", "C"), True), (("D", "D"), True),
    (("B", "A"), True), (("B", "B"), True), (("B", "C"), True),
    (("B", "D"), True), (("A", "B"), True), (("D", "B"), True),
    (("A", "C"), False), (("A", "D"), False), (("C", "A"), False),
    (("C", "D"), False), (("D", "A"), False), (("D", "C"), False),
])
def test_allowed_combination_table(combo, expected):
    assert allowed_combination(*combo) is expected


def test_sampled_pairs_always_allowed():
    for i, sector in enumerate(SECTORS * 10):
        p = sample_sector(sector, seed=i, conjugate=True)
        combo = coarse_combo(make_pair(p.U1, p.U2))
        assert allowed_combination(*combo)


def test_matching_tags_when_no_scalar():
    for i, sector in enumerate(("AA1", "AA2", "CC", "DD") * 20):
        p = sample_sector(sector, seed=100 + i, conjugate=True)
        t1, t2 = coarse_combo(make_pair(p.U1, p.U2))
        assert t1 == t2


def test_order_sensitivity():
    rng = random.Random(3)
    for i in range(30):
        sector = SECTORS[i % len(SECTORS)]
        p = sample_sector(sector, seed=1000 + i, conjugate=True)
        fwd = coarse_combo(make_pair(p.U1, p.U2))
        rev = coarse_combo(make_pair(p.U2, p.U1))
        assert rev == (fwd[1], fwd[0])


def test_forbidden_combo_raises():
    # classification of a genuinely forbidden combination must fail loudly;
    # reach it by bypassing the commutation check
    from sl2torus.pairs import CommutingPair

    p = CommutingPair(make_sl2(2, 0, 0, 0.5), make_sl2(1, 1, 0, 1))
    with pytest.raises(ForbiddenCombo):
        coarse_combo(p)

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2torus import (
    CommutingPair,
    DegenerateCC,
    ParamOutOfRange,
    SL2Matrix,
    SL2TorusError,
    ToleranceConfig,
    apply_conjugation,
    canonicalize,
    classify,
    conjugate,
    equivalent,
    make_pair,
    make_sl2,
    reconstruct,
    rotation,
    sl2,
    sl2_from_coords,
)
from sl2torus.atlas import (
    cells,
    depiction_component,
    incidence,
    random_sl2,
    sample_params,
    sample_sector,
)
from sl2torus.canonical import (
    AXIS_COMPONENTS,
    SECTOR_CONTINUOUS,
    SECTOR_DISCRETE,
    SECTORS,
    CanonicalPair,
    _unit_basis,
    _witness_error,
    component_index,
)
from sl2torus.sl2 import IDENTITY
from test_exact_golden import _canonical as _golden_canonical
from test_exact_golden import _conjugator as _golden_conjugator

CFG = ToleranceConfig()
I = make_sl2(1, 0, 0, 1)
NEG_I = make_sl2(-1, 0, 0, -1)
SWAP = SL2Matrix(0.0, -1.0, 1.0, 0.0)


def pair(U1, U2):
    return make_pair(U1, U2, CFG)


def assert_params(c, expected, tol=1e-9):
    assert set(c.params) == set(expected)
    for k, v in expected.items():
        if isinstance(v, int):
            assert c.params[k] == v, k
        else:
            assert c.params[k] == pytest.approx(v, abs=tol), k


# --- dispatch and the identity pair ---------------------------------------


def test_identity_pair_is_bb():
    c = canonicalize(pair(I, I))
    assert c.sector == "BB"
    assert_params(c, {"eps1": 1, "eps2": 1})
    assert c.witness == I


# --- AA -------------------------------------------------------------------


def test_aa1_already_canonical():
    c = canonicalize(pair(make_sl2(0.5, 0, 0, 2), make_sl2(1 / 3, 0, 0, 3)))
    assert c.sector == "AA1"
    assert_params(c, {"lam": 0.5, "mu": 1 / 3})
    assert c.witness.max_abs_diff(I) == 0.0


def test_aa2():
    c = canonicalize(pair(make_sl2(0.5, 0, 0, 2), make_sl2(3, 0, 0, 1 / 3)))
    assert c.sector == "AA2"
    assert_params(c, {"lam": 0.5, "mu": 1 / 3})


def test_aa1_needs_swap():
    c = canonicalize(pair(make_sl2(2, 0, 0, 0.5), make_sl2(3, 0, 0, 1 / 3)))
    assert c.sector == "AA1"
    assert_params(c, {"lam": 0.5, "mu": 1 / 3})
    # hand-applied swap conjugation moves the small eigenvalue first
    assert c.witness.max_abs_diff(SWAP) <= 1e-15
    swapped = apply_conjugation(
        pair(make_sl2(2, 0, 0, 0.5), make_sl2(3, 0, 0, 1 / 3)), SWAP
    )
    assert swapped.U1.a == pytest.approx(0.5)


# --- scalar partner (AB, BA, BB) ------------------------------------------


def test_ab():
    c = canonicalize(pair(make_sl2(1 / 3, 0, 0, 3), NEG_I))
    assert c.sector == "AB"
    assert_params(c, {"lam": 1 / 3, "eps2": -1})


def test_bb_mixed_signs():
    c = canonicalize(pair(NEG_I, I))
    assert c.sector == "BB"
    assert_params(c, {"eps1": -1, "eps2": 1})
    # the witness can be changed in place, so it must not be the shared
    # constant, which every later BB answer would then carry
    assert c.witness == IDENTITY
    assert c.witness is not IDENTITY


def test_ba_conjugated():
    rng = random.Random(11)
    S = random_sl2(rng)
    q = apply_conjugation(pair(I, make_sl2(0.2, 0, 0, 5)), S)
    c = canonicalize(pair(q.U1, q.U2))
    assert c.sector == "BA"
    assert_params(c, {"eps1": 1, "mu": 0.2}, tol=1e-10)


# --- BC / CB --------------------------------------------------------------


def test_bc_canonical_plus():
    c = canonicalize(pair(NEG_I, make_sl2(1, 1, 0, 1)))
    assert c.sector == "BC"
    assert_params(c, {"eps1": -1, "eps2": 1, "eps4": 1})
    assert c.witness.max_abs_diff(I) == 0.0


def test_bc_canonical_minus():
    c = canonicalize(pair(NEG_I, make_sl2(1, -1, 0, 1)))
    assert c.sector == "BC"
    assert_params(c, {"eps1": -1, "eps2": 1, "eps4": -1})


def test_cb_canonical():
    c = canonicalize(pair(make_sl2(-1, 1, 0, -1), I))
    assert c.sector == "CB"
    assert_params(c, {"eps1": -1, "eps3": 1, "eps2": 1})


def test_bc_sign_is_sl2_invariant():
    # conjugating by any unit-determinant matrix must preserve eps4
    rng = random.Random(5)
    base = pair(NEG_I, make_sl2(1, -1, 0, 1))
    for _ in range(20):
        q = apply_conjugation(base, random_sl2(rng))
        c = canonicalize(pair(q.U1, q.U2))
        assert c.params["eps4"] == -1


@pytest.mark.parametrize("one", [1.0, Fraction(1)], ids=["float", "exact"])
def test_unit_basis_rejects_parallel_vectors(one):
    # a bare SL2TorusError, which the CLI reports as INTERNAL_VALIDATION
    with pytest.raises(SL2TorusError, match="degenerate") as exc:
        _unit_basis((0 * one, one / 100000), (0 * one, one),
                    type(one) is Fraction)
    assert type(exc.value) is SL2TorusError


# --- BD / DB --------------------------------------------------------------


def test_bd_canonical():
    c = canonicalize(pair(NEG_I, rotation(2.0)))
    assert c.sector == "BD"
    assert_params(c, {"eps1": -1, "phi": 2.0})
    assert c.witness.max_abs_diff(I) <= 1e-12


def test_db_canonical():
    c = canonicalize(pair(rotation(5.0), I))
    assert c.sector == "DB"
    assert_params(c, {"theta": 5.0, "eps2": 1})


def test_bd_negative_det_conjugation_flips_angle():
    rng = random.Random(9)
    H = random_sl2(rng)
    G = SL2Matrix(-1.0, 0.0, 0.0, 1.0) @ H  # det = -1
    Gi = H.inv() @ SL2Matrix(-1.0, 0.0, 0.0, 1.0)
    R = rotation(2.0)
    U2 = Gi @ R @ G
    # direct multiplication confirms the flipped rotation angle
    c = canonicalize(pair(I, make_sl2(U2.a, U2.b, U2.c, U2.d)))
    assert c.sector == "BD"
    assert_params(c, {"eps1": 1, "phi": 2 * math.pi - 2.0}, tol=1e-9)


# --- CC -------------------------------------------------------------------


def test_cc_already_canonical():
    h = math.sqrt(2) / 2
    c = canonicalize(pair(make_sl2(1, h, 0, 1), make_sl2(1, h, 0, 1)))
    assert c.sector == "CC"
    assert_params(c, {"eps1": 1, "eps2": 1, "alpha": math.pi / 4})
    assert c.witness.max_abs_diff(I) <= 1e-12
    assert c.trace.c == pytest.approx(1.0)


def test_cc_hand_construction():
    # v1' = (1,0), v2' = (0,1), coupling scalar 2, det S' = 1
    c = canonicalize(pair(make_sl2(1, 1, 0, 1), make_sl2(1, 2, 0, 1)))
    assert c.sector == "CC"
    assert c.trace.c == pytest.approx(2.0)
    assert c.trace.det_sprime_sign == 1
    assert c.params["alpha"] == pytest.approx(math.atan(2))
    assert math.cos(c.params["alpha"]) > 0


def test_cc_round_trip_alpha_4():
    rng = random.Random(21)
    base = reconstruct("CC", {"eps1": 1, "eps2": 1, "alpha": 4.0})
    q = apply_conjugation(base, random_sl2(rng))
    c = canonicalize(pair(q.U1, q.U2))
    assert c.sector == "CC"
    assert c.params["alpha"] == pytest.approx(4.0, abs=1e-9)
    assert math.tan(c.params["alpha"]) == pytest.approx(c.trace.c, abs=1e-8)
    sgn = 1 if math.cos(c.params["alpha"]) > 0 else -1
    assert sgn == c.trace.det_sprime_sign


# --- DD -------------------------------------------------------------------


def test_dd_canonical():
    c = canonicalize(pair(rotation(2.0), rotation(5.0)))
    assert c.sector == "DD"
    assert_params(c, {"theta": 2.0, "phi": 5.0})


def test_dd_transposed_angles_flip():
    R2t = make_sl2(*[rotation(2.0).a, rotation(2.0).c,
                     rotation(2.0).b, rotation(2.0).d])
    R5t = make_sl2(*[rotation(5.0).a, rotation(5.0).c,
                     rotation(5.0).b, rotation(5.0).d])
    c = canonicalize(pair(R2t, R5t))
    assert c.sector == "DD"
    assert_params(c, {"theta": 2 * math.pi - 2.0, "phi": 2 * math.pi - 5.0})


def test_dd_round_trip_equal_angles():
    rng = random.Random(2)
    base = reconstruct("DD", {"theta": 1.0, "phi": 1.0})
    q = apply_conjugation(base, random_sl2(rng))
    c = canonicalize(pair(q.U1, q.U2))
    assert_params(c, {"theta": 1.0, "phi": 1.0}, tol=1e-9)


# --- reconstruct ----------------------------------------------------------


def test_reconstruct_bb():
    p = reconstruct("BB", {"eps1": 1, "eps2": -1})
    assert p.U1 == I and p.U2 == NEG_I


def test_reconstruct_cc():
    p = reconstruct("CC", {"eps1": 1, "eps2": 1, "alpha": math.pi / 4})
    assert p.U1.b == pytest.approx(math.sqrt(2) / 2)
    assert p.U2.b == pytest.approx(math.sqrt(2) / 2)


def test_reconstruct_dd():
    p = reconstruct("DD", {"theta": math.pi / 2, "phi": 3 * math.pi / 2})
    assert p.U1.max_abs_diff(rotation(math.pi / 2)) == 0.0
    assert p.U2.max_abs_diff(rotation(3 * math.pi / 2)) == 0.0


@pytest.mark.parametrize("sector,params", [
    ("AA1", {"lam": 1.5, "mu": 0.5}),
    ("AA1", {"lam": 0.0, "mu": 0.5}),
    ("BD", {"eps1": 1, "phi": math.pi}),
    ("BD", {"eps1": 2, "phi": 1.0}),
    ("CC", {"eps1": 1, "eps2": 1, "alpha": math.pi / 2}),
    ("DD", {"theta": 0.0, "phi": 1.0}),
    ("BA", {"eps1": 1, "mu": -1.0}),
    ("AA2", {"lam": 0.5, "mu": 0.0}),
    ("CC", {"eps1": 1, "eps2": -1, "alpha": math.pi}),
    ("CC", {"eps1": 1, "eps2": -1, "alpha": 3 * math.pi / 2}),
    ("CB", {"eps1": 1, "eps2": 1, "eps3": 0}),
    ("BC", {"eps1": 1, "eps2": 1, "eps4": 0}),
    ("DB", {"theta": math.nan, "eps2": 1}),
    ("ZZ", {}),
])
def test_reconstruct_rejects_out_of_range(sector, params):
    with pytest.raises(ParamOutOfRange):
        reconstruct(sector, params)


# --- apply_conjugation ----------------------------------------------------


def test_apply_conjugation_identity():
    p = pair(make_sl2(2, 0, 0, 0.5), I)
    q = apply_conjugation(p, I)
    assert q.U1 == p.U1 and q.U2 == p.U2


def test_apply_conjugation_swap():
    p = pair(make_sl2(2, 0, 0, 0.5), I)
    q = apply_conjugation(p, SWAP)
    assert q.U1.max_abs_diff(make_sl2(0.5, 0, 0, 2)) <= 1e-15


def test_apply_conjugation_group_action():
    rng = random.Random(4)
    S = random_sl2(rng)
    p = pair(rotation(2.0), rotation(5.0))
    q = apply_conjugation(apply_conjugation(p, S), S.inv())
    assert q.U1.max_abs_diff(p.U1) <= 1e-12
    assert q.U2.max_abs_diff(p.U2) <= 1e-12


# --- properties -----------------------------------------------------------


sector_st = st.sampled_from(SECTORS)
seed_st = st.integers(0, 10**6)


@given(sector_st, seed_st)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(sector, seed):
    rng = random.Random(seed)
    params = sample_params(sector, rng)
    base = reconstruct(sector, params)
    q = apply_conjugation(base, random_sl2(rng))
    c = canonicalize(make_pair(q.U1, q.U2, CFG), CFG)
    assert c.sector == sector
    for k, v in params.items():
        if isinstance(v, int):
            assert c.params[k] == v
        else:
            assert c.params[k] == pytest.approx(v, abs=CFG.param_tol)
    assert c.trace.branch_notes == (
        ("BB trivial",) if sector == "BB" else (sector,))
    assert (c.trace.c is not None) == (sector == "CC")
    # witness validity
    target = reconstruct(sector, c.params)
    got = apply_conjugation(q, c.witness)
    assert got.U1.max_abs_diff(target.U1) <= 10 * CFG.param_tol
    assert got.U2.max_abs_diff(target.U2) <= 10 * CFG.param_tol


@given(sector_st, seed_st)
@settings(max_examples=40, deadline=None)
def test_idempotence(sector, seed):
    rng = random.Random(seed)
    params = sample_params(sector, rng)
    c = canonicalize(reconstruct(sector, params), CFG)
    assert c.sector == sector
    for k, v in params.items():
        assert c.params[k] == pytest.approx(v, abs=1e-12)
    assert c.witness.max_abs_diff(I) <= 1e-9


@given(seed_st)
@settings(max_examples=25, deadline=None)
def test_equivalence_relation(seed):
    rng = random.Random(seed)
    sector = rng.choice(SECTORS)
    params = sample_params(sector, rng)
    base = reconstruct(sector, params)
    ps = [apply_conjugation(base, random_sl2(rng)) for _ in range(3)]
    a, b, c = (make_pair(p.U1, p.U2, CFG) for p in ps)
    assert equivalent(a, a, CFG)
    assert equivalent(a, b, CFG) == equivalent(b, a, CFG) is True
    assert equivalent(a, c, CFG) and equivalent(b, c, CFG)


# the exchange of U1 and U2: the sector of the swapped pair, where each
# parameter goes, and the quarter turn that swaps the diagonal of AA2
EXCHANGE = {"AB": "BA", "BA": "AB", "CB": "BC", "BC": "CB", "DB": "BD",
            "BD": "DB"}
RENAME = {"eps1": "eps2", "eps2": "eps1", "eps3": "eps4", "eps4": "eps3",
          "lam": "mu", "mu": "lam", "theta": "phi", "phi": "theta",
          "alpha": "alpha"}
QUARTER = SL2Matrix(0.0, 1.0, -1.0, 0.0)


def _traceless_size(U):
    """The largest entry of U's traceless part ((a - d)/2, b, c), the size
    by which canonicalize picks its pivot."""
    return max(abs((U.a - U.d) / 2), abs(U.b), abs(U.c))


@given(sector_st, seed_st, st.booleans())
@settings(max_examples=300, deadline=None)
def test_mirror_sectors_are_the_swapped_pair(sector, seed, exact):
    if exact:  # a conjugated pair as the exact golden document builds it
        rng = random.Random(seed)
        U1, U2 = _golden_canonical(sector, rng)
        S = _golden_conjugator(rng)
        p = CommutingPair(conjugate(U1, S), conjugate(U2, S))
    else:
        p = sample_sector(sector, seed, conjugate=True)
    c = canonicalize(make_pair(p.U1, p.U2, CFG), CFG)
    m = canonicalize(make_pair(p.U2, p.U1, CFG), CFG)
    assert (c.sector, m.sector) == (sector, EXCHANGE.get(sector, sector))
    # both forms are built from the one pivot, unless the traceless parts
    # tie in size, when each order takes its own U1
    tie = _traceless_size(p.U1) == _traceless_size(p.U2)
    renamed = {RENAME[k]: v for k, v in c.params.items()}
    sign = c.trace.det_sprime_sign
    if sector == "CC":  # cos and sin exchanged, and tan(alpha) = c inverted
        renamed["alpha"] = (math.pi / 2 - c.params["alpha"]) % (2 * math.pi)
        assert m.trace.c == pytest.approx(1 / c.trace.c, rel=1e-15)
        assert isinstance(m.trace.c, Fraction) == exact
        if exact:
            assert m.trace.c == 1 / c.trace.c
        # U2 = xI + yU1 with y = c
        sign = -sign if c.trace.c < 0 else sign
    else:
        assert m.trace.c is c.trace.c is None
    if sector == "DD" and (c.params["theta"] < math.pi) != (
            c.params["phi"] < math.pi):  # y = sin(phi) / sin(theta) < 0
        sign = -sign
    if sector == "AA2":  # the quarter turn swaps the diagonal
        sign = -sign
    assert m.discrete() == tuple(renamed[k] for k in
                                 SECTOR_DISCRETE[m.sector])
    assert m.continuous() == pytest.approx(
        tuple(renamed[k] for k in SECTOR_CONTINUOUS[m.sector]), abs=1e-12)
    assert m.trace.branch_notes == (
        ("BB trivial",) if sector == "BB" else (m.sector,))
    if tie and sector != "BB":
        return
    # the one pivot: the exchange renames its parameters bit for bit, sets
    # the sign by the rules above, and keeps the witness except in AA2,
    # where either form may be the one built and the other the one moved
    assert m.trace.det_sprime_sign == sign
    renamed.pop("alpha", None)
    assert {k: v for k, v in m.params.items() if k != "alpha"} == renamed
    if sector == "AA2":
        assert m.witness == c.witness @ QUARTER or \
            c.witness == m.witness @ QUARTER
    else:
        assert m.witness == c.witness


# --- equivalence: positive and negative -----------------------------------


def test_equivalent_under_conjugation():
    rng = random.Random(8)
    p = pair(rotation(2.0), rotation(5.0))
    q = apply_conjugation(p, random_sl2(rng))
    assert equivalent(p, make_pair(q.U1, q.U2, CFG), CFG)


def test_bd_transpose_not_equivalent():
    R = rotation(2.0)
    Rt = make_sl2(R.a, R.c, R.b, R.d)
    assert not equivalent(pair(NEG_I, R), pair(NEG_I, Rt), CFG)


def test_bc_flip_not_equivalent():
    assert not equivalent(
        pair(I, make_sl2(1, 1, 0, 1)), pair(I, make_sl2(1, -1, 0, 1)), CFG
    )


def test_aa1_aa2_distinct():
    p = reconstruct("AA1", {"lam": 0.5, "mu": 0.25})
    q = reconstruct("AA2", {"lam": 0.5, "mu": 0.25})
    assert not equivalent(make_pair(p.U1, p.U2), make_pair(q.U1, q.U2), CFG)


@pytest.mark.parametrize("coupling", [1e-8, -1e-8])
@pytest.mark.parametrize("order", ["U1-pivot", "U2-pivot"])
def test_degenerate_cc_raises(order, coupling):
    # a coupling scalar at or below param_tol cannot be normalized reliably;
    # 1e-8 still classifies as parabolic but is a degenerate coupling, with
    # the pivot either matrix
    U1 = make_sl2(1, 1, 0, 1)
    U2 = make_sl2(1, coupling, 0, 1)
    if order == "U2-pivot":
        U1, U2 = U2, U1
    with pytest.raises(DegenerateCC):
        canonicalize(pair(U1, U2), CFG)


# --- the pivot and its partner xI + yP -------------------------------------


def _boundary_walk_cases():
    """(sector, cell point, parameter, end, inward step sign) for every
    (cell, parameter, end) of AA1, AA2 and DD, in the order of incidence(),
    with the end at +-1, 0, pi or 2 pi: the lam/mu -> 0 ends are left out."""
    cases = []
    for sector in ("AA1", "AA2", "DD"):
        for point in cells(sector):
            for name in SECTOR_CONTINUOUS[sector]:
                k = component_index(name, point[name])
                lo, hi = AXIS_COMPONENTS[name][k]
                for end, step in ((lo, 1), (hi, -1)):
                    if end != 0.0 or name in ("theta", "phi"):
                        cases.append((sector, point, name, end, step))
    return cases


def _entries(U):
    return U.a, U.b, U.c, U.d


@pytest.mark.parametrize("delta", [1e-5, 1e-7])
def test_boundary_walk_near_scalar_partner(delta):
    # a partner within delta of +-I is read off the pivot, not classified
    # on its own inside the |tr| = 2 band
    cases = _boundary_walk_cases()
    walked = sorted(
        (depiction_component(CanonicalPair(s, pt, I)), f"{name} -> {end:g}")
        for s, pt, name, end, _ in cases)
    assert walked == sorted(
        (cell, note) for cell, _, note in incidence().entries
        if cell.split(":")[0] in ("AA1", "AA2", "DD")
        and note not in ("lam -> 0", "mu -> 0"))
    rng = random.Random(3)
    for sector, point, name, end, step in cases:
        params = {**point, name: end + step * delta}
        base = reconstruct(sector, params)
        for _ in range(4):
            S = sl2_from_coords(rng.uniform(0.0, 2 * math.pi),
                                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            q = apply_conjugation(base, S)
            c = canonicalize(make_pair(make_sl2(*_entries(q.U1)),
                                       make_sl2(*_entries(q.U2))))
            assert c.sector == sector, params
            for k, v in params.items():
                assert abs(c.params[k] - v) <= CFG.param_tol, (params, k)


@pytest.mark.parametrize("sector", ["AA1", "AA2", "CC", "DD"])
def test_trace_sign_is_u1_basis_sign(sector):
    # det_sprime_sign is the sign of U1's own basis, whichever matrix is
    # the pivot: the same as with U1 beside a scalar
    for seed in range(400):
        p = sample_sector(sector, seed)
        scalar = I if seed % 2 else NEG_I
        both = canonicalize(make_pair(p.U1, p.U2, CFG), CFG)
        alone = canonicalize(make_pair(p.U1, scalar, CFG), CFG)
        assert both.trace.det_sprime_sign == alone.trace.det_sprime_sign, seed


def test_partner_read_off_entries_near_float_range():
    # the squares of these entries overflow a float
    U = SL2Matrix(0.0, 1.4e154, -1 / 1.4e154, 0.0)
    V = SL2Matrix(0.0, -1.4e154, 1 / 1.4e154, 0.0)
    assert_params(canonicalize(pair(U, U)),
                  {"theta": 1.5 * math.pi, "phi": 1.5 * math.pi})
    assert_params(canonicalize(pair(U, V)),
                  {"theta": 1.5 * math.pi, "phi": 0.5 * math.pi})


def test_scalar_pivot_off_unit_determinant_is_degenerate():
    # with det_tol 1e-6, 1.0000004 * I is not B but has no normal-form basis
    cfg = ToleranceConfig(det_tol=1e-6)
    U = make_sl2(1.0000004, 0, 0, 1.0000004, cfg)
    with pytest.raises(SL2TorusError, match="degenerate") as exc:
        canonicalize(make_pair(U, U, cfg), cfg)
    assert type(exc.value) is SL2TorusError


# --- exact input ----------------------------------------------------------


def _rational_canonical(sector, draw):
    """Rational matrices (4-tuples) of a pair in the given sector."""
    unit = st.fractions(Fraction(-19, 20), Fraction(19, 20),
                        max_denominator=20)
    unit = unit.filter(lambda x: abs(x) >= Fraction(1, 20))
    sign = st.sampled_from((1, -1))
    coupling = st.fractions(Fraction(1, 5), Fraction(5), max_denominator=5)

    def diag(x):
        return (x, Fraction(0), Fraction(0), 1 / x)

    def scalar(e):
        return (Fraction(e), Fraction(0), Fraction(0), Fraction(e))

    def jordan():
        e, k = Fraction(draw(sign)), draw(sign) * draw(coupling)
        return (e, k, Fraction(0), e)

    def rot():
        # (m^2 - n^2, 2mn) / (m^2 + n^2): a rational rotation, angle not 0, pi
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        h = m * m + n * n
        co = Fraction(draw(sign) * (m * m - n * n), h)
        si = Fraction(draw(sign) * 2 * m * n, h)
        return (co, -si, si, co)

    if sector in ("AA1", "AA2"):
        lam, mu = draw(unit), draw(unit)
        return diag(lam), diag(mu if sector == "AA1" else 1 / mu)
    if sector == "AB":
        return diag(draw(unit)), scalar(draw(sign))
    if sector == "BA":
        return scalar(draw(sign)), diag(draw(unit))
    if sector == "BB":
        return scalar(draw(sign)), scalar(draw(sign))
    if sector == "BC":
        return scalar(draw(sign)), jordan()
    if sector == "CB":
        return jordan(), scalar(draw(sign))
    if sector == "BD":
        return scalar(draw(sign)), rot()
    if sector == "DB":
        return rot(), scalar(draw(sign))
    if sector == "CC":
        return jordan(), jordan()
    return rot(), rot()


def _mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@given(sector_st, st.data())
@settings(max_examples=150, deadline=None)
def test_exact_and_float_input_agree(sector, data):
    m1, m2 = _rational_canonical(sector, data.draw)
    small = st.fractions(-2, 2, max_denominator=3)
    scale = data.draw(st.fractions(Fraction(1, 2), 2, max_denominator=2))
    p, q = data.draw(small), data.draw(small)
    # shear * diagonal * shear: a rational conjugator of determinant 1
    S = _mul(_mul((Fraction(1), p, Fraction(0), Fraction(1)),
                  (scale, Fraction(0), Fraction(0), 1 / scale)),
             (Fraction(1), Fraction(0), q, Fraction(1)))
    Si = (S[3], -S[1], -S[2], S[0])
    u1, u2 = _mul(_mul(Si, m1), S), _mul(_mul(Si, m2), S)
    exact = canonicalize(make_pair(make_sl2(*u1), make_sl2(*u2)))
    approx = canonicalize(make_pair(make_sl2(*map(float, u1)),
                                    make_sl2(*map(float, u2))))
    assert exact.sector == approx.sector == sector
    assert exact.discrete() == approx.discrete()
    for x, y in zip(exact.continuous(), approx.continuous()):
        assert abs(x - y) <= 1e-9
    if sector == "CC":
        assert isinstance(exact.trace.c, Fraction)


@given(sector_st, st.data())
@settings(max_examples=100, deadline=None)
def test_exact_input_builds_each_integer_form_once(sector, data):
    # the integer form is built on first use and kept on the matrix, so the
    # commutator test, the pivot choice, the band, scalar, basis and
    # coupling decisions and any later classify all read the one form
    m1, m2 = _rational_canonical(sector, data.draw)
    q = data.draw(st.fractions(-2, 2, max_denominator=3))
    S = SL2Matrix(Fraction(1), q, Fraction(0), Fraction(1))
    U1, U2 = conjugate(SL2Matrix(*m1), S), conjugate(SL2Matrix(*m2), S)
    calls = []
    real = sl2.exact_integers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sl2, "exact_integers", lambda U: calls.append(U) or real(U))
        p = make_pair(U1, U2)
        assert canonicalize(p).sector == sector
        for U in (U1, U2):
            classify(U)
    assert len(calls) == 2 and calls[0] is U1 and calls[1] is U2


def test_float_canonicalize_tests_exactness_once_per_matrix(monkeypatch):
    calls = []
    real = sl2.is_exact
    monkeypatch.setattr(sl2, "is_exact", lambda U: calls.append(U) or real(U))
    q = apply_conjugation(reconstruct("CC", {"eps1": 1, "eps2": -1,
                                             "alpha": 2.0}),
                          sl2_from_coords(0.3, 0.2, -0.4))
    assert canonicalize(q).sector == "CC"
    assert calls == [q.U1, q.U2]


def overflow_cc():
    """An exact CC pair whose entries fit a float but whose witness
    products do not: S^-1 [[-1, b], [0, -1]] S for b = 1 and 2e-200, with
    S = [[1, 5/4], [0, 1]] diag(r, 1/r) [[1, 0], [-5/4, 1]] and
    r = 7/8 * 10^-150."""
    F = Fraction
    r = F(7, 8) / 10**150
    S = (SL2Matrix(F(1), F(5, 4), F(0), F(1))
         @ SL2Matrix(r, F(0), F(0), 1 / r)
         @ SL2Matrix(F(1), F(0), F(-5, 4), F(1)))
    return tuple(conjugate(SL2Matrix(F(-1), b, F(0), F(-1)), S)
                 for b in (F(1), F(2, 10**200)))


def test_exact_witness_error_beyond_float_range_is_a_record_error():
    # the exact retry of the witness check meets an err beyond the float
    # range; swapped, alpha rounds to pi/2
    U1, U2 = overflow_cc()
    with pytest.raises(SL2TorusError) as exc:
        canonicalize(make_pair(U1, U2))
    assert type(exc.value) is SL2TorusError
    assert str(exc.value) == ("internal witness validation failed "
                              "(CC, err beyond the float range)")
    with pytest.raises(ParamOutOfRange, match="alpha = 1.5707963267948966"):
        canonicalize(make_pair(U2, U1))


# --- the entry-wise witness check against the products it replaces --------

float_matrices = st.builds(SL2Matrix, *[st.floats(-1e3, 1e3)] * 4)
any_float_matrices = st.builds(SL2Matrix, *[st.floats()] * 4)
exact_matrices = st.builds(
    SL2Matrix, *[st.fractions(-100, 100, max_denominator=50)] * 4)


@given(st.one_of(
    st.tuples(float_matrices, float_matrices, float_matrices),
    # inf and NaN, where max keeps its first argument
    st.tuples(any_float_matrices, any_float_matrices, any_float_matrices),
    # exact input against a float witness, and the exact retry
    st.tuples(exact_matrices, exact_matrices, float_matrices),
    st.tuples(exact_matrices, exact_matrices, exact_matrices),
    # a mixed pair
    st.tuples(exact_matrices, float_matrices, float_matrices),
), any_float_matrices, float_matrices)
@settings(max_examples=400)
def test_witness_error_equals_conjugation_and_max_abs_diff(UUW, T1, T2):
    U1, U2, W = UUW
    got = _witness_error(U1, U2, W, CommutingPair(T1, T2))
    q = apply_conjugation(CommutingPair(U1, U2), W)
    want = max(q.U1.max_abs_diff(T1), q.U2.max_abs_diff(T2))
    assert type(got) is type(want) and repr(got) == repr(want)

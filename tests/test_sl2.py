import cmath
import math
from dataclasses import FrozenInstanceError, astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2torus import (
    CanonicalPair,
    CanonTrace,
    ClassificationAmbiguous,
    CommutingPair,
    DeterminantError,
    ParamOutOfRange,
    SL2Matrix,
    SL2TorusError,
    SpectralType,
    ToleranceConfig,
    classify,
    conjugate,
    make_sl2,
    rotation,
    sl2_from_coords,
    trace_class,
)
from sl2torus.sl2 import (
    DEFAULT_TOL,
    commutator_norm,
    float_copy,
    is_exact,
    scalar_band,
)

CFG = ToleranceConfig()
FAMILY = {"A": "hyperbolic", "B": "parabolic", "C": "parabolic",
          "D": "elliptic"}


def test_make_sl2_identity():
    U = make_sl2(1, 0, 0, 1)
    assert U == SL2Matrix(1.0, 0.0, 0.0, 1.0)


def test_make_sl2_diagonal():
    U = make_sl2(2, 0, 0, 0.5)
    assert U.det() == 1.0


def test_make_sl2_rejects_singular():
    with pytest.raises(DeterminantError) as exc:
        make_sl2(1, 1, 1, 1)
    assert exc.value.det == 0


def test_make_sl2_no_renormalization():
    with pytest.raises(DeterminantError):
        make_sl2(1.001, 0, 0, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_sl2_rejects_non_finite(bad):
    with pytest.raises(DeterminantError):
        make_sl2(bad, 0, 0, 1)


def test_make_sl2_exact_keeps_fractions_and_tests_det_exactly():
    tiny = Fraction(1, 10**30)
    U = make_sl2(Fraction(1), tiny, Fraction(0), Fraction(1))
    assert U.b == tiny and isinstance(U.b, Fraction)
    # a determinant off by 1e-30 passes the float test but not the exact one
    make_sl2(1.0, 0.0, 0.0, 1.0 + float(tiny))
    with pytest.raises(DeterminantError):
        make_sl2(Fraction(1) + tiny, Fraction(0), Fraction(0), Fraction(1))


def test_classify_exact_has_no_band():
    # the float band calls this ambiguous; the exact test sees a parabolic
    near = Fraction(5, 10**9)
    with pytest.raises(ClassificationAmbiguous):
        classify(make_sl2(1.0, float(near), 0.0, 1.0), CFG)
    st_ = classify(make_sl2(Fraction(1), near, Fraction(0), Fraction(1)), CFG)
    assert (st_.tag, st_.eps) == ("C", 1)
    # |tr| = 2 - 1e-30 is elliptic, not on the boundary
    e = Fraction(1, 10**30)
    U = make_sl2(1 - e, Fraction(1), -e * (2 - e), 1 - e)
    assert classify(U).tag == "D"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("lam", [0.5, 1e-3, 1e-8, 1e-9, 1e-160])
def test_classify_hyperbolic_diag(lam, sign):
    # a large trace must neither cancel the small eigenvalue nor overflow
    st_ = classify(make_sl2(sign / lam, 0, 0, sign * lam), CFG)
    assert st_.tag == "A"
    assert st_.lam == pytest.approx(sign * lam, rel=1e-12)


def test_classify_minus_identity():
    st_ = classify(make_sl2(-1, 0, 0, -1), CFG)
    assert (st_.tag, st_.eps) == ("B", -1)


def test_classify_jordan_block():
    st_ = classify(make_sl2(1, 1, 0, 1), CFG)
    assert (st_.tag, st_.eps) == ("C", 1)


def test_classify_exact_jordan_below_float_range():
    # 10^-400 rounds to 0.0 as a float, so the direction is found exactly;
    # at 10^-700 even the square root of the entry is below the float range
    F = Fraction
    for e in (400, 700):
        U = make_sl2(F(1), F(1, 10**e), F(0), F(1))
        st_ = classify(U, CFG)
        assert (st_.tag, st_.eps) == ("C", 1)
        v = st_.basis[0]
        assert v[1] == 0 < v[0]


def test_classify_rotation():
    st_ = classify(rotation(math.pi / 3), CFG)
    assert st_.tag == "D"
    assert st_.theta == pytest.approx(math.pi / 3)
    # tr = 2 cos theta
    assert rotation(math.pi / 3).trace() == pytest.approx(1.0)


def test_classify_rotation_lower_half():
    st_ = classify(rotation(4.0), CFG)
    assert st_.theta == pytest.approx(4.0)


def test_classify_ambiguous_band():
    U = SL2Matrix(1.0, 5e-9, 0.0, 1.0)
    with pytest.raises(ClassificationAmbiguous):
        classify(U, CFG)


def test_trace_class_bands():
    assert trace_class(make_sl2(3, 0, 0, 1 / 3)) == "hyperbolic"
    assert trace_class(make_sl2(-1, 1, 0, -1)) == "parabolic"
    assert trace_class(rotation(math.pi / 2)) == "elliptic"


coords = st.tuples(
    st.floats(0, 2 * math.pi, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)

sample_matrices = st.sampled_from([
    make_sl2(2, 0, 0, 0.5),
    make_sl2(-3, 0, 0, -1 / 3),
    make_sl2(1, 1, 0, 1),
    make_sl2(-1, -2.5, 0, -1),
    rotation(1.0),
    rotation(4.5),
    make_sl2(1, 0, 0, 1),
    make_sl2(-1, 0, 0, -1),
])


@given(sample_matrices, coords)
@settings(max_examples=200)
def test_classify_conjugation_invariant(U, c):
    S = sl2_from_coords(*c)
    V = conjugate(U, S)
    su, sv = classify(U, CFG), classify(V, CFG)
    assert su.tag == sv.tag
    if su.tag == "A":
        assert abs(su.lam - sv.lam) <= 10 * CFG.class_tol
    if su.tag == "D":
        # theta is invariant under positive-determinant conjugation
        assert abs(su.theta - sv.theta) <= 10 * CFG.class_tol


@given(sample_matrices, coords)
@settings(max_examples=100)
def test_classify_agrees_with_trace_class(U, c):
    V = conjugate(U, sl2_from_coords(*c))
    band = trace_class(V)
    try:
        tag = classify(V, CFG).tag
    except ClassificationAmbiguous:
        assert band == "parabolic"
        return
    assert FAMILY[tag] == band


def _band_edges(tol):
    """|tr| at 2 + tol and 2 - tol (as floats) and at their two neighbouring
    doubles, for both signs of the trace."""
    for edge in (2 + tol, 2 - tol):
        for t in (math.nextafter(edge, 0), edge, math.nextafter(edge, 4)):
            yield t
            yield -t


@pytest.mark.parametrize("tol", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12])
def test_classify_band_edges_agree_with_trace_class(tol):
    # classify and trace_class make one decision, so at each edge of the
    # band classify either answers in trace_class's family or refuses
    cfg = ToleranceConfig(class_tol=tol)
    for t in _band_edges(tol):
        h = t / 2
        U = make_sl2(h, 1.0, h * (t - h) - 1.0, t - h)
        try:
            tag = classify(U, cfg).tag
        except SL2TorusError:
            continue
        assert FAMILY[tag] == trace_class(U, cfg), (tol, t, tag)


@given(sample_matrices, coords)
@settings(max_examples=100)
def test_classify_basis_normal_form(U, c):
    V = conjugate(U, sl2_from_coords(*c))
    st_ = classify(V, CFG)
    if st_.tag == "B":
        return
    v, w = st_.basis
    assert v[0] * w[1] - v[1] * w[0] != 0
    if st_.tag == "A":
        pairs = ((V.apply(v), (st_.lam * v[0], st_.lam * v[1])),
                 (V.apply(w), (w[0] / st_.lam, w[1] / st_.lam)))
    elif st_.tag == "C":
        e = st_.eps
        pairs = ((V.apply(v), (e * v[0], e * v[1])),
                 (V.apply(w), (v[0] + e * w[0], v[1] + e * w[1])))
    else:
        theta0 = min(st_.theta, 2 * math.pi - st_.theta)
        ev = cmath.exp(1j * theta0)
        u = (complex(v[0], w[0]) / 2, complex(v[1], w[1]) / 2)
        pairs = ((V.apply(u), (ev * u[0], ev * u[1])),)
    scale = max(1.0, abs(V.a), abs(V.b), abs(V.c), abs(V.d))
    for got, want in pairs:
        assert abs(got[0] - want[0]) + abs(got[1] - want[1]) <= 1e-7 * scale


def test_elliptic_theta_never_boundary():
    for ang in (0.3, 1.5, 2.9, 3.5, 5.0, 6.0):
        th = classify(rotation(ang), CFG).theta
        assert 0 < th < 2 * math.pi and not math.isclose(th, math.pi)


def exact_rotation(n, sign):
    """The exact rotation with tan(angle / 2) = sign / n."""
    co, si = Fraction(n * n - 1, n * n + 1), Fraction(sign * 2 * n, n * n + 1)
    return make_sl2(co, -si, si, co)


def test_classify_exact_angle_below_cosine_resolution():
    # cos(2e-9) rounds to 1.0; the angle comes from the exact 2 - tr
    assert classify(exact_rotation(10**9, 1), CFG).theta == \
        pytest.approx(2e-9, rel=1e-12)
    assert classify(exact_rotation(10**9, -1), CFG).theta == \
        pytest.approx(2 * math.pi - 2e-9, rel=1e-15)


def test_classify_exact_rounding_to_boundary_raises():
    F = Fraction
    N = 10**20
    # the eigenvalue N / (N + 1) rounds to 1.0
    with pytest.raises(ParamOutOfRange, match="lam = 1.0"):
        classify(make_sl2(F(N + 1, N), F(0), F(0), F(N, N + 1)), CFG)
    # 2 pi - 2 / N rounds to 2 pi, and pi - 2 / N to pi
    with pytest.raises(ParamOutOfRange, match="theta = 6.28"):
        classify(exact_rotation(N, -1), CFG)
    with pytest.raises(ParamOutOfRange, match="theta = 3.14"):
        classify(make_sl2(*(-x for x in astuple(exact_rotation(N, 1)))), CFG)


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(det_tol=0.0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "name", ["det_tol", "class_tol", "comm_tol", "param_tol"])
def test_tolerance_config_rejects_non_finite_and_nonpositive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and above 0"):
        ToleranceConfig(**{name: value})


# --- representation of the per-pair value types ---------------------------

_I = SL2Matrix(1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("obj", [
    _I, SpectralType("B", eps=1), CommutingPair(_I, _I), CanonTrace(),
    CanonicalPair("BB", {"eps1": 1, "eps2": 1}, _I),
], ids=lambda obj: type(obj).__name__)
def test_per_pair_types_are_slotted(obj):
    # built several times per canonicalization; a frozen dataclass sets
    # every field through object.__setattr__, a large share of the time
    # canonicalize takes
    assert "__slots__" in vars(type(obj))
    assert not hasattr(obj, "__dict__")


def test_default_tolerances_stay_frozen():
    with pytest.raises(FrozenInstanceError):
        DEFAULT_TOL.class_tol = 1.0


# --- the fused kernels against the products they replace -------------------

# The identity is one of operations, not of algebra, so any entries do.
float_entries = st.floats(-1e3, 1e3)
exact_entries = st.fractions(-100, 100, max_denominator=50)


def matrices(entries):
    return st.builds(SL2Matrix, entries, entries, entries, entries)


def same(got, want):
    """Equal value and type, and for floats the same bits; NaN matches NaN."""
    if type(got) is not type(want):
        return False
    if type(got) is float and math.isnan(got):
        return math.isnan(want)
    return got == want and (type(got) is not float
                            or math.copysign(1.0, got)
                            == math.copysign(1.0, want))


def assert_kernels_match_products(U, S):
    got, want = conjugate(U, S), S.inv() @ U @ S
    assert all(map(same, astuple(got), astuple(want))), (got, want)
    assert same(commutator_norm(U, S), (U @ S).max_abs_diff(S @ U))


@given(st.one_of(
    st.tuples(matrices(float_entries), matrices(float_entries)),
    st.tuples(matrices(exact_entries), matrices(exact_entries)),
    # exact U with float S, as the handlers conjugate rational input
    st.tuples(matrices(exact_entries), matrices(float_entries)),
))
@settings(max_examples=300)
def test_fused_kernels_equal_the_products(US):
    assert_kernels_match_products(*US)


@given(matrices(float_entries), matrices(float_entries), st.integers(0, 7))
@settings(max_examples=200)
def test_fused_kernels_equal_the_products_with_nan(U, S, k):
    entries = [*astuple(U), *astuple(S)]
    entries[k] = math.nan
    assert_kernels_match_products(SL2Matrix(*entries[:4]),
                                  SL2Matrix(*entries[4:]))


@pytest.mark.parametrize("entries,exact", [
    ((Fraction(2), Fraction(1), Fraction(1), Fraction(1)), True),
    ((2, Fraction(1), Fraction(1), Fraction(1)), False),
    ((Fraction(2), 1.0, Fraction(1), Fraction(1)), False),
    ((Fraction(2), Fraction(1), True, Fraction(1)), False),
], ids=["fractions", "int", "float", "bool"])
def test_is_exact_only_for_four_fractions(entries, exact):
    assert is_exact(SL2Matrix(*entries)) is exact
    U = make_sl2(*entries)
    assert is_exact(U) is exact
    assert all(type(x) is (Fraction if exact else float) for x in astuple(U))


# --- exact decisions in integers against Fraction arithmetic ---------------

# signed, zero, and with numerators and denominators far beyond 2**64; all
# within the float range
wide_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]),
    st.fractions(-3, 3, max_denominator=6),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


@st.composite
def exact_quadruples(draw):
    """Four Fractions, with det 1, |tr| = 2 or a scalar matrix often."""
    a, b, c = draw(wide_fractions), draw(wide_fractions), draw(wide_fractions)
    kind = draw(st.sampled_from(["any", "unit", "tr2", "scalar", "nudged"]))
    if kind == "scalar":
        eps = draw(st.sampled_from([1, -1]))
        return Fraction(eps), Fraction(0), Fraction(0), Fraction(eps)
    if kind == "tr2":
        return a, b, c, draw(st.sampled_from([2, -2])) - a
    if kind in ("unit", "nudged") and a != 0:
        d = (1 + b * c) / a
        return a, b, c, d + (draw(wide_fractions) if kind == "nudged" else 0)
    return a, b, c, draw(wide_fractions)


@given(exact_quadruples())
@settings(max_examples=400)
def test_make_sl2_exact_decides_like_fractions(q):
    a, b, c, d = q
    det = a * d - b * c
    if det == 1:
        assert make_sl2(*q) == SL2Matrix(*q)
    else:
        with pytest.raises(DeterminantError) as exc:
            make_sl2(*q)
        assert type(exc.value.det) is Fraction and exc.value.det == det


@given(exact_quadruples())
@settings(max_examples=400)
def test_exact_band_and_scalar_tests_decide_like_fractions(q):
    U = SL2Matrix(*q)
    a, b, c, d = q
    off = abs(a + d) - 2
    band = ("parabolic" if off == 0 else
            "hyperbolic" if off > 0 else "elliptic")
    assert trace_class(U) == band
    if band != "parabolic":
        assert scalar_band(U) == (None, False)
        return
    eps = 1 if a + d > 0 else -1
    dev = max(abs(a - eps), abs(b), abs(c), abs(d - eps))
    assert scalar_band(U) == (eps, dev == 0)


@given(matrices(wide_fractions), matrices(st.floats()))
@settings(max_examples=300)
def test_float_copy_conjugates_to_the_same_bits(U, S):
    # Fraction op float is float(F) op x, so an exact U conjugated by a
    # float S gives the bits of its float copy, signed zeros included
    assert repr(conjugate(float_copy(U), S)) == repr(conjugate(U, S))
    assert all(type(x) is float for x in astuple(float_copy(U)))
    assert float_copy(S) is S

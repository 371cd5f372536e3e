"""Floats computed from exact input, against Fraction arithmetic.

classify reads the floats of an exact matrix from its integers (see
sl2.exact_integers), and the CLI range-checks rational entries and traces
as integer quotients.  Here a reference computes the same quantities in
Fraction arithmetic, as the package once did, and every result must match
it bit for bit: the parameter, the basis and any exception.  The signs of
exact C-family canonical forms, which canonicalize decides in Fraction
arithmetic, are checked against integer formulas on the numerators and
denominators of the normal forms.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2torus import SL2Matrix, canonicalize, classify, conjugate
from sl2torus.canonical import component_index
from sl2torus.cli import (
    ParseFailure,
    _beyond_float_range,
    _entry_fraction,
    _pair,
)
from sl2torus.errors import DeterminantError, ParamOutOfRange
from sl2torus.pairs import CommutingPair
from sl2torus.sl2 import float_copy

# --- classify -------------------------------------------------------------


def _reference_eigendirection(U, lam):
    r1 = (U.a - lam, U.b)
    r2 = (U.c, U.d - lam)
    row = r1 if math.hypot(*r1) >= math.hypot(*r2) else r2
    n = math.hypot(row[1], -row[0])
    if n == 0.0:
        raise ValueError("zero eigendirection")
    x, y = row[1] / n, -row[0] / n
    if x < 0 or (abs(x) < 1e-14 and y < 0):
        x, y = -x, -y
    return (x, y)


def reference_classify(U):
    """(tag, parameter, basis) of an exact U in Fraction arithmetic, where
    Fraction op float is float(F) op x."""
    t = U.a + U.d
    off = abs(t) - 2
    if off == 0:
        eps = 1 if t > 0 else -1
        if U.b == 0 and U.c == 0:
            return "B", eps, ()
        c1, c2 = (U.a - eps, U.c), (U.b, U.d - eps)
        second = max(map(abs, c2)) >= max(map(abs, c1))
        v1, w = (c2, (0, 1)) if second else (c1, (1, 0))
        det = abs(v1[0] * w[1] - v1[1] * w[0])
        e = det.numerator.bit_length() - det.denominator.bit_length()
        s = Fraction(2) ** (e // 2)
        return "C", eps, ((v1[0] / s, v1[1] / s), (w[0] / s, w[1] / s))
    if off > 0:
        s = abs(t)
        disc = math.sqrt(s - 2) * math.sqrt(s + 2)
        lam_inv = math.copysign((s + disc) / 2.0, t)
        lam = 1.0 / lam_inv
        if not 0 < abs(lam) < 1:
            raise ParamOutOfRange(f"lam = {lam!r} rounds to a boundary")
        return "A", lam, (_reference_eigendirection(U, lam),
                          _reference_eigendirection(U, lam_inv))
    co = max(-1.0, min(1.0, t / 2.0))
    theta = math.acos(co)
    if not 0 < theta < math.pi:
        off = 2.0 * math.asin(math.sqrt((2 - abs(t)) / 4))
        theta = off if t > 0 else math.pi - off
    ev = complex(co, math.sin(theta))
    if U.c - U.b < 0:
        theta = 2.0 * math.pi - theta
    if theta in (0.0, math.pi, 2.0 * math.pi):
        raise ParamOutOfRange(f"theta = {theta!r} rounds to a boundary")
    if abs(U.b) >= abs(U.c):
        u = (complex(U.b), ev - U.a)
    else:
        u = (ev - U.d, complex(U.c))
    return "D", theta, ((2.0 * u[0].real, 2.0 * u[1].real),
                        (2.0 * u[0].imag, 2.0 * u[1].imag))


def _outcome(fn, U):
    """repr of the result, so floats compare by their bits and -0.0 differs
    from 0.0, or the type and message of the exception."""
    try:
        return repr(fn(U))
    except (ParamOutOfRange, ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _classified(U):
    t = classify(U)
    param = {"A": t.lam, "B": t.eps, "C": t.eps, "D": t.theta}[t.tag]
    return t.tag, param, t.basis


def _exact(*entries):
    return SL2Matrix(*(Fraction(x) for x in entries))


signs = st.sampled_from([1, -1])
# a gap from |tr| = 2 down to below float resolution, or not small at all,
# and now and then below the float range
gaps = st.builds(lambda k, f: f / 10**k,
                 st.one_of(st.integers(0, 40), st.sampled_from([200, 400])),
                 st.fractions(Fraction(1, 7), 3, max_denominator=9))


@st.composite
def normal_forms(draw):
    """Exact hyperbolic, elliptic and parabolic matrices, often with |tr|
    within float rounding of 2."""
    sign, gap = draw(signs), draw(gaps)
    kind = draw(st.sampled_from(["A", "D", "C", "any"]))
    if kind == "A":
        lam = 1 + gap
        return _exact(sign * lam, 0, 0, sign / lam)
    if kind == "D":  # tan(angle / 2) = gap, so |tr| = 2 - 4 gap^2 + ...
        h = 1 + gap * gap
        co, si = (1 - gap * gap) / h, draw(signs) * 2 * gap / h
        return _exact(sign * co, -sign * si, sign * si, sign * co)
    if kind == "C":
        return _exact(sign, draw(signs) * gap, 0, sign)
    a = draw(st.fractions(-5, 5, max_denominator=9).filter(bool))
    b, c = draw(st.fractions(-5, 5, max_denominator=9)), draw(gaps)
    return _exact(a, b, c, (1 + b * c) / a)


@st.composite
def conjugators(draw):
    """Shear, diagonal, shear; a diagonal entry up to 10^200 puts entries
    near 10^-400 and, past the float range, 10^400."""
    p = draw(st.fractions(-3, 3, max_denominator=4))
    q = draw(st.fractions(-3, 3, max_denominator=4))
    r = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    r *= Fraction(10) ** draw(st.sampled_from([0, 0, 1, 100, 200, -200]))
    return (_exact(1, p, 0, 1) @ _exact(r, 0, 0, 1 / r)) @ _exact(1, 0, q, 1)


@given(normal_forms(), conjugators())
@settings(max_examples=600, deadline=None)
def test_classify_matches_fraction_arithmetic_bit_for_bit(M, S):
    U = conjugate(M, S)
    assert _outcome(_classified, U) == _outcome(reference_classify, U)


def test_exact_zero_negates_to_positive_zero():
    # the eigendirection of 2 is read off the row (c, d - 2) = (0, -3/2) as
    # (d - 2, -c), then negated: -c is 0.0 on the exact 0 and -0.0 on the
    # float copy, so the sign of the last entry tells the two apart
    U = _exact(2, 1, 0, Fraction(1, 2))
    assert _outcome(_classified, U) == _outcome(reference_classify, U)
    assert repr(classify(U).basis[1]) == "(1.0, -0.0)"
    assert repr(classify(float_copy(U)).basis[1]) == "(1.0, 0.0)"


# --- the CLI's range checks -----------------------------------------------

# correctly rounded, a quotient at or above this is beyond the float range
OVERFLOW = 2**1024 - 2**970


def _overflows(x):
    try:
        float(x)
    except OverflowError:
        return True
    return False


quotients = st.builds(
    lambda d, delta, sign: (sign * (OVERFLOW * abs(d) + delta), d),
    st.integers(1, 2**70).flatmap(lambda d: st.sampled_from([d, -d])),
    st.integers(-2**72, 2**72), signs)


@given(quotients)
@settings(max_examples=500)
def test_integer_range_check_overflows_like_float_of_fraction(q):
    n, d = q
    assert _beyond_float_range(n, d) == _overflows(Fraction(n, d))
    if _overflows(Fraction(n, d)):
        with pytest.raises(ParseFailure, match="beyond the float range"):
            _entry_fraction([n, d], "w")
    else:
        assert _entry_fraction([n, d], "w") == Fraction(n, d)


@given(quotients, st.integers(-2**60, 2**60))
@settings(max_examples=300)
def test_trace_range_check_overflows_like_float_of_fraction(q, delta):
    # two entries below the float range whose sum may not be; the trace is
    # checked before the determinant
    n, d = q
    half = Fraction(n, 2 * d)
    a, b = half + Fraction(delta, 3), half - Fraction(delta, 5)
    side = {"U1": [[[a.numerator, a.denominator], 0],
                   [0, [b.numerator, b.denominator]]],
            "U2": [[1, 0], [0, 1]]}
    if _overflows(a + b):
        with pytest.raises(ParseFailure, match="trace of U1 beyond"):
            _pair(side, "w", "rational", None)
    else:
        with pytest.raises(DeterminantError):
            _pair(side, "w", "rational", None)


# --- the signs of exact C-family canonical forms --------------------------


def _sign(n):
    return 1 if n > 0 else -1


def _integer_det_sign(v, w):
    """Sign of det(v, w) for four Fraction entries, in integers."""
    (p0, q0), (p1, q1), (r0, s0), (r1, s1) = (
        (x.numerator, x.denominator) for x in (*v, *w))
    return _sign(p0 * r1 * q1 * s0 - p1 * r0 * q0 * s1)


def _conjugated_jordan(eps, n, d, S):
    """S^-1 [[eps, n/d], [0, eps]] S, or None when an entry is beyond the
    float range, where the CLI rejects the record."""
    U = conjugate(_exact(eps, Fraction(n, d), 0, eps), S)
    return None if any(map(_overflows, (U.a, U.b, U.c, U.d))) else U


@st.composite
def nilpotent_parts(draw):
    """The nilpotent parts (n1, d1), (n2, d2) of a CC normal form: a
    Pythagorean (cos, sin) in any quarter, or 1 beside +-1/10^k."""
    s1, s2 = draw(signs), draw(signs)
    if draw(st.booleans()):
        m = draw(st.integers(2, 40))
        n = draw(st.integers(1, m - 1))
        h = m * m + n * n
        return (s1 * (m * m - n * n), h), (s2 * 2 * m * n, h)
    return (s1, 1), (s2, 10 ** draw(st.integers(1, 14)))


@given(nilpotent_parts(), signs, signs, conjugators())
@settings(max_examples=300, deadline=None)
def test_cc_signs_match_integer_formulas(parts, e1, e2, S):
    # U1 and U2 = S^-1 [[e, n/d], [0, e]] S: tan(alpha) = c = (n2/d2) /
    # (n1/d1), alpha's quarter arc is that of (n1, n2), and det S' has the
    # sign of n1, which is also the orientation of U1's basis
    (n1, d1), (n2, d2) = parts
    U1 = _conjugated_jordan(e1, n1, d1, S)
    U2 = _conjugated_jordan(e2, n2, d2, S)
    assume(U1 is not None and U2 is not None)
    quarter = {(1, 1): 0, (-1, 1): 1, (-1, -1): 2, (1, -1): 3}
    for (P, e, n, d), (O, eo, no, do) in (
            ((U1, e1, n1, d1), (U2, e2, n2, d2)),
            ((U2, e2, n2, d2), (U1, e1, n1, d1))):
        assert _integer_det_sign(*classify(P).basis) == _sign(n)
        cp = canonicalize(CommutingPair(P, O))
        assert cp.sector == "CC"
        assert (cp.params["eps1"], cp.params["eps2"]) == (e, eo)
        assert cp.trace.det_sprime_sign == _sign(n)
        assert type(cp.trace.c) is Fraction
        assert cp.trace.c == Fraction(no * d, do * n)
        assert component_index("alpha", cp.params["alpha"]) == quarter[
            _sign(n), _sign(no)]


@given(st.builds(lambda k, f: f / 10**k,
                 st.one_of(st.integers(0, 40), st.just(100)),
                 st.fractions(Fraction(1, 7), 3, max_denominator=9)),
       signs, signs, signs, conjugators())
@settings(max_examples=300, deadline=None)
def test_cb_bc_signs_match_integer_formulas(y, s, e1, e2, S):
    # S^-1 [[e1, s y], [0, e1]] S beside e2 I: eps3 (eps4 in the other
    # order) and det S' are the sign of the numerator of s y
    U1 = _conjugated_jordan(e1, s * y.numerator, y.denominator, S)
    assume(U1 is not None)
    U2, sign = _exact(e2, 0, 0, e2), _sign(s * y.numerator)
    assert _integer_det_sign(*classify(U1).basis) == sign
    cb = canonicalize(CommutingPair(U1, U2))
    bc = canonicalize(CommutingPair(U2, U1))
    assert (cb.sector, cb.params) == ("CB", {"eps1": e1, "eps2": e2,
                                             "eps3": sign})
    assert (bc.sector, bc.params) == ("BC", {"eps1": e2, "eps2": e1,
                                             "eps4": sign})
    assert cb.trace.c is None and bc.trace.c is None
    assert cb.trace.det_sprime_sign == bc.trace.det_sprime_sign == sign

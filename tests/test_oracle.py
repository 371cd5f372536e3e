import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sl2torus
from sl2torus import (
    CommutingPair,
    DeterminantError,
    SL2Matrix,
    ToleranceConfig,
    apply_conjugation,
    classify,
    conjugate,
    exact_classify,
    make_pair,
    make_sl2,
    reconstruct,
    rotation,
    search_conjugator,
    sl2_from_coords,
)
from sl2torus import oracle
from sl2torus.atlas import random_sl2, sample_params, sample_sector
from sl2torus.canonical import SECTORS
from sl2torus.oracle import CONVERGENCE_THRESHOLD, DISTINCT_FLOOR, RANK_TOL
from sl2torus.sl2 import IDENTITY

CFG = ToleranceConfig()


def test_sl2_from_coords_always_unit_det():
    rng = random.Random(0)
    for _ in range(200):
        S = sl2_from_coords(rng.uniform(0, 2 * math.pi),
                            rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert S.det() == pytest.approx(1.0, abs=1e-10)


def test_sl2_from_coords_identity():
    S = sl2_from_coords(0.0, 0.0, 0.0)
    assert S.max_abs_diff(make_sl2(1, 0, 0, 1)) <= 1e-15


def test_search_identical_pairs():
    p = make_pair(rotation(1.0), rotation(2.0))
    report = search_conjugator(p, p, seed=0)
    assert report.converged
    assert report.residual <= CONVERGENCE_THRESHOLD


def test_search_planted_conjugator():
    rng = random.Random(7)
    p = make_pair(make_sl2(2, 0, 0, 0.5), make_sl2(3, 0, 0, 1 / 3))
    q0 = apply_conjugation(p, random_sl2(rng))
    q = make_pair(q0.U1, q0.U2)
    report = search_conjugator(p, q, seed=1)
    assert report.converged
    # the returned witness must actually conjugate p onto q
    got = apply_conjugation(p, report.best_S)
    assert got.U1.max_abs_diff(q.U1) <= 1e-6
    assert got.U2.max_abs_diff(q.U2) <= 1e-6


def test_search_flipped_twin_fails():
    # reflection-conjugate elliptic pairs are GL- but not SL-equivalent
    p = make_pair(rotation(2.0), rotation(5.0))
    q = make_pair(rotation(2 * math.pi - 2.0), rotation(2 * math.pi - 5.0))
    report = search_conjugator(p, q, seed=2)
    assert not report.converged
    assert report.residual >= DISTINCT_FLOOR


def test_search_different_sectors_fails():
    p = make_pair(make_sl2(1, 0, 0, 1), make_sl2(1, 1, 0, 1))
    q = make_pair(make_sl2(1, 0, 0, 1), make_sl2(1, -1, 0, 1))
    report = search_conjugator(p, q, seed=3)
    assert not report.converged
    # every intertwiner has det <= 0, so best_S falls back to the identity,
    # which must not be the shared constant
    assert report.best_S == IDENTITY
    assert report.best_S is not IDENTITY


def test_search_deterministic():
    p = sample_sector("DD", seed=5, conjugate=True)
    q = sample_sector("DD", seed=6, conjugate=True)
    r1 = search_conjugator(p, q, seed=9)
    r2 = search_conjugator(p, q, seed=9)
    assert r1.residual == r2.residual
    assert r1.best_S == r2.best_S


@pytest.mark.parametrize("sector", SECTORS)
def test_search_within_each_sector(sector):
    base = sample_sector(sector, seed=42, conjugate=False)
    rng = random.Random(13)
    q0 = apply_conjugation(base, random_sl2(rng))
    q = make_pair(q0.U1, q0.U2)
    report = search_conjugator(base, q, seed=4)
    assert report.converged, (sector, report.residual)


def _recomputed_residual(p, q, S):
    got = apply_conjugation(p, S)
    return max(got.U1.max_abs_diff(q.U1), got.U2.max_abs_diff(q.U2))


@pytest.mark.parametrize("sector", SECTORS)
def test_search_witness_is_unit_det_and_residual_honest(sector):
    base = sample_sector(sector, seed=8, conjugate=False)
    q0 = apply_conjugation(base, random_sl2(random.Random(29)))
    q = make_pair(q0.U1, q0.U2)
    report = search_conjugator(base, q)
    assert report.converged
    assert report.best_S.det() == pytest.approx(1.0, abs=1e-9)
    assert _recomputed_residual(base, q, report.best_S) == \
        pytest.approx(report.residual, rel=1e-9, abs=1e-15)


# det -1 twins: GL(2,R)- but not SL(2,R)-conjugate.  For BC and CB the
# largest value of the determinant form on the intertwiners is exactly 0.
DET_MINUS_ONE_TWINS = [
    ("BC", {"eps1": -1, "eps2": 1, "eps4": 1},
     {"eps1": -1, "eps2": 1, "eps4": -1}),
    ("CB", {"eps1": 1, "eps2": -1, "eps3": 1},
     {"eps1": 1, "eps2": -1, "eps3": -1}),
    ("CC", {"eps1": 1, "eps2": -1, "alpha": math.pi / 4},
     {"eps1": 1, "eps2": -1, "alpha": math.pi / 4 + math.pi}),
    ("BD", {"eps1": 1, "phi": 2.0}, {"eps1": 1, "phi": 2 * math.pi - 2.0}),
    ("DB", {"theta": 0.8, "eps2": -1},
     {"theta": 2 * math.pi - 0.8, "eps2": -1}),
    ("DD", {"theta": 1.0, "phi": 4.0},
     {"theta": 2 * math.pi - 1.0, "phi": 2 * math.pi - 4.0}),
]


@pytest.mark.parametrize("sector,params,twin_params", DET_MINUS_ONE_TWINS,
                         ids=[c[0] for c in DET_MINUS_ONE_TWINS])
def test_search_rejects_det_minus_one_twins(sector, params, twin_params):
    rng = random.Random(31)
    p = reconstruct(sector, params)
    for _ in range(5):
        q0 = apply_conjugation(reconstruct(sector, twin_params),
                               random_sl2(rng))
        q = make_pair(q0.U1, q0.U2)
        report = search_conjugator(p, q)
        assert not report.converged
        assert report.residual >= DISTINCT_FLOOR
        assert report.best_S.det() == pytest.approx(1.0, abs=1e-9)
        assert _recomputed_residual(p, q, report.best_S) == \
            pytest.approx(report.residual, rel=1e-9, abs=1e-15)


def test_search_converges_under_large_conjugators():
    # log-scales up to 4: witnesses of norm up to about 100 and entries of
    # q up to about 2e4, where a backward-stable solve's residual nears
    # CONVERGENCE_THRESHOLD (the worst case here is about 8e-9)
    rng = random.Random(7)
    worst = (0.0, None)
    for sector in SECTORS:
        for _ in range(200):
            base = reconstruct(sector, sample_params(sector, rng))
            S = sl2_from_coords(rng.uniform(0, 2 * math.pi),
                                rng.uniform(-4, 4), rng.uniform(-2, 2))
            rep = search_conjugator(base, apply_conjugation(base, S))
            worst = max(worst, (rep.residual, sector))
    assert worst[0] <= CONVERGENCE_THRESHOLD, worst


def _reflected(U, R):
    """R^-1 F^-1 U F R for F = diag(-1, 1), so det(F R) = -1."""
    return conjugate(SL2Matrix(U.a, -U.b, -U.c, U.d), R)


def _reference_cases():
    """Planted equivalent, distinct (the next sector's sample) and det -1
    conjugate pairs of every sector; the last are the det -1 twins, which
    for BC, CB, CC, BD, DB and DD are not SL(2,R)-conjugate."""
    rng = random.Random(19)
    for i, sector in enumerate(SECTORS):
        base = reconstruct(sector, sample_params(sector, rng))
        other = SECTORS[(i + 1) % len(SECTORS)]
        R = random_sl2(rng)
        yield sector, "equivalent", base, apply_conjugation(base, R)
        yield sector, "distinct", base, apply_conjugation(
            reconstruct(other, sample_params(other, rng)), R)
        yield sector, "det -1", base, CommutingPair(
            _reflected(base.U1, R), _reflected(base.U2, R))


def test_non_converged_search_returns_the_identity():
    # without a conjugator there is no better guess: best_S is the identity
    # and the residual is the distance between the pairs themselves
    for sector, kind, p, q in _reference_cases():
        report = search_conjugator(p, q)
        if not report.converged:
            assert report.best_S == IDENTITY, (sector, kind)
            assert report.residual == max(p.U1.max_abs_diff(q.U1),
                                          p.U2.max_abs_diff(q.U2))


def test_intertwiners_match_numpy_svd():
    np = pytest.importorskip("numpy")
    for sector, kind, p, q in _reference_cases():
        M = np.array(oracle._sylvester_rows(p.U1, q.U1)
                     + oracle._sylvester_rows(p.U2, q.U2), dtype=float)
        _, sv, vt = np.linalg.svd(M)
        ref = vt[sv <= RANK_TOL * max(1.0, sv[0])]
        basis = np.array(oracle._intertwiners(p, q)).reshape(-1, 4)
        assert len(basis) == len(ref), (sector, kind, sv)
        gap = np.abs(basis.T @ basis - ref.T @ ref).max()
        assert gap <= 1e-8, (sector, kind, gap)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_top_eigenpair_matches_numpy(order):
    # orders 1 and 3 arise only from degenerate input
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(order)
    for i in range(200):
        X = rng.normal(size=(order, order))
        if i % 4 == 0:  # repeated eigenvalues
            X = np.diag(rng.integers(-1, 2, size=order)).astype(float)
        G = (X + X.T) / 2
        lam, v = oracle._top_eigenpair(G.tolist())
        assert lam == pytest.approx(np.linalg.eigvalsh(G)[-1], abs=1e-14)
        assert np.abs(G @ v - lam * np.array(v)).max() <= 1e-14
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)


def fresh_python(code):
    """Standard output of `code` run by a new interpreter."""
    src = str(Path(sl2torus.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    code = "import sys, sl2torus; print('scipy' in sys.modules)"
    assert fresh_python(code) == "False"


@pytest.mark.parametrize("module",
                         ["sl2torus", "sl2torus.cli", "sl2torus.oracle"])
def test_import_does_not_load_numpy_or_jsonschema(module):
    code = (f"import sys, {module}; "
            "print([m for m in ('numpy', 'jsonschema') if m in sys.modules])")
    assert fresh_python(code) == "[]"


def test_oracle_names_load_the_oracle_on_first_use():
    code = ("import sys, sl2torus; "
            "print('sl2torus.oracle' in sys.modules); "
            "print(sl2torus.search_conjugator.__module__); "
            "print('sl2torus.oracle' in sys.modules); "
            "from sl2torus import ConjugatorSearchReport, exact_classify; "
            "print(ConjugatorSearchReport.__module__, "
            "exact_classify.__module__)")
    assert fresh_python(code).splitlines() == [
        "False", "sl2torus.oracle", "True", "sl2torus.oracle sl2torus.oracle"]


def test_search_accepts_exact_pairs():
    F = Fraction
    J = make_sl2(F(1), F(1), F(0), F(1))
    K = make_sl2(F(1), F(3, 2), F(0), F(1))
    S = make_sl2(F(2), F(1), F(3), F(2))
    p = make_pair(J, K)
    q = make_pair(S.inv() @ J @ S, S.inv() @ K @ S)
    assert search_conjugator(p, q).converged
    assert not search_conjugator(p, make_pair(J, K.inv())).converged


# --- exact classification -------------------------------------------------


def test_exact_hyperbolic():
    st_ = exact_classify(Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1))
    assert st_.tag == "A"


def test_exact_parabolic_tiny_offdiag():
    st_ = exact_classify(Fraction(1), Fraction(1, 7), Fraction(0), Fraction(1))
    assert (st_.tag, st_.eps) == ("C", 1)


def test_exact_scalar():
    st_ = exact_classify(Fraction(-1), Fraction(0), Fraction(0), Fraction(-1))
    assert (st_.tag, st_.eps) == ("B", -1)


def test_exact_elliptic():
    st_ = exact_classify(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))
    assert st_.tag == "D"


def test_exact_rejects_bad_determinant():
    with pytest.raises(DeterminantError):
        exact_classify(Fraction(2), Fraction(0), Fraction(0), Fraction(1))


def test_exact_agrees_with_float_away_from_boundary():
    rng = random.Random(17)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        if b == 0:
            continue
        # complete to determinant one: d = (1 + b c) / a when a != 0
        if a == 0:
            continue
        d = (1 + b * c) / a
        tr = a + d
        if abs(abs(tr) - 2) < Fraction(1, 1000):
            continue
        exact = exact_classify(a, b, c, d)
        approx = classify(make_sl2(float(a), float(b), float(c), float(d)), CFG)
        assert exact.tag == approx.tag


def test_oracle_agrees_with_constructive_equivalence():
    # for pairs drawn from the same canonical point, the search converges;
    # across distinct canonical points it does not
    rng = random.Random(23)
    base = sample_sector("AA1", seed=77, conjugate=False)
    same0 = apply_conjugation(base, random_sl2(rng))
    same = make_pair(same0.U1, same0.U2)
    other = sample_sector("AA2", seed=77, conjugate=True)
    assert search_conjugator(base, same, seed=5).converged
    assert not search_conjugator(base, other, seed=5).converged

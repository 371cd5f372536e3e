"""Acceptance suite: eight machine-checked properties of the library, one
pass/fail line printed per criterion."""

import math
import random
import time
from fractions import Fraction
from itertools import product

from sl2torus import (
    ClassificationAmbiguous,
    SL2Matrix,
    ToleranceConfig,
    allowed_combination,
    apply_conjugation,
    canonicalize,
    classify,
    coarse_combo,
    equivalent,
    exact_classify,
    make_pair,
    make_sl2,
    reconstruct,
    search_conjugator,
    sl2_from_coords,
    trace_class,
)
from sl2torus.atlas import random_sl2, sample_params
from sl2torus.canonical import SECTOR_CONTINUOUS, SECTORS
from sl2torus.cli import main
from sl2torus.oracle import CONVERGENCE_THRESHOLD, DISTINCT_FLOOR

CFG = ToleranceConfig()


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[acceptance {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_round_trip_uniqueness(capsys):
    failures = 0
    start = time.perf_counter()
    for sector in SECTORS:
        for i in range(1000):
            rng = random.Random(f"{sector}:{i}")
            params = sample_params(sector, rng)
            p = apply_conjugation(reconstruct(sector, params),
                                  random_sl2(rng))
            try:
                c = canonicalize(make_pair(p.U1, p.U2, CFG), CFG)
            except Exception:
                failures += 1
                continue
            if c.sector != sector:
                failures += 1
                continue
            for k, v in params.items():
                if isinstance(v, int):
                    if c.params[k] != v:
                        failures += 1
                        break
                elif abs(c.params[k] - v) > 1e-6:
                    failures += 1
                    break
    elapsed = time.perf_counter() - start
    report(capsys, 1, "round-trip uniqueness",
           failures == 0 and elapsed <= 10.0,
           f"{failures} failures, {elapsed:.1f}s")


ALLOWED = {("A", "A"), ("C", "C"), ("D", "D")} \
    | {("B", t) for t in "ABCD"} | {(t, "B") for t in "ABCD"}


def test_criterion_2_allowed_combinations(capsys):
    violations = 0
    for sector in SECTORS:
        for i in range(1000):
            rng = random.Random(f"combo:{sector}:{i}")
            p = apply_conjugation(
                reconstruct(sector, sample_params(sector, rng)),
                random_sl2(rng))
            try:
                combo = coarse_combo(make_pair(p.U1, p.U2, CFG), CFG)
            except ClassificationAmbiguous:
                continue
            if combo not in ALLOWED:
                violations += 1
    # fuzz family: U2 a linear polynomial in U1, rescaled to unit det
    rng = random.Random(77)
    for _ in range(2000):
        U1 = random_sl2(rng)
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        det2 = a * a + a * b * U1.trace() + b * b
        if det2 <= 1e-6:
            continue
        r = 1.0 / math.sqrt(det2)
        U2 = make_sl2(r * (a * U1.a + b), r * a * U1.b,
                      r * a * U1.c, r * (a * U1.d + b), CFG)
        try:
            combo = coarse_combo(make_pair(U1, U2, CFG), CFG)
        except ClassificationAmbiguous:
            continue
        if combo not in ALLOWED:
            violations += 1
    report(capsys, 2, "allowed combinations", violations == 0,
           f"{violations} violations")


def _distinct_params(sector, params, rng):
    """A second parameter point of the same sector, guaranteed to name a
    different equivalence class."""
    out = dict(params)
    discrete = [k for k, v in params.items() if isinstance(v, int)]
    if discrete:
        k = rng.choice(discrete)
        out[k] = -out[k]
        return out
    # DD / AA: move one continuous axis far within its component
    k = rng.choice(SECTOR_CONTINUOUS[sector])
    v = out[k]
    if sector in ("AA1", "AA2"):
        out[k] = math.copysign(0.5 * abs(v) + 0.02, v)
        if abs(out[k] - v) < 0.01:
            out[k] = math.copysign(abs(v) * 0.3 + 0.04, v)
    else:
        lo, hi = (0.0, math.pi) if v < math.pi else (math.pi, 2 * math.pi)
        out[k] = lo + (hi - lo) * (0.8 if (v - lo) / (hi - lo) < 0.5 else 0.2)
    return out


def test_criterion_3_oracle_discrimination(capsys):
    miss = 0
    for i in range(200):
        sector = SECTORS[i % len(SECTORS)]
        rng = random.Random(3000 + i)
        params = sample_params(sector, rng)
        base = reconstruct(sector, params)
        q = apply_conjugation(base, random_sl2(rng))
        rep = search_conjugator(base, make_pair(q.U1, q.U2, CFG), seed=i)
        if not (rep.converged and rep.residual <= CONVERGENCE_THRESHOLD):
            miss += 1
    for i in range(200):
        sector = SECTORS[i % len(SECTORS)]
        rng = random.Random(4000 + i)
        params = sample_params(sector, rng)
        other = _distinct_params(sector, params, rng)
        p = reconstruct(sector, params)
        q0 = apply_conjugation(reconstruct(sector, other), random_sl2(rng))
        q = make_pair(q0.U1, q0.U2, CFG)
        rep = search_conjugator(p, q, seed=i)
        if rep.converged or rep.residual < DISTINCT_FLOOR:
            miss += 1
    report(capsys, 3, "oracle conjugator discrimination", miss == 0,
           f"{miss} misclassifications over 400 searches")


def _gl_conjugate(p, G, G_inv):
    U1 = G_inv @ p.U1 @ G
    U2 = G_inv @ p.U2 @ G
    return U1, U2


def test_criterion_4_gl_vs_sl(capsys):
    FLIP = SL2Matrix(-1.0, 0.0, 0.0, 1.0)     # det -1, self-inverse
    SWAP = SL2Matrix(0.0, 1.0, 1.0, 0.0)      # det -1, self-inverse
    cases = [
        ("BC", {"eps1": -1, "eps2": 1, "eps4": 1},
         {"eps1": -1, "eps2": 1, "eps4": -1}, FLIP),
        ("CC", {"eps1": 1, "eps2": -1, "alpha": math.pi / 4},
         {"eps1": 1, "eps2": -1, "alpha": math.pi / 4 + math.pi}, FLIP),
        ("BD", {"eps1": 1, "phi": 2.0},
         {"eps1": 1, "phi": 2 * math.pi - 2.0}, SWAP),
        ("DB", {"theta": 0.8, "eps2": -1},
         {"theta": 2 * math.pi - 0.8, "eps2": -1}, SWAP),
        ("DD", {"theta": 1.0, "phi": 4.0},
         {"theta": 2 * math.pi - 1.0, "phi": 2 * math.pi - 4.0}, SWAP),
    ]
    bad = []
    for sector, params, twin_params, G in cases:
        p = reconstruct(sector, params)
        twin = reconstruct(sector, twin_params)
        V1, V2 = _gl_conjugate(p, G, G)  # both witnesses are involutions
        if V1.max_abs_diff(twin.U1) > 1e-12 or \
                V2.max_abs_diff(twin.U2) > 1e-12:
            bad.append(sector + ":identity")
        if equivalent(make_pair(p.U1, p.U2, CFG),
                      make_pair(twin.U1, twin.U2, CFG), CFG):
            bad.append(sector + ":sl-equivalent")
    report(capsys, 4, "GL-vs-SL discrimination", not bad, ",".join(bad))


def test_criterion_5_trace_criterion(capsys):
    rng = random.Random(5)
    disagreements = 0
    band = {"A": "hyperbolic", "B": "parabolic",
            "C": "parabolic", "D": "elliptic"}
    checked = 0
    while checked < 100_000:
        U = sl2_from_coords(rng.uniform(0, 2 * math.pi),
                            rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(abs(U.trace()) - 2.0) < 1e-6:
            continue
        checked += 1
        if band[classify(U, CFG).tag] != trace_class(U, CFG):
            disagreements += 1
    report(capsys, 5, "trace-criterion consistency", disagreements == 0,
           f"{disagreements} disagreements / 100000")


def test_criterion_6_cc_construction(capsys):
    failures = 0
    for i in range(1000):
        rng = random.Random(6000 + i)
        params = sample_params("CC", rng)
        p = apply_conjugation(reconstruct("CC", params), random_sl2(rng))
        c = canonicalize(make_pair(p.U1, p.U2, CFG), CFG)
        alpha = c.params["alpha"]
        if abs(math.tan(alpha) - c.trace.c) > 1e-8:
            failures += 1
            continue
        if (1 if math.cos(alpha) > 0 else -1) != c.trace.det_sprime_sign:
            failures += 1
    report(capsys, 6, "CC coupling identity", failures == 0,
           f"{failures} failures / 1000")


def _csv_rows(path):
    lines = path.read_text().splitlines()[1:]
    return [line.split(",") for line in lines]


def test_criterion_7_figure_structure(capsys, tmp_path):
    problems = []
    assert main(["plot", "bc", "--out", str(tmp_path / "bc")]) == 0
    rows = _csv_rows(tmp_path / "bc.csv")
    circles = {r[3] for r in rows if r[1] == "arc"}
    arcs = {r[2] for r in rows if r[1] == "arc"}
    points = {r[2] for r in rows if r[1] == "point"}
    per_circle = {c: {r[2] for r in rows if r[1] == "point" and r[3] == c}
                  for c in circles}
    if len(circles) != 4:
        problems.append(f"bc circles {len(circles)}")
    if len(arcs) != 16:
        problems.append(f"bc arcs {len(arcs)}")
    if len(points) != 16 or any(len(v) != 4 for v in per_circle.values()):
        problems.append(f"bc points {len(points)}")

    assert main(["plot", "bd", "--out", str(tmp_path / "bd")]) == 0
    rows = _csv_rows(tmp_path / "bd.csv")
    vertices = {r[2] for r in rows if r[1] == "vertex"}
    barcs = {r[2] for r in rows if r[1] == "arc"}
    patches = {r[2] for r in rows if r[1] == "patch"}
    if len(vertices) != 4:
        problems.append(f"bd vertices {len(vertices)}")
    if len(barcs) != 8:
        problems.append(f"bd arcs {len(barcs)}")
    if len(patches) != 4:
        problems.append(f"bd patches {len(patches)}")

    assert main(["plot", "ab", "--out", str(tmp_path / "ab")]) == 0
    rows = _csv_rows(tmp_path / "ab.csv")
    sheets = {r[2] for r in rows if r[1] == "sheet"}
    corners = {r[2] for r in rows if r[1] == "vertex"}
    if len(sheets) != 2:
        problems.append(f"ab sheets {len(sheets)}")
    if len(corners) != 4:
        problems.append(f"ab corners {len(corners)}")
    report(capsys, 7, "figure structure", not problems, ";".join(problems))


def _boundary_fixture():
    """50 rational matrices with trace exactly +-2: 25 non-scalar parabolic
    (tag C) built as S^{-1} J S with rational S of unit determinant, and 25
    scalar (tag B).  Each entry documents the expected exact-mode tag and
    the expected float-mode outcome of a 5e-9 off-diagonal perturbation:
    scalar fixtures land in the unresolved band (ambiguous); for non-scalar
    fixtures that perturbation is not determinant-safe (it shifts det by
    5e-9 * |c| past the tolerance), so only the 1e-12 variant applies and
    band_expect is None."""
    fixtures = []
    for i in range(25):
        eps = 1 if i % 2 == 0 else -1
        k = Fraction(i + 1, 3)
        p = Fraction(i, 2)
        q = Fraction((-1) ** i, 3)
        # S = [[1, p], [q, 1 + p q]] has determinant exactly 1
        s = (Fraction(1), p, q, 1 + p * q)
        si = (s[3], -s[1], -s[2], s[0])
        j = (Fraction(eps), k, Fraction(0), Fraction(eps))
        t = (si[0] * j[0] + si[1] * j[2], si[0] * j[1] + si[1] * j[3],
             si[2] * j[0] + si[3] * j[2], si[2] * j[1] + si[3] * j[3])
        m = (t[0] * s[0] + t[1] * s[2], t[0] * s[1] + t[1] * s[3],
             t[2] * s[0] + t[3] * s[2], t[2] * s[1] + t[3] * s[3])
        fixtures.append({"m": m, "tag": "C", "eps": eps,
                         "band_expect": None})
    for i in range(25):
        eps = 1 if i % 2 == 0 else -1
        m = (Fraction(eps), Fraction(0), Fraction(0), Fraction(eps))
        fixtures.append({"m": m, "tag": "B", "eps": eps,
                         "band_expect": "ambiguous"})
    return fixtures


def test_criterion_8_exact_boundary(capsys):
    errors = []
    for idx, fx in enumerate(_boundary_fixture()):
        m = fx["m"]
        assert m[0] + m[3] in (2, -2)
        st = exact_classify(*m)
        if (st.tag, st.eps) != (fx["tag"], fx["eps"]):
            errors.append(f"exact#{idx}")
            continue
        # tiny perturbation: float mode must agree with the exact verdict
        fm = tuple(float(x) for x in m)
        U = make_sl2(fm[0], fm[1] + 1e-12, fm[2], fm[3], CFG)
        try:
            if classify(U, CFG).tag != fx["tag"]:
                errors.append(f"small#{idx}")
        except ClassificationAmbiguous:
            errors.append(f"small#{idx}")
        # band perturbation: documented expectation per fixture
        if fx["band_expect"] is not None:
            U = make_sl2(fm[0], fm[1] + 5e-9, fm[2], fm[3], CFG)
            try:
                got = classify(U, CFG).tag
                outcome = "consistent" if got == fx["tag"] else "other"
            except ClassificationAmbiguous:
                outcome = "ambiguous"
            if outcome != fx["band_expect"]:
                errors.append(f"band#{idx}:{outcome}")
    report(capsys, 8, "exact-mode boundary correctness", not errors,
           ",".join(errors[:5]))

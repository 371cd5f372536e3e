"""Golden output of exact (rational) records.

A small rational document is built here from a seeded random.Random: two
conjugated pairs of every sector, the 1e-12 CC pair, a CB pair whose
nilpotent part is 1e-400, unconjugated Pythagorean rotations, a hyperbolic
pair with an exact zero below the diagonal, and the exact error records
NOT_COMMUTING and DETERMINANT.  A rational comparison document holds, per
sector, one pair against another conjugate of it and two pairs of the
sector against each other, and comparisons with the 1e-12 CC pair and an
exact error.  The `classify`, `canon` and `equiv` output must stay byte for
byte what is committed in tests/golden/, so a change to how exact records
are decided cannot change an answer, on any Python version.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sl2torus import SL2Matrix, conjugate
from sl2torus.canonical import SECTORS
from sl2torus.cli import EXIT_DOMAIN, main

GOLDEN = Path(__file__).parent / "golden"


def _exact(a, b, c, d):
    return SL2Matrix(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def _entry(x):
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


def _rows(U):
    return [[_entry(U.a), _entry(U.b)], [_entry(U.c), _entry(U.d)]]


def _canonical(sector, rng):
    """An exact pair of the sector's canonical shape."""
    def sign():
        return rng.choice((1, -1))

    def unit():  # in (-1, 1), not 0
        return Fraction(sign() * rng.randint(1, 6), 7)

    def coupling():
        return Fraction(sign() * rng.randint(1, 5), rng.randint(1, 5))

    def diag(x):
        return _exact(x, 0, 0, 1 / x)

    def scalar():
        s = sign()
        return _exact(s, 0, 0, s)

    def jordan():
        s = sign()
        return _exact(s, coupling(), 0, s)

    def rotation():  # from the Pythagorean triple of m > n > 0
        m = rng.randint(2, 6)
        n = rng.randint(1, m - 1)
        h = m * m + n * n
        co = Fraction(sign() * (m * m - n * n), h)
        si = Fraction(sign() * 2 * m * n, h)
        return _exact(co, -si, si, co)

    make = {
        "AA1": lambda: (diag(unit()), diag(unit())),
        "AA2": lambda: (diag(unit()), diag(1 / unit())),
        "AB": lambda: (diag(unit()), scalar()),
        "BA": lambda: (scalar(), diag(unit())),
        "BB": lambda: (scalar(), scalar()),
        "BC": lambda: (scalar(), jordan()),
        "CB": lambda: (jordan(), scalar()),
        "BD": lambda: (scalar(), rotation()),
        "DB": lambda: (rotation(), scalar()),
        "CC": lambda: (jordan(), jordan()),
        "DD": lambda: (rotation(), rotation()),
    }[sector]
    return make()


def _conjugator(rng):
    """An upper shear, a lower shear and a diagonal: determinant 1."""
    p = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    r = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    return _exact(1, p, 0, 1) @ _exact(1, 0, q, 1) @ _exact(r, 0, 0, 1 / r)


def exact_document(seed=24):
    rng = random.Random(seed)
    pairs = []
    for sector in SECTORS:
        for _ in range(2):
            U1, U2 = _canonical(sector, rng)
            S = _conjugator(rng)
            pairs.append((conjugate(U1, S), conjugate(U2, S)))
    tiny, tinier = Fraction(1, 10**12), Fraction(1, 10**400)
    upper = _exact(2, Fraction(1, 8), 0, Fraction(1, 2))
    pairs += [
        (_exact(1, tiny, 0, 1), _exact(1, 2 * tiny, 0, 1)),        # CC
        (_exact(1, tinier, 0, 1), _exact(-1, 0, 0, -1)),           # CB
        (_exact(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5),
                Fraction(3, 5)),
         _exact(Fraction(-5, 13), Fraction(12, 13), Fraction(-12, 13),
                Fraction(-5, 13))),                                # DD
        (upper, upper @ upper),                                    # AA1
        (_exact(1, 1, 0, 1), _exact(1, 0, 1, 1)),      # NOT_COMMUTING
        (_exact(2, 0, 0, 1), _exact(1, 0, 0, 1)),      # DETERMINANT
    ]
    return {"pairs": [
        {"id": f"x{i}", "mode": "rational", "U1": _rows(U1), "U2": _rows(U2)}
        for i, (U1, U2) in enumerate(pairs)
    ]}


def exact_comparisons(seed=25):
    rng = random.Random(seed)
    comps = []
    for sector in SECTORS:
        U1, U2 = _canonical(sector, rng)
        V1, V2 = _canonical(sector, rng)
        S, T = _conjugator(rng), _conjugator(rng)
        comps += [
            ((conjugate(U1, S), conjugate(U2, S)),
             (conjugate(U1, T), conjugate(U2, T))),
            ((conjugate(U1, S), conjugate(U2, S)),
             (conjugate(V1, T), conjugate(V2, T))),
        ]
    tiny = Fraction(1, 10**12)
    cc = (_exact(1, tiny, 0, 1), _exact(1, 2 * tiny, 0, 1))
    S = _conjugator(rng)
    comps += [
        (cc, (conjugate(cc[0], S), conjugate(cc[1], S))),  # EQUIVALENT
        (cc, (cc[1], cc[0])),                              # DISTINCT
        (cc, (_exact(1, 1, 0, 1), _exact(1, 0, 1, 1))),    # NOT_COMMUTING
    ]
    return {"comparisons": [
        {"id": f"q{i}", "mode": "rational",
         "left": {"U1": _rows(L1), "U2": _rows(L2)},
         "right": {"U1": _rows(R1), "U2": _rows(R2)}}
        for i, ((L1, L2), (R1, R2)) in enumerate(comps)
    ]}


def test_exact_comparisons_match_golden_output(tmp_path):
    doc = tmp_path / "exact.json"
    doc.write_text(json.dumps(exact_comparisons()))
    out = tmp_path / "equiv.jsonl"
    assert main(["equiv", str(doc), "--out", str(out)]) == EXIT_DOMAIN
    assert out.read_bytes() == (GOLDEN / "exact_equiv.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["classify", "canon"])
def test_exact_records_match_golden_output(tmp_path, command):
    doc = tmp_path / "exact.json"
    doc.write_text(json.dumps(exact_document()))
    out = tmp_path / f"{command}.jsonl"
    assert main([command, str(doc), "--out", str(out)]) == EXIT_DOMAIN
    assert out.read_bytes() == (GOLDEN / f"exact_{command}.jsonl").read_bytes()

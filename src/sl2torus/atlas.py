"""The moduli space as a parametrized object: sector parameter domains
(from the table in `canonical`), the separated-topology metric, the cell-complex incidence structure of the
3D depiction, embedding coordinates, and sector sampling.

Two topologies coexist and are never mixed: `sector_distance` implements
the separated (Hausdorff) topology in which the eleven sectors and their
components are mutually disconnected, while `incidence`/`embed` implement
the depiction topology of the R^3 picture.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import constants as K
from .canonical import (
    AXIS_COMPONENTS,
    SECTOR_CONTINUOUS,
    SECTOR_DISCRETE,
    SECTORS,
    SIGNS,
    CanonicalPair,
    apply_conjugation,
    check_params,
    component_index,
    reconstruct,
)
from .errors import ParamOutOfRange
from .pairs import CommutingPair
from .sl2 import SL2Matrix, sl2_from_coords

PI = math.pi
TWO_PI = 2.0 * math.pi

SEPARATED = math.inf


@dataclass(frozen=True)
class SectorDomain:
    sector: str
    continuous_axes: tuple  # of (name, components tuple)
    discrete_axes: tuple    # of (name, value tuple)
    dimension: int


def parameter_domain(sector: str) -> SectorDomain:
    if sector not in SECTORS:
        raise ParamOutOfRange(f"unknown sector {sector!r}")
    cont = tuple(
        (name, AXIS_COMPONENTS[name]) for name in SECTOR_CONTINUOUS[sector]
    )
    disc = tuple((name, SIGNS) for name in SECTOR_DISCRETE[sector])
    return SectorDomain(sector, cont, disc, dimension=len(cont))


def _is_angle(name: str) -> bool:
    # the components of an angle are arcs of the circle, ending at 2pi
    return AXIS_COMPONENTS[name][-1][1] == TWO_PI


def component_key(c: CanonicalPair):
    """Separation key: sector, discrete parameters, and the interval
    component of every continuous parameter."""
    comps = tuple(
        component_index(name, c.params[name])
        for name in SECTOR_CONTINUOUS[c.sector]
    )
    return (c.sector, c.discrete(), comps)


def _axis_distance(name: str, x: float, y: float) -> float:
    if not _is_angle(name):
        return abs(x - y)
    # chordal distance; no wraparound is possible within one open component
    return 2.0 * abs(math.sin((x - y) / 2.0))


def sector_distance(c1: CanonicalPair, c2: CanonicalPair) -> float:
    """Metric of the separated topology: SEPARATED (infinite) across
    components, Euclidean over per-axis distances within one component."""
    if component_key(c1) != component_key(c2):
        return SEPARATED
    acc = 0.0
    for name in SECTOR_CONTINUOUS[c1.sector]:
        d = _axis_distance(name, c1.params[name], c2.params[name])
        acc += d * d
    return math.sqrt(acc)


# ---------------------------------------------------------------------------
# depiction topology: components, incidence, embedding
# ---------------------------------------------------------------------------

_SIGN_CHAR = {1: "+", -1: "-"}


def _lbl(sector, *bits):
    # "/" keeps labels safe as unquoted CSV fields
    return sector + ":" + "/".join(str(b) for b in bits)


def bb_label(e1, e2):
    return _lbl("BB", _SIGN_CHAR[e1], _SIGN_CHAR[e2])


def component_labels():
    """All depiction components, keyed by sector."""
    out = {s: [] for s in SECTORS}
    for e1 in SIGNS:
        for e2 in SIGNS:
            out["BB"].append(bb_label(e1, e2))
            out["CC"].extend(
                _lbl("CC", _SIGN_CHAR[e1], _SIGN_CHAR[e2], f"arc{k}")
                for k in range(4)
            )
            for e in SIGNS:
                out["BC"].append(
                    _lbl("BC", _SIGN_CHAR[e1], _SIGN_CHAR[e2], _SIGN_CHAR[e])
                )
                out["CB"].append(
                    _lbl("CB", _SIGN_CHAR[e1], _SIGN_CHAR[e2], _SIGN_CHAR[e])
                )
    for s1 in SIGNS:
        for s2 in SIGNS:
            out["AA1"].append(_lbl("AA1", _SIGN_CHAR[s1], _SIGN_CHAR[s2]))
            out["AA2"].append(_lbl("AA2", _SIGN_CHAR[s1], _SIGN_CHAR[s2]))
    for e in SIGNS:
        for comp in range(2):
            out["AB"].append(_lbl("AB", _SIGN_CHAR[e], f"lam{comp}"))
            out["BA"].append(_lbl("BA", _SIGN_CHAR[e], f"mu{comp}"))
            out["BD"].append(_lbl("BD", _SIGN_CHAR[e], f"phi{comp}"))
            out["DB"].append(_lbl("DB", f"theta{comp}", _SIGN_CHAR[e]))
    for c1 in range(2):
        for c2 in range(2):
            out["DD"].append(_lbl("DD", f"theta{c1}", f"phi{c2}"))
    return out


@dataclass(frozen=True)
class CellIncidence:
    """(higher cell, boundary cell, attachment note) triples; an open,
    unattached edge is recorded with boundary "(open)"."""

    entries: tuple

    def boundaries_of(self, higher_label: str):
        return [e for e in self.entries if e[0] == higher_label]


def _angle_endpoint_sign(comp: int, side: str) -> int:
    # component 0 = (0, pi): endpoints 0 (+1) and pi (-1)
    # component 1 = (pi, 2pi): endpoints pi (-1) and 2pi == 0 (+1)
    if comp == 0:
        return 1 if side == "lo" else -1
    return -1 if side == "lo" else 1


def incidence() -> CellIncidence:
    ent = []
    # A/B subspace: AA sheets -> AB/BA edges -> BB vertices
    for kind in ("AA1", "AA2"):
        for s1 in SIGNS:
            for s2 in SIGNS:
                cell = _lbl(kind, _SIGN_CHAR[s1], _SIGN_CHAR[s2])
                lam_comp = 0 if s1 < 0 else 1
                mu_comp = 0 if s2 < 0 else 1
                ent.append((cell, _lbl("AB", _SIGN_CHAR[s2], f"lam{lam_comp}"),
                            f"mu -> {s2}"))
                ent.append((cell, _lbl("BA", _SIGN_CHAR[s1], f"mu{mu_comp}"),
                            f"lam -> {s1}"))
                ent.append((cell, bb_label(s1, s2), "corner"))
                ent.append((cell, "(open)", "lam -> 0 edge unattached"))
                ent.append((cell, "(open)", "mu -> 0 edge unattached"))
    for e in SIGNS:
        for comp, sgn in ((0, -1), (1, 1)):
            ent.append((_lbl("AB", _SIGN_CHAR[e], f"lam{comp}"),
                        bb_label(sgn, e), f"lam -> {sgn}"))
            ent.append((_lbl("AB", _SIGN_CHAR[e], f"lam{comp}"),
                        "(open)", "lam -> 0 end unattached"))
            ent.append((_lbl("BA", _SIGN_CHAR[e], f"mu{comp}"),
                        bb_label(e, sgn), f"mu -> {sgn}"))
            ent.append((_lbl("BA", _SIGN_CHAR[e], f"mu{comp}"),
                        "(open)", "mu -> 0 end unattached"))
    # B/D subspace: DD patches -> BD/DB arcs -> BB vertices
    for c1 in range(2):
        for c2 in range(2):
            cell = _lbl("DD", f"theta{c1}", f"phi{c2}")
            for side in ("lo", "hi"):
                e1 = _angle_endpoint_sign(c1, side)
                ent.append((cell, _lbl("BD", _SIGN_CHAR[e1], f"phi{c2}"),
                            f"theta boundary ({side})"))
                e2 = _angle_endpoint_sign(c2, side)
                ent.append((cell, _lbl("DB", f"theta{c1}", _SIGN_CHAR[e2]),
                            f"phi boundary ({side})"))
    for e in SIGNS:
        for comp in range(2):
            for side in ("lo", "hi"):
                other = _angle_endpoint_sign(comp, side)
                ent.append((_lbl("BD", _SIGN_CHAR[e], f"phi{comp}"),
                            bb_label(e, other), f"phi boundary ({side})"))
                ent.append((_lbl("DB", f"theta{comp}", _SIGN_CHAR[e]),
                            bb_label(other, e), f"theta boundary ({side})"))
    # B/C subspace: CC arcs -> BC/CB points, four circles of four arcs each
    arc_ends = {
        0: (("CB", 1), ("BC", 1)),
        1: (("BC", 1), ("CB", -1)),
        2: (("CB", -1), ("BC", -1)),
        3: (("BC", -1), ("CB", 1)),
    }
    for e1 in SIGNS:
        for e2 in SIGNS:
            for k in range(4):
                arc = _lbl("CC", _SIGN_CHAR[e1], _SIGN_CHAR[e2], f"arc{k}")
                for sec, s in arc_ends[k]:
                    ent.append((arc, _lbl(sec, _SIGN_CHAR[e1],
                                          _SIGN_CHAR[e2], _SIGN_CHAR[s]),
                                "arc endpoint"))
    return CellIncidence(tuple(ent))


def depiction_component(c: CanonicalPair) -> str:
    """Depiction component label for a canonical pair."""
    p = c.params
    s = c.sector
    if s == "BB":
        return bb_label(p["eps1"], p["eps2"])
    if s in ("AA1", "AA2"):
        return _lbl(s, _SIGN_CHAR[1 if p["lam"] > 0 else -1],
                    _SIGN_CHAR[1 if p["mu"] > 0 else -1])
    if s == "AB":
        return _lbl("AB", _SIGN_CHAR[p["eps2"]],
                    f"lam{component_index('lam', p['lam'])}")
    if s == "BA":
        return _lbl("BA", _SIGN_CHAR[p["eps1"]],
                    f"mu{component_index('mu', p['mu'])}")
    if s == "BD":
        return _lbl("BD", _SIGN_CHAR[p["eps1"]],
                    f"phi{component_index('phi', p['phi'])}")
    if s == "DB":
        return _lbl("DB", f"theta{component_index('theta', p['theta'])}",
                    _SIGN_CHAR[p["eps2"]])
    if s == "DD":
        return _lbl("DD", f"theta{component_index('theta', p['theta'])}",
                    f"phi{component_index('phi', p['phi'])}")
    if s == "CC":
        return _lbl("CC", _SIGN_CHAR[p["eps1"]], _SIGN_CHAR[p["eps2"]],
                    f"arc{component_index('alpha', p['alpha'])}")
    if s == "BC":
        return _lbl("BC", _SIGN_CHAR[p["eps1"]], _SIGN_CHAR[p["eps2"]],
                    _SIGN_CHAR[p["eps4"]])
    if s == "CB":
        return _lbl("CB", _SIGN_CHAR[p["eps1"]], _SIGN_CHAR[p["eps2"]],
                    _SIGN_CHAR[p["eps3"]])
    raise ParamOutOfRange(s)


@dataclass(frozen=True)
class EmbeddedPoint:
    x: float
    y: float
    z: float
    sector: str
    params: dict


def _torus_point(theta: float, phi: float):
    rho = K.TORUS_MAJOR + K.TORUS_MINOR * math.cos(theta)
    return (
        rho * math.cos(phi),
        rho * math.sin(phi),
        K.TORUS_MINOR * math.sin(theta)
        + K.Z_TWIST * math.cos(theta) * math.cos(phi),
    )


def _anchor(e1: int, e2: int):
    return _torus_point(0.0 if e1 > 0 else PI, 0.0 if e2 > 0 else PI)


def _sheet_point(lam: float, mu: float, side: float):
    # bilinear map whose corners coincide with the four BB anchors
    x = mu * (K.TORUS_MAJOR + K.TORUS_MINOR * lam)
    y = side * K.SHEET_BUMP * (1.0 - abs(lam)) * (1.0 - abs(mu))
    z = K.Z_TWIST * lam * mu
    return (x, y, z)


def _circle_point(e1: int, e2: int, alpha: float):
    ax, ay, az = _anchor(e1, e2)
    return (
        ax + K.CIRCLE_RADIUS * math.cos(alpha),
        ay + K.CIRCLE_OFFSET,
        az + K.CIRCLE_RADIUS * math.sin(alpha),
    )


def embed(c: CanonicalPair) -> EmbeddedPoint:
    check_params(c.sector, c.params)
    p = c.params
    s = c.sector
    if s == "BB":
        xyz = _anchor(p["eps1"], p["eps2"])
    elif s == "DD":
        xyz = _torus_point(p["theta"], p["phi"])
    elif s == "BD":
        xyz = _torus_point(0.0 if p["eps1"] > 0 else PI, p["phi"])
    elif s == "DB":
        xyz = _torus_point(p["theta"], 0.0 if p["eps2"] > 0 else PI)
    elif s == "AA1":
        xyz = _sheet_point(p["lam"], p["mu"], 1.0)
    elif s == "AA2":
        xyz = _sheet_point(p["lam"], p["mu"], -1.0)
    elif s == "AB":
        xyz = _sheet_point(p["lam"], float(p["eps2"]), 0.0)
    elif s == "BA":
        xyz = _sheet_point(float(p["eps1"]), p["mu"], 0.0)
    elif s == "CC":
        xyz = _circle_point(p["eps1"], p["eps2"], p["alpha"])
    elif s == "BC":
        xyz = _circle_point(p["eps1"], p["eps2"],
                            PI / 2 if p["eps4"] > 0 else 3 * PI / 2)
    elif s == "CB":
        xyz = _circle_point(p["eps1"], p["eps2"],
                            0.0 if p["eps3"] > 0 else PI)
    else:
        raise ParamOutOfRange(s)
    return EmbeddedPoint(*xyz, sector=s, params=dict(p))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def random_sl2(rng: random.Random) -> SL2Matrix:
    """Random conjugator: rotation x diagonal scaling x unit shear."""
    return sl2_from_coords(
        rng.uniform(0.0, TWO_PI),
        rng.uniform(*K.CONJ_LOG_SCALE_RANGE),
        rng.uniform(*K.CONJ_SHEAR_RANGE),
    )


def _sample_axis(name: str, rng: random.Random) -> float:
    if not _is_angle(name):
        lo, hi = K.LAM_SAMPLE_RANGE
        return rng.choice(SIGNS) * rng.uniform(lo, hi)
    lo, hi = rng.choice(AXIS_COMPONENTS[name])
    return rng.uniform(lo + K.SAMPLE_MARGIN, hi - K.SAMPLE_MARGIN)


def sample_params(sector: str, rng: random.Random) -> dict:
    params = {k: rng.choice(SIGNS) for k in SECTOR_DISCRETE[sector]}
    for k in SECTOR_CONTINUOUS[sector]:
        params[k] = _sample_axis(k, rng)
    return params


def sample_sector(sector: str, seed, conjugate: bool = True) -> CommutingPair:
    rng = random.Random(seed)
    p = reconstruct(sector, sample_params(sector, rng))
    if conjugate:
        p = apply_conjugation(p, random_sl2(rng))
    return p

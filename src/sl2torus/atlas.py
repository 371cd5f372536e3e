"""The moduli space as a parametrized object: sector parameter domains,
the separated-topology metric, the components and cell-complex incidence
of the 3D depiction, embedding coordinates, and sector sampling.  Domains,
component labels and incidence are all derived from `canonical`'s
parameter table and canonical matrices.

Two topologies coexist and are never mixed: `sector_distance` implements
the separated (Hausdorff) topology in which the eleven sectors and their
components are mutually disconnected, while `incidence`/`place` implement
the depiction topology of the R^3 picture.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

from . import constants as K
from .canonical import (
    AXIS_COMPONENTS,
    CANONICAL,
    SECTOR_CONTINUOUS,
    SECTOR_DISCRETE,
    SECTORS,
    SIGNS,
    CanonicalPair,
    apply_conjugation,
    canonicalize,
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

# label order of each sector's axes: the discrete ones, then the continuous
# ones, except DB, which keeps the order of its pair (theta, eps2)
_LABEL_AXES = {s: SECTOR_DISCRETE[s] + SECTOR_CONTINUOUS[s]
               for s in SECTORS}
_LABEL_AXES["DB"] = ("theta", "eps2")


def _token(sector: str, name: str, value) -> str:
    # a discrete parameter, and lam and mu on an AA sheet, by their sign
    if name in SECTOR_DISCRETE[sector] or sector in ("AA1", "AA2"):
        return "+" if value > 0 else "-"
    k = component_index(name, value)
    return ("arc" if name == "alpha" else name) + str(k)


def component_label(sector: str, params: dict) -> str:
    """Depiction component label of a point; "/" keeps it CSV-safe."""
    return sector + ":" + "/".join(
        _token(sector, name, params[name]) for name in _LABEL_AXES[sector]
    )


def depiction_component(c: CanonicalPair) -> str:
    """Depiction component label for a canonical pair."""
    return component_label(c.sector, c.params)


def cells(sector: str):
    """One parameter point inside every depiction cell of sector: each
    discrete parameter at one sign, each continuous one at the midpoint of
    one of its components."""
    axes = [[(name, e) for e in SIGNS] for name in SECTOR_DISCRETE[sector]]
    axes += [[(name, (lo + hi) / 2) for lo, hi in AXIS_COMPONENTS[name]]
             for name in SECTOR_CONTINUOUS[sector]]
    return [dict(point) for point in product(*axes)]


def component_labels():
    """All depiction components, keyed by sector."""
    return {s: [component_label(s, p) for p in cells(s)] for s in SECTORS}


@dataclass(frozen=True)
class CellIncidence:
    """(higher cell, boundary cell, attachment note) triples; an open,
    unattached edge is recorded with boundary "(open)"."""

    entries: tuple

    def boundaries_of(self, higher_label: str):
        return [e for e in self.entries if e[0] == higher_label]


def _limit_component(sector: str, params: dict) -> str:
    try:
        pair = CommutingPair(*CANONICAL[sector](params))
    except ZeroDivisionError:  # a diagonal entry runs to infinity
        return "(open)"
    return depiction_component(canonicalize(pair))


def incidence() -> CellIncidence:
    """Codimension-1 boundaries of every depiction cell: one continuous
    parameter runs to either end of its component while the others stay
    inside theirs, and the boundary is the component of the canonicalized
    limit pair, or "(open)" where the canonical matrices diverge."""
    ent = []
    for sector in SECTORS:
        for point in cells(sector):
            cell = component_label(sector, point)
            for name in SECTOR_CONTINUOUS[sector]:
                k = component_index(name, point[name])
                for end in AXIS_COMPONENTS[name][k]:
                    boundary = _limit_component(sector, {**point, name: end})
                    ent.append((cell, boundary, f"{name} -> {end:g}"))
    return CellIncidence(tuple(ent))


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


def _sheet_point(lam: float, mu: float, side: float):
    # bilinear map whose corners coincide with the four BB torus corners
    x = mu * (K.TORUS_MAJOR + K.TORUS_MINOR * lam)
    y = side * K.SHEET_BUMP * (1.0 - abs(lam)) * (1.0 - abs(mu))
    z = K.Z_TWIST * lam * mu
    return (x, y, z)


def _circle_point(centre, alpha: float):
    cx, cy, cz = centre
    return (
        cx + K.CIRCLE_RADIUS * math.cos(alpha),
        cy + K.CIRCLE_OFFSET,
        cz + K.CIRCLE_RADIUS * math.sin(alpha),
    )


# per family, the axis end that each sign stands for at +1 and at -1: a
# scalar's sign ends lam or mu, or theta or phi (on a circle: its centre),
# and the shear sign of a scalar's parabolic partner ends alpha
_ENDS = {
    "A": {"eps1": ("lam", 1.0, -1.0), "eps2": ("mu", 1.0, -1.0)},
    "D": {"eps1": ("theta", 0.0, PI), "eps2": ("phi", 0.0, PI)},
    "C": {"eps1": ("theta", 0.0, PI), "eps2": ("phi", 0.0, PI),
          "eps3": ("alpha", 0.0, PI), "eps4": ("alpha", PI / 2, 3 * PI / 2)},
}
_SHEET_SIDE = {"AA1": 1.0, "AA2": -1.0}  # the edges lie between the sheets


def place(sector: str, params: dict):
    """(x, y, z) on the map of the family picked by the tag of the sector's
    non-scalar matrix: A on the sheet, C on a circle, D on the torus, and
    BB, with no such matrix, at a corner of the torus."""
    check_params(sector, params)
    family = next((t for t in sector[:2] if t != "B"), "D")
    at = dict(params)
    for eps in SECTOR_DISCRETE[sector]:
        axis, plus, minus = _ENDS[family][eps]
        at[axis] = plus if params[eps] > 0 else minus
    if family == "A":
        return _sheet_point(at["lam"], at["mu"], _SHEET_SIDE.get(sector, 0.0))
    xyz = _torus_point(at["theta"], at["phi"])
    return _circle_point(xyz, at["alpha"]) if family == "C" else xyz


def embed(c: CanonicalPair) -> EmbeddedPoint:
    """The point of c on the depiction, placed by `place`."""
    return EmbeddedPoint(*place(c.sector, c.params), c.sector, dict(c.params))


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

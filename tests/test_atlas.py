import ast
import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2torus import (
    SEPARATED,
    ToleranceConfig,
    canonicalize,
    component_labels,
    depiction_component,
    embed,
    incidence,
    make_pair,
    parameter_domain,
    reconstruct,
    sector_distance,
)
from sl2torus.atlas import (
    cells,
    component_key,
    component_label,
    place,
    sample_params,
    sample_sector,
)
from sl2torus.canonical import (
    AXIS_COMPONENTS,
    CANONICAL,
    SECTOR_CONTINUOUS,
    SECTORS,
    component_index,
)
from sl2torus.figures import figure_rows, rows_to_csv, rows_to_svg
from sl2torus.pairs import CommutingPair

CFG = ToleranceConfig()


def canon_of(sector, params):
    return canonicalize(reconstruct(sector, params), CFG)


# --- parameter domains ----------------------------------------------------


@pytest.mark.parametrize("sector,dim", [
    ("AA1", 2), ("AA2", 2), ("DD", 2),
    ("AB", 1), ("BA", 1), ("BD", 1), ("DB", 1), ("CC", 1),
    ("BB", 0), ("BC", 0), ("CB", 0),
])
def test_domain_dimensions(sector, dim):
    assert parameter_domain(sector).dimension == dim


def test_domain_axes():
    d = parameter_domain("CC")
    assert [n for n, _ in d.continuous_axes] == ["alpha"]
    assert [n for n, _ in d.discrete_axes] == ["eps1", "eps2"]
    # alpha has four open components
    assert len(d.continuous_axes[0][1]) == 4


def test_domain_unknown_sector():
    from sl2torus import ParamOutOfRange

    with pytest.raises(ParamOutOfRange):
        parameter_domain("XX")


# --- separated metric -----------------------------------------------------


def test_distance_within_component():
    a = canon_of("DD", {"theta": 1.0, "phi": 2.0})
    b = canon_of("DD", {"theta": 1.1, "phi": 2.0})
    assert sector_distance(a, b) == pytest.approx(
        2 * abs(math.sin(0.05)), abs=1e-3)


def test_distance_same_point_zero():
    a = canon_of("CC", {"eps1": 1, "eps2": -1, "alpha": 0.7})
    assert sector_distance(a, a) == 0.0


def test_distance_across_sectors_separated():
    a = canon_of("AA1", {"lam": 0.5, "mu": 0.5})
    b = canon_of("AA2", {"lam": 0.5, "mu": 0.5})
    assert sector_distance(a, b) == SEPARATED


def test_distance_across_discrete_separated():
    a = canon_of("BC", {"eps1": 1, "eps2": 1, "eps4": 1})
    b = canon_of("BC", {"eps1": 1, "eps2": 1, "eps4": -1})
    assert sector_distance(a, b) == SEPARATED


def test_distance_across_interval_components_separated():
    a = canon_of("BD", {"eps1": 1, "phi": 1.0})
    b = canon_of("BD", {"eps1": 1, "phi": 5.0})
    assert sector_distance(a, b) == SEPARATED


def test_distance_sign_components_of_lam_separated():
    a = canon_of("AA1", {"lam": 0.5, "mu": 0.5})
    b = canon_of("AA1", {"lam": -0.5, "mu": 0.5})
    assert sector_distance(a, b) == SEPARATED


seed_st = st.integers(0, 10**6)


@given(st.sampled_from(SECTORS), seed_st, seed_st, seed_st)
@settings(max_examples=60, deadline=None)
def test_metric_axioms(sector, s1, s2, s3):
    pts = []
    for s in (s1, s2, s3):
        rng = random.Random(s)
        pts.append(canon_of(sector, sample_params(sector, rng)))
    a, b, c = pts
    dab, dba = sector_distance(a, b), sector_distance(b, a)
    assert dab == dba
    assert sector_distance(a, a) == 0.0
    dac, dcb = sector_distance(a, c), sector_distance(c, b)
    if dac < SEPARATED and dcb < SEPARATED:
        assert dab <= dac + dcb + 1e-12


def test_component_key_tracks_intervals():
    a = canon_of("DD", {"theta": 1.0, "phi": 4.0})
    assert component_key(a) == ("DD", (), (0, 1))


# --- depiction components and incidence -----------------------------------


def test_component_counts():
    labels = component_labels()
    expected = {"BB": 4, "AB": 4, "BA": 4, "AA1": 4, "AA2": 4,
                "BC": 8, "CB": 8, "CC": 16, "BD": 4, "DB": 4, "DD": 4}
    for sector, n in expected.items():
        assert len(labels[sector]) == n, sector
        assert len(set(labels[sector])) == n


def test_ab_edge_boundaries():
    inc = incidence()
    bnds = {b for _, b, _ in inc.boundaries_of("AB:+/lam0")} | \
           {b for _, b, _ in inc.boundaries_of("AB:+/lam1")}
    assert "BB:+/+" in bnds and "BB:-/+" in bnds
    # each lam half-edge also has one unattached open end
    opens = [e for e in inc.boundaries_of("AB:+/lam0") if e[1] == "(open)"]
    assert len(opens) == 1


def test_cc_arcs_form_four_circles():
    inc = incidence()
    labels = component_labels()
    arc_entries = [e for e in inc.entries if e[0].startswith("CC:")]
    # 16 arcs, two endpoints each
    assert len({e[0] for e in arc_entries}) == 16
    assert Counter(e[0] for e in arc_entries).most_common(1)[0][1] == 2
    # within each sign class the four arcs close a circle through
    # alternating BC/CB points, each point hit exactly twice
    for e1 in ("+", "-"):
        for e2 in ("+", "-"):
            pts = Counter(
                b for a, b, _ in arc_entries
                if a.startswith(f"CC:{e1}/{e2}/")
            )
            assert len(pts) == 4
            assert all(v == 2 for v in pts.values())
            assert {p.split(":")[0] for p in pts} == {"BC", "CB"}


def test_dd_patch_boundaries():
    inc = incidence()
    bnds = [b for _, b, _ in inc.boundaries_of("DD:theta0/phi0")]
    assert "BD:+/phi0" in bnds and "BD:-/phi0" in bnds
    assert "DB:theta0/+" in bnds and "DB:theta0/-" in bnds


def test_bd_arc_ends_at_bb():
    inc = incidence()
    bnds = {b for _, b, _ in inc.boundaries_of("BD:+/phi0")}
    assert bnds == {"BB:+/+", "BB:+/-"}


def test_incidence_is_a_cell_complex():
    labels = component_labels()
    sector_of = {label: s for s, ls in labels.items() for label in ls}
    dim = {s: parameter_domain(s).dimension for s in SECTORS}
    inc = incidence()
    # every boundary is open or a cell of exactly one dimension lower
    for cell, bnd, _ in inc.entries:
        assert bnd == "(open)" or \
            dim[sector_of[bnd]] == dim[sector_of[cell]] - 1
    # a cell of dimension d has two ends on each of its d axes
    counts = Counter(cell for cell, _, _ in inc.entries)
    for label, sector in sector_of.items():
        assert counts[label] == 2 * dim[sector], label
    assert {b for _, b, _ in inc.boundaries_of("AA1:+/+")} == \
        {"AB:+/lam1", "BA:+/mu1", "(open)"}


@pytest.mark.parametrize("delta", [1e-3, 1e-6])
def test_embed_continuous_at_attached_boundaries(delta):
    # the interior point of each cell, by label
    points = {component_label(s, p): (s, p)
              for s in SECTORS for p in cells(s)}
    attached = [e for e in incidence().entries if e[1] != "(open)"]
    assert attached
    for cell, bnd, note in attached:
        sector, inside = points[cell]
        name, end_text = note.split(" -> ")
        comp = AXIS_COMPONENTS[name][component_index(name, inside[name])]
        end = min(comp, key=lambda x: abs(x - float(end_text)))
        limit = canonicalize(CommutingPair(
            *CANONICAL[sector]({**inside, name: end})))
        assert depiction_component(limit) == bnd
        near = {**inside,
                name: end + math.copysign(delta, inside[name] - end)}
        b = embed(limit)
        assert math.dist(place(sector, near), (b.x, b.y, b.z)) \
            <= 10 * delta, (cell, bnd, note)


def test_depiction_component_lookup():
    c = canon_of("CC", {"eps1": 1, "eps2": -1, "alpha": 0.7})
    assert depiction_component(c) == "CC:+/-/arc0"
    c = canon_of("DB", {"theta": 4.0, "eps2": -1})
    assert depiction_component(c) == "DB:theta1/-"


def test_every_sample_maps_to_known_component():
    labels = component_labels()
    for i, sector in enumerate(SECTORS * 5):
        rng = random.Random(5000 + i)
        c = canon_of(sector, sample_params(sector, rng))
        assert depiction_component(c) in labels[sector]


def test_figure_rows_use_depiction_components():
    labels = component_labels()
    rows = [r for r in figure_rows("overall", 3) if r["kind"] != "sheet"]
    assert rows
    for r in rows:
        params = {k: ast.literal_eval(v) for k, v in
                  (kv.split("=") for kv in r["params"].split(";"))}
        label = component_label(r["sector"], params)
        assert r["component"] == label
        assert label in labels[r["sector"]]
        assert (r["x"], r["y"], r["z"]) == place(r["sector"], params)


# SHA-256 of rows_to_csv + rows_to_svg: a change to how rows are built must
# leave the plot's bytes as they are
PLOT_DIGESTS = {
    ("ab", 1):
        "2787ef8678e204eed86b2ec1f81735f4f03593052c61a8f1ca2465721eafa8d6",
    ("bc", 1):
        "953cd2dd43dede41986cb679bcb8f8c53cb75e495f8b8d0b27ec036754b3d1c2",
    ("bd", 1):
        "cf70fc95b9ab3db7f51499a14eddb5b1e279bd24815a0e9c4a92adc19b447591",
    ("overall", 1):
        "96be898dd358fb4fc2a7da39ced33b32a603d8365282b2492f0f65aea2293a25",
    ("ab", 3):
        "151690ef9336f6f1980f8812c507ef1ee2d8304baa0cfb8492496d7db0fd653f",
    ("bc", 3):
        "0a7ea6a47a75de0d0d82fecf57543d962bd0c0f5498af659c73e0cbbf732f40e",
    ("bd", 3):
        "e67d13887935adf5e7483f69ec67a2c242ae39662f3838cb9a7d6bcb5f894883",
    ("overall", 3):
        "fcd621b3a6c6dc2b9fb25b4d45707dc2d9863c4e0afe078df742c60644054ef9",
    ("ab", 12):
        "708dfdfcd6c866ba0f8d46d52ac57600395fdebbfb370ed71ede1d49b4ce3fd0",
    ("bc", 12):
        "8e53e82a2644b1c08927980f0dd63dde55d4c05b7a3014776be08b44052d79ee",
    ("bd", 12):
        "133c4308ca35a37e4c3b74e68dd3d1b74995e3e223829d5a17b4e4765a5d13ef",
    ("overall", 12):
        "52b055a0ff3b4a24bb4f21cfad0e25e89f25aeabe58faed3da5dc44cc825fb3c",
}


@pytest.mark.parametrize("figure,resolution", sorted(PLOT_DIGESTS))
def test_plot_bytes_unchanged(figure, resolution):
    rows = figure_rows(figure, resolution)
    text = rows_to_csv(rows) + rows_to_svg(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PLOT_DIGESTS[figure, resolution]


# --- embedding ------------------------------------------------------------


def test_bb_anchors_distinct():
    pts = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            c = canon_of("BB", {"eps1": e1, "eps2": e2})
            p = embed(c)
            pts.append((round(p.x, 6), round(p.y, 6), round(p.z, 6)))
    assert len(set(pts)) == 4


def test_sheet_corners_meet_anchors():
    # AB edge endpoints approach the BB anchors as lam -> +-1
    bb = embed(canon_of("BB", {"eps1": 1, "eps2": 1}))
    ab = embed(canon_of("AB", {"lam": 0.999, "eps2": 1}))
    assert math.dist((ab.x, ab.y, ab.z), (bb.x, bb.y, bb.z)) < 1e-2


def test_aa_sheets_on_opposite_sides():
    # the two sheets bulge apart; the AB and BA edges lie between them
    params = {"lam": 0.5, "mu": -0.5}
    y1 = embed(canon_of("AA1", params)).y
    y2 = embed(canon_of("AA2", params)).y
    assert y1 > 0 > y2
    assert embed(canon_of("AB", {"lam": 0.5, "eps2": -1})).y == 0.0


def test_bd_arc_lies_on_torus_section():
    c = canon_of("BD", {"eps1": 1, "phi": 1.0})
    p = embed(c)
    # the arc point equals the torus point at theta = 0
    from sl2torus.atlas import _torus_point

    assert (p.x, p.y, p.z) == pytest.approx(_torus_point(0.0, 1.0))


def test_embed_injective_within_components():
    # quantized sampling: no two parameter points of the same component
    # may collide in R^3
    seen = {}
    for i, sector in enumerate(SECTORS * 40):
        rng = random.Random(9000 + i)
        c = canon_of(sector, sample_params(sector, rng))
        p = embed(c)
        key = (depiction_component(c),
               round(p.x, 7), round(p.y, 7), round(p.z, 7))
        pkey = tuple(sorted((k, round(v, 5) if isinstance(v, float) else v)
                            for k, v in c.params.items()))
        if key in seen:
            assert seen[key] == pkey
        seen[key] = pkey


def test_embed_validates_ranges():
    from sl2torus import ParamOutOfRange
    from sl2torus.canonical import CanonicalPair

    bad = canon_of("DD", {"theta": 1.0, "phi": 2.0})
    hacked = CanonicalPair(bad.sector, {"theta": 0.0, "phi": 2.0},
                           bad.witness, bad.trace)
    with pytest.raises(ParamOutOfRange):
        embed(hacked)
    with pytest.raises(ParamOutOfRange):
        place(hacked.sector, hacked.params)


def test_embed_is_place_with_the_pair():
    c = canon_of("CC", {"eps1": 1, "eps2": -1, "alpha": 0.7})
    p = embed(c)
    assert (p.x, p.y, p.z) == place(c.sector, c.params)
    assert (p.sector, p.params) == (c.sector, c.params)
    assert p.params is not c.params


# --- sampling -------------------------------------------------------------


@pytest.mark.parametrize("sector", SECTORS)
def test_sample_round_trip(sector):
    p = sample_sector(sector, seed=31, conjugate=True)
    c = canonicalize(make_pair(p.U1, p.U2, CFG), CFG)
    assert c.sector == sector


def test_sample_deterministic():
    p = sample_sector("CC", seed=7)
    q = sample_sector("CC", seed=7)
    assert p.U1 == q.U1 and p.U2 == q.U2


def test_sample_unconjugated_is_canonical():
    p = sample_sector("AA1", seed=3, conjugate=False)
    assert p.U1.b == 0.0 and p.U1.c == 0.0

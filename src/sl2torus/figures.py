"""Structural renderings of the moduli-space depiction: sample-point rows
for CSV emission and a fixed-camera orthographic SVG."""

from __future__ import annotations

from . import constants as K
from .atlas import component_label, place
from .canonical import AXIS_COMPONENTS, SIGNS
from .constants import FIGURES

SVG_WIDTH, SVG_HEIGHT = 800, 600


def _point(kind, sector, params, circle="", component=None):
    """One sample row; its component is the depiction component of the
    point unless given."""
    x, y, z = place(sector, params)
    return {
        "kind": kind,
        "component": component or component_label(sector, params),
        "circle": circle,
        "sector": sector,
        "params": ";".join(f"{k}={v!r}" for k, v in sorted(params.items())),
        "x": x, "y": y, "z": z,
    }


def _interior(n):
    """n strictly interior samples of (0, 1)."""
    return [(i + 0.5) / n for i in range(n)]


def _angle_samples(comp, n):
    lo, hi = comp
    return [lo + t * (hi - lo) for t in _interior(n)]


def _ab_rows(n):
    rows = []
    # each AA sheet is one component of the figure, not four
    for sector in ("AA1", "AA2"):
        for s1 in SIGNS:
            for s2 in SIGNS:
                for lam in (s1 * t for t in _interior(n)):
                    for mu in (s2 * t for t in _interior(n)):
                        rows.append(_point("sheet", sector,
                                           {"lam": lam, "mu": mu},
                                           component=f"sheet-{sector}"))
    for e in SIGNS:
        for s in SIGNS:
            for t in _interior(n):
                rows.append(_point("edge", "AB", {"lam": s * t, "eps2": e}))
                rows.append(_point("edge", "BA", {"eps1": e, "mu": s * t}))
    return rows + _bb_rows()


def _bb_rows():
    return [_point("vertex", "BB", {"eps1": e1, "eps2": e2})
            for e1 in SIGNS for e2 in SIGNS]


def _bc_rows(n):
    rows = []
    for e1 in SIGNS:
        for e2 in SIGNS:
            circle = "circle:" + "+-"[e1 < 0] + "+-"[e2 < 0]
            for comp in AXIS_COMPONENTS["alpha"]:
                for alpha in _angle_samples(comp, n):
                    rows.append(_point("arc", "CC", {"eps1": e1, "eps2": e2,
                                                     "alpha": alpha}, circle))
            for e4 in SIGNS:
                rows.append(_point("point", "BC", {"eps1": e1, "eps2": e2,
                                                   "eps4": e4}, circle))
            for e3 in SIGNS:
                rows.append(_point("point", "CB", {"eps1": e1, "eps2": e2,
                                                   "eps3": e3}, circle))
    return rows


def _bd_rows(n):
    rows = []
    for tc in AXIS_COMPONENTS["theta"]:
        for pc in AXIS_COMPONENTS["phi"]:
            for theta in _angle_samples(tc, n):
                for phi in _angle_samples(pc, n):
                    rows.append(_point("patch", "DD",
                                       {"theta": theta, "phi": phi}))
    for e in SIGNS:
        for pc in AXIS_COMPONENTS["phi"]:
            for ang in _angle_samples(pc, n):
                rows.append(_point("arc", "BD", {"eps1": e, "phi": ang}))
                rows.append(_point("arc", "DB", {"theta": ang, "eps2": e}))
    return rows + _bb_rows()


def figure_rows(figure: str, resolution: int = 12):
    if figure == "ab":
        rows = _ab_rows(resolution)
    elif figure == "bc":
        rows = _bc_rows(resolution)
    elif figure == "bd":
        rows = _bd_rows(resolution)
    elif figure == "overall":
        rows = _ab_rows(resolution) + _bc_rows(resolution) + _bd_rows(resolution)
    else:
        raise ValueError(f"unknown figure {figure!r}")
    for r in rows:
        r["figure"] = figure
    return rows


CSV_HEADER = "figure,kind,component,circle,sector,params,x,y,z"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f'{r["figure"]},{r["kind"]},{r["component"]},{r["circle"]},'
            f'{r["sector"]},"{r["params"]}",{r["x"]!r},{r["y"]!r},{r["z"]!r}'
        )
    return "\n".join(lines) + "\n"


def _project(x, y, z):
    u = K.CAMERA_U[0] * x + K.CAMERA_U[1] * y + K.CAMERA_U[2] * z
    v = K.CAMERA_V[0] * x + K.CAMERA_V[1] * y + K.CAMERA_V[2] * z
    return u, v


_KIND_STYLE = {
    "sheet": ('fill="#9ecae1"', 1.2),
    "patch": ('fill="#a1d99b"', 1.2),
    "edge": ('fill="#3182bd"', 2.0),
    "arc": ('fill="#e6550d"', 2.0),
    "point": ('fill="#756bb1"', 3.0),
    "vertex": ('fill="#000000"', 4.0),
}


def rows_to_svg(rows) -> str:
    pts = [(_project(r["x"], r["y"], r["z"]), r["kind"]) for r in rows]
    us = [p[0][0] for p in pts]
    vs = [p[0][1] for p in pts]
    umin, umax = min(us), max(us)
    vmin, vmax = min(vs), max(vs)
    span_u = (umax - umin) or 1.0
    span_v = (vmax - vmin) or 1.0
    scale = min((SVG_WIDTH - 40) / span_u, (SVG_HEIGHT - 40) / span_v)

    def to_px(u, v):
        return (20 + (u - umin) * scale, 20 + (v - vmin) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for (u, v), kind in pts:
        style, radius = _KIND_STYLE[kind]
        px, py = to_px(u, v)
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" {style}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

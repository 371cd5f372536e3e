"""Timing wrappers around the program's functions, installed from outside.

``Tracer.install`` replaces each hooked function with a wrapper in every
module that holds a reference to it, because ``from .sl2 import classify``
copies the reference into the importing module.  Spans nest on a stack; a
span's self time is its duration minus the durations of its child spans.
Spans are aggregated in memory by (name, parent span, context, label).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, label of a result, count of a call)
HOOKS = (
    ("sl2torus.sl2", "make_sl2", "sl2.make_sl2", None, None),
    ("sl2torus.sl2", "classify", "sl2.classify", None, None),
    ("sl2torus.pairs", "make_pair", "pairs.make_pair", None, None),
    ("sl2torus.pairs", "coarse_combo", "pairs.coarse_combo", None, None),
    ("sl2torus.canonical", "canonicalize", "canonical.canonicalize",
     lambda res: res.sector, None),
    ("sl2torus.canonical", "reconstruct", "canonical.reconstruct", None, None),
    ("sl2torus.canonical", "apply_conjugation", "canonical.apply_conjugation",
     None, None),
    ("sl2torus.canonical", "equivalent", "canonical.equivalent", None, None),
    ("sl2torus.oracle", "search_conjugator", "oracle.search_conjugator",
     None, lambda args, res: res.iterations),
    ("sl2torus.oracle", "exact_classify", "oracle.exact_classify", None, None),
    ("sl2torus.atlas", "embed", "atlas.embed", None, None),
    ("sl2torus.figures", "figure_rows", "figures.figure_rows",
     None, lambda args, res: len(res)),
    ("sl2torus.figures", "rows_to_csv", "figures.rows_to_csv", None, None),
    ("sl2torus.figures", "rows_to_svg", "figures.rows_to_svg", None, None),
    ("sl2torus.cli", "main", "cli.main", None, None),
    # the CLI's document-read and emit stages have no public name
    ("sl2torus.cli", "_read_document", "cli.read", None, None),
    ("sl2torus.cli", "_emit", "cli.emit", None,
     lambda args, res: len(args[0])),
    ("jsonschema", "validate", "cli.validate", None, None),
)


class Tracer:
    def __init__(self):
        self.context = ""
        self.stack = []
        # (name, parent, context, label) -> [calls, seconds, self seconds, count]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.missing = []
        self._restore = []

    def wrap(self, name, fn, label=None, count=None):
        stack, stats = self.stack, self.stats

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
                ok = True
                return res
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (name, parent, self.context,
                       label(res) if label and ok else "")
                s = stats[key]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                if count and ok:
                    s[3] += count(args, res)

        return traced

    def install(self):
        """Wrap every hooked function in every module that binds it."""
        for modname, attr, name, label, count in HOOKS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue  # that layer does not run in this workload
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            traced = self.wrap(name, fn, label, count)
            for m in list(sys.modules.values()):
                mname = getattr(m, "__name__", "") or ""
                if mname != modname and not mname.startswith("sl2torus"):
                    continue
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, traced)
                        self._restore.append((m, k, fn))

    def uninstall(self):
        for m, k, fn in reversed(self._restore):
            setattr(m, k, fn)
        self._restore.clear()

    def rows(self):
        """The aggregated spans as JSON-ready rows."""
        return [list(k) + v for k, v in sorted(self.stats.items())]

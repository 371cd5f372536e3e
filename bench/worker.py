"""Runs one workload inside a fresh interpreter and writes what it measured.

Usage: python3 bench/worker.py SPEC.json

The spec names the workload, its input files, the run length and whether
to trace.  The inputs were generated beforehand by run.py, so this
process's peak resident memory is the program's own plus a small harness.
Every round after the first must reproduce the first round's answers
exactly; run.py checks the first round's answers against the planted ones.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer


def _entries(m):
    return [m.a, m.b, m.c, m.d]


class CliBatch:
    """`sl2torus.cli.main` on the pair and comparison documents, plus one
    `plot overall`, all writing to files in the run directory."""

    def __init__(self, spec, tracer):
        from sl2torus import cli

        self.cli = cli
        self.tracer = tracer
        self.commands = spec["commands"]
        self.outputs = [Path(spec["dir"]) / f for f in spec["outputs"]]
        self.ops = spec["ops_per_round"]

    def round(self, i):
        codes, t = [], 0.0
        for context, argv in self.commands:
            self.tracer.context = context
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed command
                code = f"{type(exc).__name__}: {exc}"
            t += perf_counter() - t0
            codes.append(code)
        data = tuple(p.read_bytes() if p.exists() else b"" for p in self.outputs)
        return t, self.ops, 0, (tuple(codes), data)

    def dump(self, sig):
        return {"codes": list(sig[0])}


class LibCanon:
    """make_sl2 x2, make_pair and canonicalize per pair; a fixed share of
    comparisons through equivalent.  No CLI and no JSON in the timed loop."""

    def __init__(self, spec, tracer):
        from sl2torus import canonical, pairs, sl2
        from sl2torus.errors import SL2TorusError

        self.mods = (sl2, pairs, canonical)
        self.error = SL2TorusError
        self.tracer = tracer
        with open(spec["inputs"]) as fh:
            data = json.load(fh)
        self.pairs = [tuple(a) for a in data["pairs"]]
        self.comps = [tuple(a) for a in data["comparisons"]]
        self.ops = len(self.pairs) + len(self.comps)

    def round(self, i):
        sl2, pairs, canonical = self.mods
        make_sl2, make_pair = sl2.make_sl2, pairs.make_pair
        canonicalize, equivalent = canonical.canonicalize, canonical.equivalent
        err = self.error
        out, verdicts = [], []
        self.tracer.context = "pair"
        t0 = perf_counter()
        for a in self.pairs:
            try:
                out.append(canonicalize(make_pair(make_sl2(*a[:4]),
                                                  make_sl2(*a[4:]))))
            except err as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        t1 = perf_counter()
        self.tracer.context = "equiv"
        t2 = perf_counter()
        for a in self.comps:
            try:
                verdicts.append(equivalent(
                    make_pair(make_sl2(*a[0:4]), make_sl2(*a[4:8])),
                    make_pair(make_sl2(*a[8:12]), make_sl2(*a[12:16]))))
            except err as exc:
                verdicts.append(f"{type(exc).__name__}: {exc}")
        t3 = perf_counter()
        return (t1 - t0) + (t3 - t2), self.ops, 0, (out, verdicts)

    def dump(self, sig):
        out, verdicts = sig
        return {
            "pairs": [{"error": c} if isinstance(c, str) else
                      {"sector": c.sector, "params": c.params,
                       "witness": _entries(c.witness)} for c in out],
            "verdicts": [{"error": v} if isinstance(v, str) else v
                         for v in verdicts],
        }


class OracleVerify:
    """search_conjugator, at the spec's budget, on one planted equivalent
    and one planted distinct pair per round; round r uses case r of the
    deck, cycling."""

    def __init__(self, spec, tracer):
        from sl2torus import oracle, pairs, sl2

        self.mods = (sl2, pairs, oracle)
        self.tracer = tracer
        self.budget = spec["budget"]
        with open(spec["inputs"]) as fh:
            self.deck = json.load(fh)["deck"]

    def _pair(self, m1, m2):
        sl2, pairs, _ = self.mods
        return pairs.make_pair(sl2.make_sl2(*m1), sl2.make_sl2(*m2))

    def round(self, i):
        key = i % len(self.deck)
        reports, t = [], 0.0
        for case in self.deck[key]:
            p, q = self._pair(*case["p"]), self._pair(*case["q"])
            self.tracer.context = case["kind"]
            t0 = perf_counter()
            rep = self.mods[2].search_conjugator(
                p, q, budget=self.budget, seed=case["search_seed"])
            t += perf_counter() - t0
            reports.append((tuple(_entries(rep.best_S)), rep.residual,
                            rep.iterations, rep.converged))
        return t, len(reports), key, tuple(reports)

    def dump(self, sig):
        return [{"best_S": list(s), "residual": r, "iterations": n,
                 "converged": c} for s, r, n, c in sig]


WORKLOADS = {"cli-batch": CliBatch, "lib-canon": LibCanon,
             "oracle-verify": OracleVerify}


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.consistent = True

    def round(self, i):
        t, ops, key, sig = self.wl.round(i)
        if key not in self.first:
            self.first[key] = sig
        elif sig != self.first[key]:
            self.consistent = False
        return t, ops


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import sl2torus

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(sl2torus.__file__).startswith(src + os.sep):
        print(f"sl2torus imported from {sl2torus.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = Tracer()
    runner = Runner(WORKLOADS[spec["workload"]](spec, tracer))
    result = {"rounds": [], "traced_rounds": []}
    if spec["trace"]:
        # fixed work, first untraced and then traced, so that counts
        # repeat exactly and the difference is the tracing overhead
        n = spec["trace_rounds"]
        result["rounds"] = [runner.round(i) for i in range(n)]
        tracer.install()
        result["traced_rounds"] = [runner.round(i) for i in range(n)]
        tracer.uninstall()
        result["missing_hooks"] = tracer.missing
        result["spans"] = tracer.rows()
    else:
        elapsed, i = 0.0, 0
        while elapsed < spec["seconds"] or i == 0:
            t, ops = runner.round(i)
            result["rounds"].append((t, ops))
            elapsed += t
            i += 1
    result["consistent"] = runner.consistent
    result["first"] = {str(k): runner.wl.dump(v)
                       for k, v in sorted(runner.first.items())}
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(Path(spec["dir"]) / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

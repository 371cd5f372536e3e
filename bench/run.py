#!/usr/bin/env python3
"""Benchmark of sl2torus: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli-batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selfcheck

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Inputs are generated here, from the seed, and written under
``.bench_run/``; a fresh interpreter (bench/worker.py) runs the program on
them; the answers are then checked here against the planted ones.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKER = Path(__file__).resolve().parent / "worker.py"

END_TO_END = {"setup_s": "s", "throughput_ops": "1/s", "peak_rss_mb": "MiB"}

_SPAN_METRICS = (
    # name, unit, span, field, selection
    ("cli.read_s", "s", "cli.read", "self", {}),
    ("cli.validate_s", "s", "cli.validate", "seconds", {}),
    ("cli.emit_s", "s", "cli.emit", "seconds", {}),
    ("cli.self_s", "s", "cli.main", "self", {}),
    ("cli.records", "count", "cli.emit", "count", {}),
    ("cli.classify_cmd_s", "s", "cli.main", "seconds", {"context": "classify"}),
    ("cli.canon_cmd_s", "s", "cli.main", "seconds", {"context": "canon"}),
    ("cli.equiv_cmd_s", "s", "cli.main", "seconds", {"context": "equiv"}),
    ("cli.plot_cmd_s", "s", "cli.main", "seconds", {"context": "plot"}),
    ("sl2.make_sl2_calls", "count", "sl2.make_sl2", "calls", {}),
    ("sl2.make_sl2_s", "s", "sl2.make_sl2", "seconds", {}),
    ("sl2.classify_calls", "count", "sl2.classify", "calls", {}),
    ("sl2.classify_s", "s", "sl2.classify", "seconds", {}),
    ("pairs.make_pair_s", "s", "pairs.make_pair", "seconds", {}),
    ("pairs.coarse_combo_calls", "count", "pairs.coarse_combo", "calls", {}),
    ("pairs.coarse_combo_s", "s", "pairs.coarse_combo", "seconds", {}),
    ("canonical.canonicalize_calls", "count", "canonical.canonicalize",
     "calls", {}),
    ("canonical.canonicalize_self_s", "s", "canonical.canonicalize",
     "self", {}),
) + tuple(
    (f"canonical.canonicalize_s.{s}", "s", "canonical.canonicalize",
     "seconds", {"label": s}) for s in inputs.SECTORS
) + (
    ("canonical.equivalent_calls", "count", "canonical.equivalent",
     "calls", {}),
    ("canonical.equivalent_s", "s", "canonical.equivalent", "seconds", {}),
    ("oracle.searches", "count", "oracle.search_conjugator", "calls", {}),
    ("oracle.search_s", "s", "oracle.search_conjugator", "seconds", {}),
    ("oracle.search_s.equivalent", "s", "oracle.search_conjugator",
     "seconds", {"context": "equivalent"}),
    ("oracle.search_s.distinct", "s", "oracle.search_conjugator",
     "seconds", {"context": "distinct"}),
    ("oracle.nfev", "count", "oracle.search_conjugator", "count", {}),
    ("oracle.exact_classify_calls", "count", "oracle.exact_classify",
     "calls", {}),
    ("oracle.exact_classify_s", "s", "oracle.exact_classify", "seconds", {}),
    ("figures.figure_rows_s", "s", "figures.figure_rows", "seconds", {}),
    ("figures.rows", "count", "figures.figure_rows", "count", {}),
    ("atlas.embed_calls", "count", "atlas.embed", "calls", {}),
)
PER_LAYER = {
    "setup.interpreter_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_jsonschema_s": "s",
    "setup.import_sl2torus_s": "s",
    **{m[0]: m[1] for m in _SPAN_METRICS},
    "sl2.classify_per_op": "count/op",
    "canonical.witness_check_s": "s",
    "canonical.canonicalize_per_comparison": "count/op",
    "oracle.nfev_per_search": "count/op",
    "figures.render_s": "s",
    "trace.overhead": "%",
}

SETUP_SNIPPET = ("import importlib, sys, time; "
                 "importlib.import_module(sys.argv[1]); "
                 "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


# ---------------------------------------------------------------------------
# workloads: inputs, worker spec and checks of the answers
# ---------------------------------------------------------------------------


class CliBatch:
    """Batch users: classify, canon and equiv on JSON documents covering all
    eleven sectors, plus one `plot overall`.  One operation is one input
    record answered, or one plot."""

    entry = "sl2torus.cli"
    sizes = {"full": dict(per_sector=90, rational_per_sector=10, blocks=16,
                          trace_rounds=3),
             "tiny": dict(per_sector=1, rational_per_sector=1, blocks=1,
                          trace_rounds=1)}
    rounds_per_sweep = 1
    resolution = 12  # the CLI's default plot resolution

    def __init__(self, seed, size, work):
        self.size = self.sizes[size]
        self.work = work
        self.records = inputs.cli_records(seed, self.size["per_sector"],
                                          self.size["rational_per_sector"])
        self.comps = inputs.comparisons(seed, self.size["blocks"],
                                        "cli-comparison")
        self.comparisons = len(self.comps)

    def spec(self):
        pairs, comps = self.work / "pairs.json", self.work / "comparisons.json"
        _write_json(pairs, inputs.pair_document(self.records))
        _write_json(comps, inputs.equiv_document(self.comps))
        out = lambda name: str(self.work / name)  # noqa: E731
        return {
            "commands": [
                [cmd, [cmd, str(doc), "--out", out(f"{cmd}.jsonl")]]
                for cmd, doc in (("classify", pairs), ("canon", pairs),
                                 ("equiv", comps))
            ] + [["plot", ["plot", "overall", "--out", out("plot")]]],
            "outputs": ["classify.jsonl", "canon.jsonl", "equiv.jsonl",
                        "plot.csv", "plot.svg"],
            "ops_per_round": 2 * len(self.records) + len(self.comps) + 1,
        }

    def _lines(self, name, expected):
        path = self.work / name
        text = path.read_text() if path.exists() else ""
        objs = [json.loads(line) for line in text.splitlines()]
        if [o.get("id") for o in objs] != [r["id"] for r in expected]:
            return None
        return objs

    def check(self, first):
        """(failed operations per round, problems)."""
        codes = first["0"]["codes"]
        failed, problems = 0, []
        batches = (
            ("classify", "classify.jsonl", self.records,
             checks.classify_record_problem),
            ("canon", "canon.jsonl", self.records,
             checks.canon_record_problem),
            ("equiv", "equiv.jsonl", self.comps, checks.equiv_record_problem),
        )
        for (cmd, name, expected, problem), code in zip(batches, codes):
            objs = self._lines(name, expected)
            if objs is None or not isinstance(code, int):
                failed += len(expected)
                problems.append(f"{cmd}: exit {code!r}, output incomplete")
                continue
            for rec, out in zip(expected, objs):
                if "error" in out:
                    failed += 1
                    continue
                prob = problem(rec, out)
                if prob and cmd == "canon" and rec.get("tiny"):
                    failed += 1  # the known rational CC -> BB fault
                elif prob:
                    problems.append(
                        f"{cmd} {rec['id']} ({rec['sector']}): {prob}")
            errors = any("error" in o for o in objs)
            if code != (3 if errors else 0) and not (errors and code == 4):
                problems.append(f"{cmd}: exit code {code}")
        csv_path, svg_path = self.work / "plot.csv", self.work / "plot.svg"
        if codes[3] != 0 or not csv_path.exists() or not svg_path.exists():
            failed += 1
        else:
            prob = checks.plot_problem(csv_path.read_text(),
                                       svg_path.read_text(), self.resolution)
            if prob:
                problems.append(f"plot: {prob}")
        return failed, problems


class LibCanon:
    """Library calls only: per pair make_sl2 x2, make_pair and canonicalize;
    a fixed share of comparisons through equivalent.  One operation is one
    pair canonicalized or one comparison decided."""

    entry = "sl2torus.canonical"
    sizes = {"full": dict(per_sector=200, blocks=16, trace_rounds=20),
             "tiny": dict(per_sector=2, blocks=1, trace_rounds=1)}
    rounds_per_sweep = 1

    def __init__(self, seed, size, work):
        self.size = self.sizes[size]
        self.work = work
        self.records = [inputs.float_pair(seed, s, i, "lib-pair")
                        for i in range(self.size["per_sector"])
                        for s in inputs.SECTORS]
        self.comps = inputs.comparisons(seed, self.size["blocks"],
                                        "lib-comparison")
        self.comparisons = len(self.comps)

    def spec(self):
        path = self.work / "lib_inputs.json"
        _write_json(path, {
            "pairs": [list(r["U1"] + r["U2"]) for r in self.records],
            "comparisons": [list(c["left"]["U1"] + c["left"]["U2"]
                                 + c["right"]["U1"] + c["right"]["U2"])
                            for c in self.comps],
        })
        return {"inputs": str(path)}

    def check(self, first):
        got = first["0"]
        failed, problems = 0, []
        for n, (rec, out) in enumerate(zip(self.records, got["pairs"])):
            if "error" in out:
                failed += 1
                continue
            prob = checks.canonical_problem(rec, out["sector"], out["params"],
                                            out["witness"])
            if prob:
                problems.append(f"pair {n} ({rec['sector']}): {prob}")
        for n, (comp, v) in enumerate(zip(self.comps, got["verdicts"])):
            if isinstance(v, dict):
                failed += 1
            elif v != comp["equivalent"]:
                problems.append(f"comparison {n} ({comp['sector']} "
                                f"{comp['kind']}): verdict {v}")
        return failed, problems


class OracleVerify:
    """The independent oracle: search_conjugator on one planted equivalent
    and one planted distinct pair per round, sector r mod 11 in round r.
    One operation is one search."""

    entry = "sl2torus.oracle"
    # full: ten sweeps of the eleven sectors, more than one run needs;
    # tiny: sectors BB and DB only
    sizes = {"full": dict(cases=tuple(range(110)), trace_rounds=11),
             "tiny": dict(cases=(4, 8), trace_rounds=2)}
    # Objective evaluations per search.  At the default budget (200000) a
    # distinct search stops after 11k to 68k evaluations, depending on the
    # input, so throughput moved by 23% between seeds.  At 12000 a distinct
    # search spends nearly all of its budget, and an equivalent search
    # still converges in its polishing pass.
    budget = 12000
    comparisons = 0

    def __init__(self, seed, size, work):
        self.size = self.sizes[size]
        self.work = work
        self.deck = [inputs.oracle_case(seed, r) for r in self.size["cases"]]
        self.rounds_per_sweep = min(len(self.deck), len(inputs.SECTORS))

    def spec(self):
        path = self.work / "oracle_inputs.json"
        deck = [[{"kind": c["kind"], "p": [list(m) for m in c["p"]],
                  "q": [list(m) for m in c["q"]],
                  "search_seed": c["search_seed"]} for c in pair]
                for pair in self.deck]
        _write_json(path, {"deck": deck})
        return {"inputs": str(path), "budget": self.budget}

    def check(self, first):
        problems = []
        for key, reports in first.items():
            for case, rep in zip(self.deck[int(key)], reports):
                prob = checks.search_problem(case, rep)
                if prob:
                    problems.append(f"case {key} {case['sector']} "
                                    f"{case['kind']}: {prob}")
        return 0, problems


WORKLOADS = {"cli-batch": CliBatch, "lib-canon": LibCanon,
             "oracle-verify": OracleVerify}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_once(entry, importtime):
    """Seconds from starting a fresh interpreter until the entry module is
    imported, and the -X importtime report when asked for.  The child reads
    CLOCK_MONOTONIC, which is one clock for all processes on Linux, right
    after the import."""
    flags = ["-X", "importtime"] if importtime else []
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SETUP_SNIPPET, entry], cwd=ROOT,
        env=_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"importing {entry} failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout) - t0, proc.stderr


def importtime_groups(report):
    """Cumulative import seconds of the outermost sl2torus, scipy and
    jsonschema imports in one -X importtime report."""
    entries = []
    for line in report.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cum = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), cum * 1e-6))
    out = {}
    for group in ("sl2torus", "scipy", "jsonschema"):
        hit = lambda n: n == group or n.startswith(group + ".")  # noqa: E731
        total, stack = 0.0, []
        # reversed post-order visits each parent before its children
        for depth, name, cum in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if hit(name) and not any(hit(n) for _, n in stack):
                total += cum
            stack.append((depth, name))
        out[group] = total
    return out


def measure_setup(entry, reps, importtime):
    setup_once(entry, False)  # warm the bytecode and file caches
    runs = [setup_once(entry, importtime) for _ in range(reps)]
    if not importtime:
        return {"setup_s": statistics.median(s for s, _ in runs)}
    parts = [(s, importtime_groups(r)) for s, r in runs]
    med = lambda xs: statistics.median(list(xs))  # noqa: E731
    return {
        "setup.interpreter_s": med(s - g["sl2torus"] for s, g in parts),
        "setup.import_scipy_s": med(g["scipy"] for _, g in parts),
        "setup.import_jsonschema_s": med(g["jsonschema"] for _, g in parts),
        "setup.import_sl2torus_s": med(g["sl2torus"] for _, g in parts),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

_FIELDS = {"calls": 4, "seconds": 5, "self": 6, "count": 7}


def span_total(spans, name, field, parent=None, context=None, label=None):
    i = _FIELDS[field]
    return sum(r[i] for r in spans if r[0] == name
               and (parent is None or r[1] == parent)
               and (context is None or r[2] == context)
               and (label is None or r[3] == label))


def layer_metrics(spans, sweeps, ops, comparisons):
    """Per-layer figures per sweep of the workload's inputs."""
    out = {}
    for name, _, span, field, sel in _SPAN_METRICS:
        out[name] = span_total(spans, span, field, **sel) / sweeps
    canon = "canonical.canonicalize"
    out["canonical.witness_check_s"] = sum(
        span_total(spans, s, "seconds", parent=canon)
        for s in ("canonical.reconstruct", "canonical.apply_conjugation")
    ) / sweeps
    out["figures.render_s"] = sum(
        span_total(spans, s, "seconds")
        for s in ("figures.rows_to_csv", "figures.rows_to_svg")) / sweeps
    out["sl2.classify_per_op"] = out["sl2.classify_calls"] / ops
    compared = span_total(spans, canon, "calls", context="equiv")
    out["canonical.canonicalize_per_comparison"] = (
        compared / (comparisons * sweeps) if comparisons else 0.0)
    searches = out["oracle.searches"]
    out["oracle.nfev_per_search"] = (
        out["oracle.nfev"] / searches if searches else 0.0)
    return out


def sweep_rate(rounds, per_sweep):
    """Median over complete sweeps of operations per timed second.  A sweep
    is one pass over the workload's distinct inputs: one round of cli-batch
    or lib-canon, eleven rounds (one per sector) of oracle-verify."""
    sweeps = [rounds[i:i + per_sweep]
              for i in range(0, len(rounds) - per_sweep + 1, per_sweep)]
    return statistics.median(sum(ops for _, ops in s) / sum(t for t, _ in s)
                             for s in sweeps or [rounds])


def run(workload, seed, seconds, trace, size="full", setup_reps=5):
    """One benchmark run; returns the result object."""
    cls = WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}-{'trace' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = cls(seed, size, work)
    spec = {"workload": workload, "dir": str(work), "src": str(SRC),
            "seconds": seconds, "trace": bool(trace),
            "trace_rounds": wl.size["trace_rounds"], **wl.spec()}
    spec_path = work / "spec.json"
    _write_json(spec_path, spec)

    setup = measure_setup(wl.entry, setup_reps, bool(trace))
    with open(work / "worker.log", "w") as log:
        proc = subprocess.run([sys.executable, str(WORKER), str(spec_path)],
                              cwd=ROOT, env=_env(), stdout=log,
                              stderr=subprocess.STDOUT, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           + (work / "worker.log").read_text()[-2000:])
    with open(work / "result.json") as fh:
        res = json.load(fh)

    failed_per_round, problems = wl.check(res["first"])
    if not res["consistent"]:
        problems.append("a later round differed from the first")
    rounds = res["traced_rounds"] if trace else res["rounds"]
    attempted = sum(ops for _, ops in rounds)
    failed = failed_per_round * len(rounds)

    if trace:
        sweeps = len(rounds) / wl.rounds_per_sweep
        values = {**setup, **layer_metrics(res["spans"], sweeps, attempted /
                                           sweeps, wl.comparisons)}
        plain = sum(t for t, _ in res["rounds"])
        traced = sum(t for t, _ in res["traced_rounds"])
        values["trace.overhead"] = 100.0 * (traced / plain - 1.0)
        units = PER_LAYER
        for hook in res["missing_hooks"]:
            print(f"note: hook {hook} not found; its spans read 0",
                  file=sys.stderr)
    else:
        values = {**setup,
                  "throughput_ops": sweep_rate(rounds, wl.rounds_per_sweep),
                  "peak_rss_mb": res["rss_kib"] / 1024.0}
        units = END_TO_END
    for p in problems[:10]:
        print(f"wrong: {p}", file=sys.stderr)
    if len(problems) > 10:
        print(f"wrong: ... {len(problems) - 10} more", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def selfcheck():
    """Every workload at a tiny size, untraced and traced, with every
    output check; exits 0 only if all answers are right and every metric
    is reported."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            res = run(name, 1, 0.0, trace, size="tiny", setup_reps=1)
            want = PER_LAYER if trace else END_TO_END
            metrics = res["metrics"]
            values = [m["value"] for m in metrics.values()]
            good = bool(res["correct"] and set(metrics) == set(want)
                        and all(math.isfinite(v) for v in values)
                        and (trace or all(v > 0 for v in values)))
            ok = ok and good
            print(f"selfcheck {name} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} ({res['attempted']} ops, "
                  f"{res['failed']} failed, {time.perf_counter() - t0:.1f}s)")
    print(json.dumps({"selfcheck": ok}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload at a tiny size and check it")
    args = ap.parse_args(argv)
    if not (SRC / "sl2torus" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_selfcheck_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--selfcheck"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"selfcheck": True}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-batch", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_do_not_depend_on_hash_seed():
    code = ("import inputs; print(repr(inputs.cli_records(5, 1, 1)) + "
            "repr(inputs.comparisons(5, 1, 'c')) + "
            "repr(inputs.oracle_case(5, 3)))")
    outs = {subprocess.run([sys.executable, "-c", code], cwd=HERE, text=True,
                           capture_output=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": h}).stdout
            for h in ("0", "1", "random")}
    assert len(outs) == 1


def _planted(sector, seed=7):
    rng = inputs.rng_for(seed, "test", sector)
    params = inputs.sample_params(sector, rng)
    s = inputs.conjugator(rng)
    c1, c2 = inputs.canonical(sector, params)
    rec = {"sector": sector, "params": params, "mode": "float",
           "U1": inputs.conj(c1, s), "U2": inputs.conj(c2, s)}
    return rec, inputs.inv(s)


def test_canonical_check_accepts_the_true_witness_and_rejects_faults():
    for sector in inputs.SECTORS:
        rec, w = _planted(sector)
        params = dict(rec["params"])
        assert checks.canonical_problem(rec, sector, params, w) is None
        assert checks.canonical_problem(rec, "BB" if sector != "BB" else "AB",
                                        params, w)
        assert checks.canonical_problem(rec, sector, params,
                                        tuple(2 * x for x in w))
        for k, v in params.items():
            bad = dict(params, **{k: -v if isinstance(v, int) else v + 1e-4})
            assert checks.canonical_problem(rec, sector, bad, w), (sector, k)


def test_exact_check_uses_fraction_arithmetic():
    rec = inputs.tiny_cc_records()[0]
    assert rec["params"]["alpha"] == math.atan2(2, 1)
    assert checks.exact_problem(rec, {"c": [2, 1], "det_sprime_sign": 1}) is None
    assert checks.exact_problem(rec, {"c": [1, 2], "det_sprime_sign": 1})
    for sector in inputs.SECTORS:
        r = inputs.rational_pair(3, sector, 0)
        u1 = tuple(float(x) for x in r["U1"])
        u2 = tuple(float(x) for x in r["U2"])
        assert inputs.max_abs_diff(inputs.mul(u1, u2),
                                   inputs.mul(u2, u1)) < 1e-9


def test_importtime_groups_count_outermost_imports_once():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy",
        "import time:        20 |         30 |   scipy.optimize",
        "import time:         5 |         35 |   scipy",
        "import time:        40 |        100 | sl2torus",
        "import time:         7 |          7 |   jsonschema.validators",
        "import time:         3 |         10 | jsonschema",
    ])
    got = run.importtime_groups(report)
    assert got == pytest.approx(
        {"sl2torus": 100e-6, "scipy": 65e-6, "jsonschema": 10e-6})

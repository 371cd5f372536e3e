"""Golden output of float records.

tests/golden/float_pairs.json holds two conjugated float pairs of every
sector (the sectors' canonical matrices at sampled parameters, conjugated
by ``atlas.random_sl2``) and a hyperbolic matrix at the edge of the
|tr| = 2 band, ``[[1.000000001, 1], [1e-9, 1]]`` beside the identity.
tests/golden/float_comparisons.json compares, per sector, one pair with
another conjugate of it and the two pairs of float_pairs.json with each
other.  The documents are committed, not drawn here, so the input bytes do
not depend on the platform's trigonometry.  The `classify`, `canon` and
`equiv` output must stay byte for byte what is committed, with exit 0.
"""

from pathlib import Path

import pytest

from sl2torus.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command, document", [
    ("classify", "float_pairs.json"),
    ("canon", "float_pairs.json"),
    ("equiv", "float_comparisons.json"),
])
def test_float_records_match_golden_output(tmp_path, command, document):
    out = tmp_path / f"{command}.jsonl"
    code = main([command, str(GOLDEN / document), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"float_{command}.jsonl").read_bytes()

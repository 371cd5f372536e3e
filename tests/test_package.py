"""The package namespace: lazily loaded names and what an import loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sl2torus
from sl2torus import atlas, cli, constants, figures, oracle

SRC = Path(sl2torus.__file__).resolve().parent.parent

# every public name of the package namespace while it still imported the
# atlas eagerly, the oracle's lazily loaded names, and the atlas's place and
# component_label
EXPORTED = (
    "CanonTrace", "CanonicalPair", "CellIncidence", "ClassificationAmbiguous",
    "CommutingPair", "DegenerateCC", "DeterminantError", "EmbeddedPoint",
    "ForbiddenCombo", "IDENTITY", "NotCommuting", "ParamOutOfRange",
    "SECTORS", "SEPARATED", "SL2Matrix", "SL2TorusError", "SectorDomain",
    "SpectralType", "ToleranceConfig", "allowed_combination",
    "apply_conjugation", "atlas", "canonical", "canonicalize", "classify",
    "coarse_combo", "component_key", "component_labels", "conjugate",
    "constants", "depiction_component", "embed", "equivalent", "errors",
    "incidence", "make_pair", "make_sl2", "pairs", "parameter_domain",
    "reconstruct", "rotation", "sample_sector", "sector_distance", "sl2",
    "sl2_from_coords", "trace_class",
    "ConjugatorSearchReport", "exact_classify", "search_conjugator",
    "component_label", "place",
)


@pytest.mark.parametrize("name", EXPORTED)
def test_every_exported_name_resolves(name):
    value = getattr(sl2torus, name)
    for module in (atlas, oracle):
        if name in vars(module) and not name.startswith("_"):
            assert value is getattr(module, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sl2torus.no_such_name


def test_cli_import_leaves_plotting_and_sampling_unloaded():
    code = ("import sys, sl2torus.cli; "
            "print(sorted(m for m in ('sl2torus.atlas', 'sl2torus.figures', "
            "'sl2torus.oracle') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "[]"


def test_cli_figure_choices_are_the_figures():
    assert cli.FIGURES is figures.FIGURES is constants.FIGURES

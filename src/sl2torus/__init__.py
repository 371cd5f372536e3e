"""Explicit parametrization of commuting unit-determinant 2x2 real matrix
pairs modulo simultaneous conjugation: spectral classification, the eleven
canonical sectors, equivalence testing, an independent conjugator-search
oracle, and depiction utilities."""

from importlib import import_module

from .errors import (
    ClassificationAmbiguous,
    DegenerateCC,
    DeterminantError,
    ForbiddenCombo,
    NotCommuting,
    ParamOutOfRange,
    SL2TorusError,
)
from .sl2 import (
    IDENTITY,
    SL2Matrix,
    SpectralType,
    ToleranceConfig,
    classify,
    conjugate,
    make_sl2,
    rotation,
    sl2_from_coords,
    trace_class,
)
from .pairs import CommutingPair, allowed_combination, coarse_combo, make_pair
from .canonical import (
    SECTORS,
    CanonTrace,
    CanonicalPair,
    apply_conjugation,
    canonicalize,
    equivalent,
    reconstruct,
)

__version__ = "0.1.0"

# loaded on first use (PEP 562): nothing else in the package uses the
# oracle, and only plotting and sampling use the atlas
_LAZY = {
    "oracle": ("ConjugatorSearchReport", "exact_classify",
               "search_conjugator"),
    "atlas": ("SEPARATED", "CellIncidence", "EmbeddedPoint", "SectorDomain",
              "component_key", "component_label", "component_labels",
              "depiction_component", "embed", "incidence", "parameter_domain",
              "place", "sample_sector", "sector_distance"),
    "constants": (),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            mod = import_module(f"{__name__}.{module}")
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

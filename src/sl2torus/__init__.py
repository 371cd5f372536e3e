"""Explicit parametrization of commuting unit-determinant 2x2 real matrix
pairs modulo simultaneous conjugation: spectral classification, the eleven
canonical sectors, equivalence testing, an independent conjugator-search
oracle, and depiction utilities."""

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
from .atlas import (
    SEPARATED,
    CellIncidence,
    EmbeddedPoint,
    SectorDomain,
    component_key,
    component_labels,
    depiction_component,
    embed,
    incidence,
    parameter_domain,
    sample_sector,
    sector_distance,
)

__version__ = "0.1.0"


def __getattr__(name):
    # nothing else in the package uses the oracle: load it on first use
    # (PEP 562)
    if name in ("ConjugatorSearchReport", "exact_classify",
                "search_conjugator"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

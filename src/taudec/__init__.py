"""Sign-decomposition toolkit for support tau-tilting theory of
radical-square-zero quiver algebras: finiteness, exact counts, explicit
tilting enumeration with g-vectors, and the glued Hasse quiver.

The names below are the public API that README's Library section
documents; everything else is reached through the submodules."""

from .dynkin import DynkinType, classify, tilting_count
from .quiver import (
    Arrow,
    QuiverError,
    UnsupportedComponentError,
    Valuation,
    ValuedQuiver,
    parse_quiver,
    quiver_file_text,
    sign_subquiver,
)
from .signdec import (
    INFINITE,
    count_for_signs,
    count_support_tilting,
    finiteness_witness,
    is_tau_tilting_finite,
    sign_slice_components,
)

__all__ = [
    "Arrow",
    "DynkinType",
    "GluedHasse",
    "INFINITE",
    "QuiverError",
    "UnsupportedComponentError",
    "Valuation",
    "ValuedQuiver",
    "brauer_cycle_quiver",
    "brauer_line_quiver",
    "classify",
    "count_for_signs",
    "count_support_tilting",
    "finiteness_witness",
    "glued_hasse",
    "is_tau_tilting_finite",
    "parse_quiver",
    "quiver_file_text",
    "sign_slice_components",
    "sign_subquiver",
    "tilting_count",
]


def __getattr__(name: str) -> object:
    """A name of `glue` or `brauer`, read from its module, which loads on first use."""
    if name in ("GluedHasse", "glued_hasse"):
        from . import glue as module
    elif name in ("brauer_cycle_quiver", "brauer_line_quiver"):
        from . import brauer as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""Sign-decomposition toolkit for support tau-tilting theory of
radical-square-zero quiver algebras: finiteness, exact counts, explicit
tilting enumeration with g-vectors, and the glued Hasse quiver.

The names below are the public API that README's Library section
documents; everything else is reached through the submodules."""

from .brauer import brauer_cycle_quiver, brauer_line_quiver
from .dynkin import DynkinType, classify, tilting_count
from .glue import GluedHasse, glued_hasse
from .quiver import (
    Arrow,
    QuiverError,
    Valuation,
    ValuedQuiver,
    parse_quiver,
    quiver_file_text,
    sign_subquiver,
)
from .repa import UnsupportedComponentError
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

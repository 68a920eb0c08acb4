"""Exact genus-0 invariants of the Hilbert scheme of two plane points.

The `Engine` reconstructs all genus-0 invariants of the target from a small
set of two-point values by exact substitution; `hyperelliptic` turns
them into curve counts, `quantum` into small quantum products, and `oracles`
supplies independent cross-checks.  Everything is arbitrary-precision
rational; nothing here ever rounds.
"""

from .chow import CohVector, TargetDatum, hilb_datum, p2_datum
from .engine import (
    CacheFormatError,
    Engine,
    EngineError,
    InconsistentSystem,
    UnderdeterminedStage,
)
from .hyperelliptic import (
    CountTable,
    NegativeCount,
    NonIntegralCount,
    genus_to_class,
    invariant_I,
    invert_counts,
)
from .oracles import engine_nd, kontsevich_nd
from .quantum import (
    QSeries,
    ScalarSeries,
    f_series,
    small_product,
    star,
    verify_product_table,
    verify_relations,
)

__version__ = "1.0.0"

__all__ = [
    "CacheFormatError",
    "CohVector",
    "CountTable",
    "Engine",
    "EngineError",
    "InconsistentSystem",
    "NegativeCount",
    "NonIntegralCount",
    "QSeries",
    "ScalarSeries",
    "TargetDatum",
    "UnderdeterminedStage",
    "__version__",
    "engine_nd",
    "f_series",
    "genus_to_class",
    "hilb_datum",
    "invariant_I",
    "invert_counts",
    "kontsevich_nd",
    "p2_datum",
    "small_product",
    "star",
    "verify_product_table",
    "verify_relations",
]

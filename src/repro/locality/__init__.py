"""repro.locality — analytic reuse-distance and miss-ratio prediction.

Two layers:

* :mod:`repro.locality.analytic` — the trace-free predictor deriving a
  reuse-distance histogram and FA-LRU / set-associative miss ratios
  from affine subscripts, bounds, and layout;
* :mod:`repro.locality.polysum` — exact iteration counting by
  polynomial summation, shared by the predictor.

The predictor is validated against the exact trace-driven analyzer in
:mod:`repro.cache.reuse`. See ``docs/locality.md`` for the formulas and
exactness conditions.
"""

from repro.locality.analytic import (
    LocalityPrediction,
    ReuseTerm,
    predict_locality,
)
from repro.locality.polysum import (
    Poly,
    PolySumError,
    chain_count,
    weighted_chain_count,
)

__all__ = [
    "LocalityPrediction",
    "Poly",
    "PolySumError",
    "ReuseTerm",
    "chain_count",
    "predict_locality",
    "weighted_chain_count",
]

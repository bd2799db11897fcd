"""Parameter synthesis for networks of parametric timed automata with
bounded integer parameters, checked against LTL properties.

Two engines compute, for every integer parameter valuation in a box,
whether the property holds, is violated, or a deadlock is reachable: a
symbolic one working on constrained parametric difference-bound matrices,
and an explicit one enumerating the valuations.  ``compare`` runs both and
checks the three sets match exactly.
"""

from .baseline import check_valuation, enumerate_box
from .explore import synthesize
from .ltl import parse_ltl, to_buchi, to_nnf
from .model import (
    Options,
    SynthesisResult,
    compose,
    load_model,
    make_nonzeno,
    parse_model,
    product,
)
from .params import AffineExpr, ParamBox, ValuationSet

__version__ = "0.1.0"

__all__ = [
    "AffineExpr",
    "Options",
    "ParamBox",
    "SynthesisResult",
    "ValuationSet",
    "check_valuation",
    "compose",
    "enumerate_box",
    "load_model",
    "make_nonzeno",
    "parse_ltl",
    "parse_model",
    "product",
    "synthesize",
    "to_buchi",
    "to_nnf",
    "__version__",
]

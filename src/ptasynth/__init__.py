"""Parameter synthesis for networks of parametric timed automata with
bounded integer parameters, checked against LTL properties.

Two engines compute, for every integer parameter valuation in a box,
whether the property holds, is violated, or a deadlock is reachable: a
symbolic one working on constrained parametric difference-bound matrices,
and an explicit one enumerating the valuations.  ``compare`` runs both and
checks the three sets match exactly.
"""

from .baseline import check_valuation, enumerate_box, instantiate
from .explore import (
    Options,
    SynthesisResult,
    deadlock_valuations,
    initial_states,
    successors,
    synthesize,
)
from .ltl import parse_ltl, to_buchi, to_nnf
from .model import compose, load_model, make_nonzeno, parse_model, product
from .params import AffineExpr, Constraint, ConstraintSet, ParamBox, ValuationSet

__version__ = "0.1.0"

__all__ = [
    "AffineExpr",
    "Constraint",
    "ConstraintSet",
    "Options",
    "ParamBox",
    "SynthesisResult",
    "ValuationSet",
    "check_valuation",
    "compose",
    "deadlock_valuations",
    "enumerate_box",
    "initial_states",
    "instantiate",
    "load_model",
    "make_nonzeno",
    "parse_ltl",
    "parse_model",
    "product",
    "successors",
    "synthesize",
    "to_buchi",
    "to_nnf",
    "__version__",
]

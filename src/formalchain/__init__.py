"""formalchain: formal chains of combinatorial manifolds.

Universal manifold pairings on complex superpositions, layered Lorentzian
growth with mirror doubling, Regge-type actions, and a Metropolis sampler
over formal chains, in dimensions 0 through 2 plus an opaque mock stage.
"""

from .action import ActionParams, total_action
from .chains import FormalChain, SamplerConfig, run, step
from .growth import Cobordism, GrowthConfig, grow_layer, mirror_double
from .pairing import (
    Bounded1Ket,
    BoundedSurfaceKet,
    MockEquivalence,
    cauchy_schwarz_check,
    l2_handle_series,
    lightlike_search,
    pair,
)
from .superpose import Superposition
from .topo import HomologyFingerprint, Triangulation, classify_surface, homology_ranks

__version__ = "0.1.0"

__all__ = [
    "ActionParams",
    "total_action",
    "FormalChain",
    "SamplerConfig",
    "run",
    "step",
    "Cobordism",
    "GrowthConfig",
    "grow_layer",
    "mirror_double",
    "Bounded1Ket",
    "BoundedSurfaceKet",
    "MockEquivalence",
    "cauchy_schwarz_check",
    "l2_handle_series",
    "lightlike_search",
    "pair",
    "Superposition",
    "Triangulation",
    "classify_surface",
    "HomologyFingerprint",
    "homology_ranks",
    "__version__",
]

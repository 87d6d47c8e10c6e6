"""swarmfit: box-constrained PSO applied to negative-binomial pseudotime regression.

The package exports the names the README's Library section uses; everything
else is imported from its submodule (``pso``, ``model``, ``simulate``,
``bench``).
"""

from .model import build_domain, decode_position, make_objective
from .pso import BoxDomain, SwarmConfig, optimize
from .simulate import generate_dataset, get_setting

__version__ = "0.1.0"

__all__ = [
    "BoxDomain",
    "SwarmConfig",
    "build_domain",
    "decode_position",
    "generate_dataset",
    "get_setting",
    "make_objective",
    "optimize",
]

"""Tunnel splittings of one-dimensional asymmetric double wells.

Semiclassical doublet energies built from the barrier action, evaluated
three ways (closed formula, quadratic level shifts, transcendental
quantization roots) and cross-checked against an exact finite-difference
eigensolver.

Typical use:

    >>> import tunnelkit as tk
    >>> spec = tk.BiasedQuartic(alpha=3.0, a=1.0, beta=0.15)
    >>> analysis = tk.analyze(spec)
    >>> result = tk.compute_splitting(spec, analysis=analysis)
    >>> result.delta_E  # doctest: +SKIP
"""

from . import actions, config, errors, oracle, potentials, quadrature, splitting
from .actions import *
from .config import *
from .errors import *
from .oracle import *
from .potentials import *
from .quadrature import *
from .splitting import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (actions, config, errors, oracle, potentials, quadrature, splitting)
    for name in module.__all__
]

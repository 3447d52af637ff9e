"""Composite Gauss-Legendre quadrature with dyadic panel refinement.

The action integrands used in this package are analytic once the
square-root turning-point behaviour has been removed by substitution,
so fixed-order Gauss-Legendre panels converge geometrically.  Doubling
the panel count until two successive levels agree gives a cheap,
deterministic error control and makes "refine one level further"
directly testable.
"""

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = ["panel_quadrature", "adaptive_quadrature"]

# Gauss-Legendre order per panel, and its nodes and weights on [-1, 1]
_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
_INDEX_CACHE: dict[int, np.ndarray] = {}


def _edges(a: float, b: float, panels: int) -> np.ndarray:
    # np.linspace(a, b, panels + 1) by linspace's own arithmetic, bit for
    # bit, without its per-call overhead.
    try:
        idx = _INDEX_CACHE[panels]
    except KeyError:
        idx = _INDEX_CACHE[panels] = np.arange(panels + 1, dtype=float)
    edges = idx * ((b - a) / panels) + a
    edges[-1] = b
    return edges


def panel_quadrature(f, a: float, b: float, panels: int) -> float:
    """Integrate a vectorized callable over [a, b] with equal GL panels.

    Args:
        f: callable taking an ndarray of abscissae, returning an ndarray.
        a, b: integration limits, a <= b.
        panels: number of equal-width panels, each with 16 nodes.

    Returns:
        The composite quadrature value.
    """
    edges = _edges(a, b, panels)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    # all nodes of all panels in one flat evaluation
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    vals = np.asarray(f(pts), dtype=float).reshape(panels, _ORDER)
    return float(np.sum(half * (vals @ _WEIGHTS)))


def adaptive_quadrature(
    f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-12,
    atol: float = 0.0,
    max_depth: int = 12,
) -> float:
    """Refine panel_quadrature dyadically until two levels agree.

    Depth d uses 2**d panels.  Convergence is declared when successive
    depths differ by at most ``rtol * |I| + atol``; the finer value is
    returned.  Raises QuadratureNonConvergence at ``max_depth``.
    """
    if b < a:
        raise ValueError("adaptive_quadrature needs a <= b")
    if b == a:
        return 0.0
    prev = None
    for depth in range(max_depth + 1):
        val = panel_quadrature(f, a, b, 2**depth)
        if prev is not None and abs(val - prev) <= rtol * abs(val) + atol:
            return val
        prev = val
    raise QuadratureNonConvergence(
        f"quadrature did not settle within depth {max_depth} "
        f"(last two values {prev!r} vs requested rtol {rtol:g})"
    )

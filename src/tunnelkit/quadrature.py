"""Composite Gauss-Legendre quadrature with dyadic panel refinement.

The action integrands used in this package are analytic once the
square-root turning-point behaviour has been removed by substitution,
so fixed-order Gauss-Legendre panels converge geometrically.  Doubling
the panel count until two successive levels agree gives a cheap,
deterministic error control and makes "refine one level further"
directly testable.

``panel_quadrature`` and ``adaptive_quadrature`` integrate one callable.
The barrier-action kernel in ``actions`` refines many integrals at once:
one sample set of the potential per pass, on a (rows x nodes) block,
serves I and dI/dE on both barrier flanks at every energy of a batch,
and each of these components keeps its own stopping depth.
``_panel_nodes`` and ``_panel_sum`` take one right end or an array of
them (one row each), and give every row the bits it gets alone; with
``_unsettled`` and the stopping test of ``_settled`` they let each
component get exactly the value, or the error, that
``adaptive_quadrature`` gives it alone.
"""

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = ["panel_quadrature", "adaptive_quadrature"]

# Gauss-Legendre order per panel, and its nodes and weights on [-1, 1]
_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
_INDEX_CACHE: dict[int, np.ndarray] = {}
# deepest dyadic level: 2**12 panels
_MAX_DEPTH = 12


def _edges(a: float, b, panels: int) -> np.ndarray:
    # np.linspace(a, b, panels + 1) by linspace's own arithmetic, bit for
    # bit, without its per-call overhead.  An array b gives one row of
    # edges per right end.
    try:
        idx = _INDEX_CACHE[panels]
    except KeyError:
        idx = _INDEX_CACHE[panels] = np.arange(panels + 1, dtype=float)
    b = np.asarray(b, dtype=float)
    edges = idx * ((b - a) / panels)[..., None] + a
    edges[..., -1] = b
    return edges


def _panel_nodes(a: float, b, panels: int):
    """All nodes of ``panels`` equal panels on [a, b], flat, and the panel
    half-widths that ``_panel_sum`` weighs the values at those nodes by.

    An array b gives one row of nodes and one of half-widths per right
    end, each equal bit for bit to what that b alone gives.
    """
    edges = _edges(a, b, panels)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    nodes = mid[..., None] + half[..., None] * _NODES
    return nodes.reshape(*half.shape[:-1], panels * _ORDER), half


def _panel_sum(vals: np.ndarray, half: np.ndarray):
    """Composite rule from the values at the nodes of ``_panel_nodes``:
    a float, or one per row of rows of nodes."""
    sums = (half * (vals.reshape(*vals.shape[:-1], -1, _ORDER) @ _WEIGHTS)).sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def _settled(val: float, prev: float | None, rtol: float, atol: float = 0.0) -> bool:
    """Whether two successive depths agree to ``rtol * |val| + atol``."""
    return prev is not None and abs(val - prev) <= rtol * abs(val) + atol


def _unsettled(last: float, rtol: float) -> QuadratureNonConvergence:
    return QuadratureNonConvergence(
        f"quadrature did not settle within depth {_MAX_DEPTH} "
        f"(last two values {last!r} vs requested rtol {rtol:g})"
    )


def panel_quadrature(f, a: float, b: float, panels: int) -> float:
    """Integrate a vectorized callable over [a, b] with equal GL panels.

    Args:
        f: callable taking an ndarray of abscissae, returning an ndarray.
        a, b: integration limits, a <= b.
        panels: number of equal-width panels, each with 16 nodes.

    Returns:
        The composite quadrature value.
    """
    # all nodes of all panels in one flat evaluation
    pts, half = _panel_nodes(a, b, panels)
    return _panel_sum(np.asarray(f(pts), dtype=float), half)


def adaptive_quadrature(
    f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-12,
    atol: float = 0.0,
) -> float:
    """Refine panel_quadrature dyadically until two levels agree.

    Depth d uses 2**d panels.  Convergence is declared when successive
    depths differ by at most ``rtol * |I| + atol``; the finer value is
    returned.  Raises QuadratureNonConvergence past depth _MAX_DEPTH = 12.
    """
    if b < a:
        raise ValueError("adaptive_quadrature needs a <= b")
    if b == a:
        return 0.0
    prev = None
    for depth in range(_MAX_DEPTH + 1):
        val = panel_quadrature(f, a, b, 2**depth)
        if _settled(val, prev, rtol, atol):
            return val
        prev = val
    raise _unsettled(prev, rtol)

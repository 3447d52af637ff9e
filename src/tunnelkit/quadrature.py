"""Composite Gauss-Legendre quadrature with dyadic panel refinement.

The action integrands used in this package are analytic once the
square-root turning-point behaviour has been removed by substitution,
so fixed-order Gauss-Legendre panels converge geometrically.  Doubling
the panel count until two successive levels agree gives a cheap,
deterministic error control and makes "refine one level further"
directly testable.

``panel_quadrature`` and ``adaptive_quadrature`` integrate one callable.
No command calls them; they stay as the action kernel's reference in the
tests and as sites that ``perfbench/tracing.py`` wraps.  The barrier-action
kernel in ``actions`` refines many integrals at once: one sample of the
potential per pass serves I and dI/dE on both barrier flanks at every
energy of a batch, and each component keeps its own stopping depth.
``_panel_nodes`` builds the nodes of a pass of one panel count or of
several (the kernel's first pass takes 1 and 2), and ``_panel_sums``
sums each count, for one right end or an array of them; every row gets
the bits it gets alone.  With ``_unsettled`` and ``_settled``'s test they
give each component exactly what ``adaptive_quadrature`` gives it alone.
"""

import functools

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = ["panel_quadrature", "adaptive_quadrature"]

# Gauss-Legendre order per panel, and its nodes and weights on [-1, 1]
_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
# deepest dyadic level: 2**12 panels
_MAX_DEPTH = 12


@functools.cache
def _tables(counts: tuple[int, ...]):
    # Edge j of a count is j * ((b - a) / count) + a.  For the left and
    # then the right edges of all panels: the count and j; then the
    # number of panels, and the right edges that are b itself.
    per = np.repeat(np.array(counts, dtype=float), counts)
    left = np.concatenate([np.arange(count, dtype=float) for count in counts])
    ends = left.size + np.cumsum(counts) - 1
    return np.tile(per, 2), np.concatenate([left, left + 1.0]), left.size, ends


def _panel_nodes(a: float, b, counts: tuple[int, ...]):
    """The nodes of ``count`` equal panels on [a, b] for each count, flat
    and in the order of counts, and the panel half-widths that
    ``_panel_sums`` weighs their values by.

    The edges are np.linspace(a, b, count + 1) by linspace's own
    arithmetic, bit for bit, without its per-call overhead.  An array b
    gives one row of nodes and half-widths per right end, each equal bit
    for bit to what that b alone gives.
    """
    per, index, panels, ends = _tables(counts)
    b = np.asarray(b, dtype=float)[..., None]
    width = b - a
    step = width / per
    edges = index * step
    if np.count_nonzero(step) < step.size:
        # where the step underflows to 0, linspace scales j / count instead
        edges = np.where(step == 0, index / per * width, edges)
    edges += a
    edges[..., ends] = b
    lo, hi = edges[..., :panels], edges[..., panels:]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[..., None] + half[..., None] * _NODES
    return nodes.reshape(*half.shape[:-1], panels * _ORDER), half


def _panel_sums(vals: np.ndarray, half: np.ndarray, counts: tuple[int, ...]):
    """The composite rule of each count from the values at the nodes of
    ``_panel_nodes``, one entry per count: a sum, or one per row of rows
    of nodes.  Each count takes its own product with the weights, since
    one product over all counts moves bits."""
    sums, start = [], 0
    for count in counts:
        stop = start + count
        panels = vals[..., start * _ORDER:stop * _ORDER].reshape(*vals.shape[:-1], count, _ORDER)
        sums.append((half[..., start:stop] * (panels @ _WEIGHTS)).sum(axis=-1))
        start = stop
    return sums


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
    pts, half = _panel_nodes(a, b, (panels,))
    return float(_panel_sums(np.asarray(f(pts), dtype=float), half, (panels,))[0])


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

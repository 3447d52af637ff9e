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
``_unit_nodes`` caches the nodes on [0, 1] of a pass of one panel count
or of several (the kernel's first pass takes 1 and 2), which
``_panel_nodes`` and the kernel scale to their intervals, and
``_panel_sums`` sums each count, for one right end or an array of them;
every row gets the bits it gets alone.  With ``_unsettled`` and
``_settled``'s test they give each component exactly what
``adaptive_quadrature`` gives it alone.

The 16-point Gauss-Legendre table is written out, as numpy's leggauss(16)
gives it bit for bit on numpy 2.4.6, so that building it needs neither
numpy.polynomial, nine modules that no command otherwise imports, nor the
LAPACK eigensolver leggauss calls, whose last bits may follow the wheel.
"""

import functools

import numpy as np

from .errors import QuadratureNonConvergence

__all__ = ["panel_quadrature", "adaptive_quadrature"]

# Gauss-Legendre order per panel, and its nodes and weights on [-1, 1]:
# the positive nodes, ascending, and their weights; leggauss(16)'s table
# is exactly symmetric, so the other eight are their exact negations and
# mirror images
_ORDER = 16
_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
_NODES = np.array([-x for x in _HALF_NODES[::-1]] + list(_HALF_NODES))
_WEIGHTS = np.array(_HALF_WEIGHTS[::-1] + _HALF_WEIGHTS)
# deepest dyadic level: 2**12 panels
_MAX_DEPTH = 12


@functools.cache
def _unit_nodes(counts: tuple[int, ...]) -> np.ndarray:
    # node i of panel j of each count's equal panels on [0, 1] is
    # (j + (1 + x_i) / 2) / count, flat and in the order of counts
    return np.concatenate([((np.arange(c)[:, None] + 0.5 * (_NODES + 1.0)) / c).ravel() for c in counts])


def _panel_nodes(a: float, b, counts: tuple[int, ...]):
    """The nodes of ``count`` equal panels on [a, b] for each count, flat
    and in the order of counts: a + (b - a) * U, with U their nodes on
    [0, 1]; and the width b - a that ``_panel_sums`` scales their sums by.
    An array b gives one row of nodes and one width per right end, each
    equal bit for bit to what that b alone gives.
    """
    width = np.asarray(b, dtype=float) - a
    return a + width[..., None] * _unit_nodes(counts), width


def _panel_sums(vals: np.ndarray, width, counts: tuple[int, ...]):
    """The composite rule of each count from the values at the nodes of
    ``_panel_nodes`` and its width, one entry per count: a sum, or one
    per row of rows of nodes.  Each count's weighted panel sum is scaled
    once, by width / (2 count), and takes its own product with the
    weights, since one product over all counts moves bits.  One or two
    panels are summed by indexing, in the order of numpy's sum, which
    starts from +0.0."""
    sums, start = [], 0
    for count in counts:
        stop = start + count * _ORDER
        panels = vals[..., start:stop].reshape(*vals.shape[:-1], count, _ORDER) @ _WEIGHTS
        if count == 1:
            total = 0.0 + panels[..., 0]
        elif count == 2:
            total = 0.0 + panels[..., 0] + panels[..., 1]
        else:
            total = panels.sum(axis=-1)
        sums.append(total * (width / (2 * count)))
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
    pts, width = _panel_nodes(a, b, (panels,))
    return float(_panel_sums(np.asarray(f(pts), dtype=float), width, (panels,))[0])


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

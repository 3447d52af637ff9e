"""Fixed reference kernels that gauge how fast the host runs right now.

    python3 perfbench/reference.py {python,lapack}

``Reference`` starts this file as a process of its own, on the caller's
core.  It never imports tunnelkit, so no change to the package can change
its time.  Once warmed up it prints ``ready``; then each line read on
stdin, a repeat count n, runs the kernel n times and answers with the
seconds that took.  The two processes take turns, never run at once.

On a shared host the same work can run up to twice as slow for minutes at
a time (see README.md).  Each kernel does the kind of work one workload
spends its time on, so it slows down with it, and the benchmark scales
every time it reports by ``NOMINAL_S`` over the kernel's time next to it:

* ``python``: root finding with scipy's ``brentq`` on Python callbacks and
  24-node Gauss-Legendre sums on small numpy arrays, as in the action and
  root-solve path of ``wells`` and ``bias_sweep`` (and in set-up, which
  is mostly Python importing modules);
* ``lapack``: the two lowest eigenvalues of finite-difference
  Hamiltonians of 8001 and 16001 points with ``eigh_tridiagonal``, as in
  the eigensolver that is most of ``oracle``.

``NOMINAL_S`` is each kernel's time on the host of the first results in
its fast state.  numpy and scipy are imported only in the kernel process,
so importing this module costs the caller nothing.
"""

import os
import subprocess
import sys
import time

NOMINAL_S = {"python": 0.0150, "lapack": 0.0190}


class Reference:
    """A kernel process, timed on request; use as a context manager."""

    def __init__(self, kind, passes):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), kind],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.passes = passes
        self.nominal = passes * NOMINAL_S[kind]
        self._read()  # "ready", once the kernel has warmed up

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited {self.proc.wait()}")
        return line

    def time(self):
        """Seconds the kernel takes for ``passes`` passes, now."""
        self.proc.stdin.write(f"{self.passes}\n")
        self.proc.stdin.flush()
        return float(self._read())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _kernels():
    import numpy as np
    from scipy.linalg import eigh_tridiagonal
    from scipy.optimize import brentq

    nodes, weights = np.polynomial.legendre.leggauss(24)

    def python_kernel():
        total = 0.0
        for k in range(160):
            e = 0.1 + 0.004 * k

            def v(x, e=e):
                return (x * x - 1.0) ** 2 + 0.05 * x - e

            a = brentq(v, -2.0, -1.0)
            b = brentq(v, -1.0, 0.0)
            for p in range(8):
                lo = a + (b - a) * p / 8
                hi = lo + (b - a) / 8
                x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
                y = np.sqrt(np.maximum(-v(x), 0.0))
                total += 0.5 * (hi - lo) * float(weights @ y)
        return total

    def hamiltonian(n):
        x = np.linspace(-3.0, 3.0, n)
        h = x[1] - x[0]
        diag = 1.0 / (h * h) + 2.0 * (x * x - 1.0) ** 2
        return diag, np.full(n - 1, -0.5 / (h * h))

    grids = [hamiltonian(n) for n in (8001, 16001)]

    def lapack_kernel():
        return [eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 1)) for d, e in grids]

    return {"python": python_kernel, "lapack": lapack_kernel}


def main():
    kernel = _kernels()[sys.argv[1]]
    kernel()  # warm-up
    print("ready", flush=True)
    for line in sys.stdin:
        n = int(line)
        t0 = time.perf_counter()
        for _ in range(n):
            kernel()
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()

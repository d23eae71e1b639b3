"""A fixed reference computation that gauges how fast the host runs now.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts: the same job takes up to 1.6 times as long in one
stretch of minutes as in another, in CPU time as much as in wall time.
That drift moves every workload together, so timing a fixed computation
between the jobs of a run measures it.  ``run.py`` divides each run's
times by the reference's mean time in that run and multiplies by
``NOMINAL_S``, which turns them into seconds at one fixed host speed.

The reference calls no finlap code, so a change to finlap moves the scaled
times in full.  It mixes the three kinds of work finlap's workloads do: an
interpreter loop, many numpy calls on small arrays, and a sparse LU
factorisation with solves on a 128 x 128 grid.  The sparse part tracks the
drift best, and it needs more memory than some workloads' jobs, so the
reference runs in a child process of its own: it leaves the benchmark's
peak resident memory alone.  The child runs only while the benchmark waits
for it, so the two never compete for the cores.

    python3 perfbench/reference.py     # one line in, one time out, until EOF
"""

import statistics
import subprocess
import sys
import time

# a unit: about the reference's mean seconds on a shared 2-vCPU KVM guest
# (Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread), so
# that scaled seconds read close to wall seconds there
NOMINAL_S = 0.14
GRID = 128
LOOP_N = 300_000
SMALL_CALLS = 3000
SOLVES = 10
STOP_TIMEOUT_S = 60


class Reference:
    """The reference, in a child process started here; use it in a ``with``
    block, which stops the child and waits for it."""

    def __init__(self):
        self.seconds = []
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference process did not start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self):
        """Time the reference once and keep the time."""
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        self.seconds.append(float(self.proc.stdout.readline()))

    def scale(self):
        """Factor from this run's seconds to seconds at the nominal speed."""
        return NOMINAL_S / statistics.fmean(self.seconds)


def serve():
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
    eye = sp.identity(GRID)
    matrix = (sp.kron(eye, line) + sp.kron(line, eye) + 0.1 * sp.identity(GRID * GRID)).tocsc()
    rhs = np.ones(GRID * GRID)
    x = np.linspace(0.0, 1.0, 64)
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        s = 0.0
        for i in range(LOOP_N):
            s += i * 0.5
        for i in range(SMALL_CALLS):
            s += float((np.sin(x + i) * np.cos(x)).sum())
        lu = spla.splu(matrix)
        for _ in range(SOLVES):
            lu.solve(rhs)
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    serve()

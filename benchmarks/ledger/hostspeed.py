"""A probe of how fast the host runs right now, owned by the benchmark.

The 2-core hosts the ledger runs on are shared: for minutes at a time every
kind of code runs 15-50% slower (CPU time rises with wall time, so it is the
core, not the scheduler), which put the spread of a 10-second timing between
ten runs at 10-25% and moved the median of ten runs by 17-25% from one
half-hour to the next.  Such an era slows an interpreter loop, a BLAS product
and a sparse product much as it slows the program, so each run samples this
probe between its ops and divides its timings by ``slowdown ** SENSITIVITY``:
a slowdown of 1.0 is the speed of the host ``NOMINAL_S`` was measured on, 1.2
is a host (or an era) 20% slower.  README.md has the numbers behind the
exponent; the op-to-op spikes that remain are what the median over ops is for.

The probe uses numpy/scipy and the interpreter only — nothing of ``repro`` —
so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

__all__ = ["NOMINAL_S", "SENSITIVITY", "HostProbe"]

#: seconds each part takes on a quiet reference host (lower quartile of 1032
#: samples on the 2-core 2.1 GHz Xeon of ``results/BENCH_11.json``, one BLAS
#: thread)
NOMINAL_S = {"python": 0.00500, "blas": 0.00630, "memory": 0.00560}

#: How much of the probe's slowdown a timing is corrected for.  The few dozen
#: samples of a run estimate the slowdown with an error of their own, and
#: dividing by all of it over-corrects: over three sessions of ten runs (quiet,
#: busy, quiet; slowdown 1.0-1.9) the medians of the six workloads moved by up
#: to 26% uncorrected, up to 10% at exponent 1 and up to 8% at 0.75.
SENSITIVITY = 0.75


class HostProbe:
    """Three fixed micro-workloads in the program's mix: interpreter-bound,
    BLAS-bound and memory-bound (sparse product, unique, row gather)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        n, degree = 8000, 12
        # built from index arrays: ``scipy.sparse.random`` draws from all n*n
        # cells and would put 500 MiB into the workload's ``peak_rss_mb``
        self._sparse = sp.csr_matrix(
            (
                rng.standard_normal(n * degree),
                (np.repeat(np.arange(n), degree), rng.integers(0, n, size=n * degree)),
            ),
            shape=(n, n),
        )
        self._dense = rng.standard_normal((n, 32))
        self._square = rng.standard_normal((400, 400))
        self._index = rng.integers(0, n, size=60000)
        #: one slowdown sample per :meth:`sample` call
        self.samples: list[float] = []

    def _python(self) -> None:
        total = 0
        seen = {}
        for i in range(50000):
            total += i * i % 7
            if i % 3 == 0:
                seen[i] = total

    def _blas(self) -> None:
        for _ in range(3):
            np.matmul(self._square, self._square)

    def _memory(self) -> None:
        product = self._sparse @ self._dense
        np.unique(self._index)
        product[self._index[:20000]].sum()

    def sample(self, count: int = 1) -> None:
        """Take ``count`` slowdown samples (about 17 ms each)."""
        parts = {"python": self._python, "blas": self._blas, "memory": self._memory}
        for _ in range(count):
            ratios = []
            for name, part in parts.items():
                t0 = time.perf_counter()
                part()
                ratios.append((time.perf_counter() - t0) / NOMINAL_S[name])
            self.samples.append(sum(ratios) / len(ratios))

    def slowdown(self) -> float:
        """Mean slowdown over the samples taken so far.

        The mean, not the median: a neighbour that is busy half of the time
        makes the samples bimodal (1.05 or 1.5), and an op's wall clock
        follows the share of slow samples, which a median cannot see.
        """
        return statistics.fmean(self.samples)

    def correction(self) -> float:
        """What a timing of this run is divided by."""
        return self.slowdown() ** SENSITIVITY

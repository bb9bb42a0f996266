"""A fixed reference computation that measures how fast the machine runs right now.

The machine's speed drifts by up to a factor of two over seconds and minutes
(other tenants share its cores), and that drift, not conify, set most of the
run-to-run spread of plain wall times.  A run therefore interleaves short
slices of this reference work with its jobs and scales every time it reports
by REFERENCE_SLICE_S / (mean time of the slices around it).  The reported
times read as the times the same jobs would take on the machine at its
reference speed.

The reference work imitates conify's inner loops: a sparse product of two
polynomials held as dicts from exponent tuples to Fractions, and a small
Gaussian elimination over the rationals.  It uses only the standard library and the
benchmark's own exact.py, so no change to conify can move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import exact

# The slice time that defines the reference speed: about the median slice
# time inside runs on the reference machine (2.1 GHz Xeon, Python 3.11.7).
REFERENCE_SLICE_S = 0.0020
# Slices on each side of a job that set its speed factor.
WINDOW = 4


def _poly(seed: int) -> dict[tuple[int, int, int], Fraction]:
    return {(i, j, (i * j + seed) % 3): Fraction((i * 7 + j * 3 + seed) % 11 - 5, (i + j) % 4 + 1)
            for i in range(5) for j in range(5) if (i + 2 * j + seed) % 3}


_FACTORS = [_poly(s) for s in range(2)]


def _product(a, b):
    out: dict[tuple[int, int, int], Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def reference_work() -> int:
    """One slice of fixed work; returns a checksum so nothing is optimised away."""
    p = _product(_FACTORS[0], _FACTORS[1])
    monos = sorted(p)
    rows = [[p[m] * (k + 1) + Fraction(k, m[0] + 1) for m in monos[k:k + 5]] for k in range(0, 20, 5)]
    return len(p) + exact.rank(rows)


class Calibrator:
    """Slices of reference work spread through a run, and the speed factor they give."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        reference_work()  # the first slice of a process runs cold; keep it out

    def measure(self) -> None:
        # The collector stays off inside a slice: a collection there would bill
        # the slice for conify's garbage and tie the factor to conify's heap.
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work()
            self.slices.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def factor(self, at: int) -> float:
        """Multiply a time measured just before slice `at` by this to read it at
        the reference speed.  The WINDOW slices on each side, a few tenths of a
        second of job time, follow the machine's swings, which one mean over the
        run does not: it left a 10% run-to-run spread in the tail latency."""
        window = self.slices[max(0, at - WINDOW):at + WINDOW]
        return REFERENCE_SLICE_S * len(window) / sum(window)

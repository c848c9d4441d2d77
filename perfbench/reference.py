"""A fixed reference workload, timed beside every job of an untraced run.

The benchmark runs on shared virtual machines whose speed drifts by 40% or
more within a minute (the same job takes 70 ms in one stretch and 100 ms in
the next).  Dividing each job's time by the time of this kernel, run just
before and just after it, cancels most of that drift: the gated job metrics
are such ratios.  The kernel never calls the program, so a change to the
program moves only the numerator.

Different code slows by different amounts when the machine slows (in one
slow stretch Python arithmetic took 83% longer and an ``mcrb_miller8_40k``
job 44%), so the kernel is built from parts that imitate the program's
operations, and each workload runs them in the proportions of its own work:

- ``python``: Python float arithmetic and string formatting (``bounds`` and
  ``write_csv``);
- ``small_arrays``: many NumPy calls on 256-element arrays (the estimator's
  refinement loop);
- ``frame``: random normals, complex products and a matrix-vector product
  over a 4,096-sample array (AWGN and modulation wipe-off);
- ``periodogram``: a matrix of complex exponentials times a vector.

Its arrays stay far smaller than one frame of ``mcrb_miller8_40k``, so it
adds about 1 MB to the peak memory the benchmark reports.
"""

from __future__ import annotations

import math
import time

import numpy as np

FRAME = 4_096      # samples of the frame-sized arrays
FREQS = 8          # rows of the complex-exponential matrix
PYTHON_STEPS = 1_000
SMALL_CALLS = 100

PARTS = ("python", "small_arrays", "frame", "periodogram")


class ReferenceKernel:
    """The reference kernel; each call returns (wall seconds, process CPU seconds).

    ``recipe`` maps each part to how many times one call runs it.
    """

    def __init__(self, recipe: dict) -> None:
        unknown = set(recipe) - set(PARTS)
        if unknown:
            raise ValueError(f"unknown reference parts {sorted(unknown)}")
        self.recipe = dict(recipe)
        rng = np.random.default_rng(0)
        self._carrier = np.exp(2j * np.pi * 0.01 * np.arange(FRAME))
        self._bank = rng.standard_normal((4, FRAME))
        self._small = rng.standard_normal(256)
        self._freqs = np.linspace(-200.0, 200.0, FREQS)
        self._times = np.arange(FRAME) / 1.28e6
        self.checksum = self._work()    # warms caches; every call must repeat it

    def _python(self) -> float:
        parts = []
        acc = 0.0
        for k in range(1, PYTHON_STEPS + 1):
            v = k * 1e-3
            acc += math.erf(v) * math.sqrt(v) + math.log1p(v)
            parts.append(f"{acc:.6g}")
        return float(len(",".join(parts)))

    def _small_arrays(self) -> float:
        total = 0.0
        for k in range(SMALL_CALLS):
            total += float(np.abs(np.cos(self._small * (1.0 + 1e-3 * k))).max())
        return total

    def _frame(self, rng) -> float:
        noise = rng.standard_normal(FRAME) + 1j * rng.standard_normal(FRAME)
        return float(np.abs(self._bank @ (noise * self._carrier).real).sum())

    def _periodogram(self) -> float:
        phase = np.exp(2j * np.pi * np.outer(self._freqs, self._times))
        return float((np.abs(phase @ self._carrier) ** 2).sum())

    def _work(self) -> float:
        rng = np.random.default_rng(1)
        total = 0.0
        for _ in range(self.recipe.get("python", 0)):
            total += self._python()
        for _ in range(self.recipe.get("small_arrays", 0)):
            total += self._small_arrays()
        for _ in range(self.recipe.get("frame", 0)):
            total += self._frame(rng)
        for _ in range(self.recipe.get("periodogram", 0)):
            total += self._periodogram()
        return total

    def __call__(self) -> tuple:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = self._work()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if result != self.checksum:
            raise RuntimeError("the reference kernel gave another result than on its first call")
        return wall, cpu

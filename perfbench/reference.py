"""Fixed reference computations, timed next to every benchmark step.

The benchmark's machine is shared: the speed of one core drifts by tens of
percent over seconds to minutes as other jobs come and go, and that drift
would swamp the differences between two versions of statelift.  Before each
step the benchmark times two fixed computations:

- ``compute``: small dense Hermitian eigensolves and parsing float text,
  the two kinds of work most of statelift's verbs do;
- ``memory``: filling a fresh 16 MB complex array and multiplying it by a
  thin matrix, the kind of work that dominates a step building dense arrays
  of that size or more (``random_perturbation`` at composite dimension 32
  and above), whose speed follows page faults and memory traffic rather
  than core speed.

A step's time is scaled by the typical time of its kind of reference over
the local median of that reference's timings.  The scaled time is the
step's time on this machine at its typical speed.  The raw times are kept
in the result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median reference times on the 2-core machine the bounds were set on.
TYPICAL_S = {"compute": 0.017, "memory": 0.014}
# A step is scaled by the reference timings taken within this many seconds
# of it: long enough to hold several timings around a short step, short
# enough to follow the drift over a long one.
WINDOW_S = 0.5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.matrix = g + g.conj().T
        self.lines = [f"{x:.17g} {y:.17g}" for x, y in rng.standard_normal((4000, 2))]
        self.thin = rng.standard_normal((1024, 32))

    def seconds(self) -> dict:
        """Time each reference computation once: {kind: seconds}."""
        start = time.perf_counter()
        for _ in range(20):
            np.linalg.eigvalsh(self.matrix)
        [complex(float(re), float(im)) for re, im in (ln.split() for ln in self.lines)]
        middle = time.perf_counter()
        fresh = np.empty((1024, 1024), complex)
        fresh.real[:] = 1.0
        fresh.imag[:] = 0.5
        fresh @ self.thin
        return {"compute": middle - start, "memory": time.perf_counter() - middle}


def scale(seconds, refs, kind) -> float:
    """``seconds`` measured where the reference timings ``refs`` were taken."""
    return seconds * TYPICAL_S[kind] / statistics.median(r[kind] for r in refs)


def scale_steps(starts, times, ref_starts, refs, kinds) -> list:
    """Scaled step times.  Step j started at ``starts[j]`` right after
    reference timing j and is of kind ``kinds[j]``; it is scaled by the
    timings that started within WINDOW_S of the step, which always include
    the ones just before and after it."""
    out = []
    for j, (start, seconds, kind) in enumerate(zip(starts, times, kinds)):
        near = {i for i, at in enumerate(ref_starts)
                if start - WINDOW_S <= at <= start + seconds + WINDOW_S}
        near |= {i for i in (j, j + 1) if i < len(refs)}
        out.append(scale(seconds, [refs[i] for i in sorted(near)], kind))
    return out

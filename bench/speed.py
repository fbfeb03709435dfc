"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same pass can take 1.4 s or 3.7 s. The host slows
the whole process for seconds to minutes at a time, and process CPU time
tracks wall time, so the slowdown is not preemption. A median over a run
cannot remove a slowdown that lasts longer than the run.

So one run of this kernel is timed just before every timed pass and just
after every set-up. The measured time is multiplied by
``NOMINAL_S / kernel time``, which turns it into seconds at the reference
speed: the kernel's median on the machine where the baseline was taken.
Over 30 s windows of one process this steadied the pass times from an
11-30 % quartile spread to 2-5 %.

The kernel uses numpy and scipy only, never msqglab, so a change to the
package cannot change it. It mixes, in about equal parts, the three kinds of
arithmetic the workloads spend their time in:

- DST-I/DCT-I transforms along 512-point axes, like the spectral layer;
- whole-array powers, products and sums on 128 x 128 grids, like the
  quadrature;
- a Python loop of sin/cos and 128 x 128 mat-vec products, like trajectory
  sampling.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import fft

# median of ReferenceKernel().time() on the baseline machine (2-core sandbox
# VM, numpy 2.4.6, scipy 1.17.1, one thread)
NOMINAL_S = 0.23


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.coeffs = rng.standard_normal((256, 256))
        self.grid = rng.standard_normal((511, 511))
        self.dist = rng.random((128, 128)) + 0.5
        self.weight = rng.standard_normal((128, 128))
        self.matrix = rng.standard_normal((128, 128))
        self.modes = np.arange(1.0, 129.0)

    def time(self) -> float:
        """Wall seconds of one run of the kernel."""
        t0 = perf_counter()
        for _ in range(6):
            fft.dst(np.pad(self.coeffs, ((0, 255), (0, 0))), type=1, axis=0, workers=1)
            fft.dct(np.pad(self.coeffs, ((1, 256), (0, 0))), type=1, axis=0, workers=1)
            fft.dstn(self.grid, type=1, workers=1)
        d, w = self.dist, self.weight
        for _ in range(320):
            float(np.sum((d ** -1.5 * (d - 0.3) - (d + 0.2) ** -1.5) * w))
        m = self.matrix
        for i in range(3200):
            s = np.sin(self.modes * (1e-3 * i))
            c = np.cos(self.modes * (1e-3 * i))
            np.array([s @ m @ c, c @ m @ s])
        return perf_counter() - t0

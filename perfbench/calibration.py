"""Machine-speed calibration: fixed loops that never call the package.

The benchmark runs on a shared host whose speed drifts: the same op can take
1.5 times as long for tens of seconds while another tenant is busy. Timing a
fixed loop next to every op measures that drift. The benchmark then reports
each time at the reference speed, the speed at which the loop takes
``REFERENCE_MS``:

    time at reference speed = measured time * REFERENCE_MS / loop time

The loops are the benchmark's own code, so a change to the package moves the
reported times one for one; only the host's speed divides out. Interpreter
code and memory-bound numpy code slow down by different factors, so each
workload is calibrated by loops of its own kind (``KIND``).
"""

import time

import numpy as np

_arrays = {}


def _array(size):
    """A fixed random array, made on first use so that only loops in use cost memory."""
    if size not in _arrays:
        _arrays[size] = np.random.default_rng(size).random(size)
    return _arrays[size]


def python_loop():
    """Integer arithmetic and dict stores: the interpreter's own work."""
    s = 0
    d = {}
    for i in range(30_000):
        s += (i * 7) % 13
        d[i & 255] = s
    return s


def numpy_small():
    """Many numpy calls on a 64-element array: per-call dispatch overhead."""
    a = y = _array(64)
    for _ in range(1_500):
        y = 0.8 * (1.0 - y[::-1]) * (1.0 - a)
    return y


def numpy_mid():
    """Elementwise passes over 0.8 MB arrays, the size of a 1e5-unknown chain."""
    a = y = _array(100_000)
    for _ in range(20):
        y = 0.8 * (1.0 - y) * (1.0 - a)
    return y


def numpy_large():
    """Elementwise passes over 8 MB arrays, the size of a 1e6-unknown chain."""
    a = y = _array(1_000_000)
    for _ in range(4):
        y = 0.8 * (1.0 - y) * (1.0 - a)
    return y


LOOPS = {
    # the Python slot loop, small Newton solves and the drivers around them,
    # and the dense oracle; without numpy_mid the per-cycle 90th percentile
    # varied about twice as much
    "interpreter": (python_loop, numpy_small, numpy_mid),
    # Newton solves on chains of 1e5 to 1e6 unknowns
    "memory": (numpy_mid, numpy_large),
}
KIND = {"big_chain": "memory", "optimize_fit": "interpreter", "oracle_sim": "interpreter"}
# round figures near the loops' time on the 2-vCPU host of
# perfbench/baseline.json; fixed, so that reported times compare across runs
# and commits
REFERENCE_MS = {"interpreter": 20.0, "memory": 25.0}
# Set-up (interpreter start, imports, warm-up op) is calibrated by a whole
# process instead: perfbench/run.py times `python -c "import numpy"` before and
# after every workload process. Its reference time, in seconds:
STARTUP_REFERENCE_S = 0.15


class Calibration:
    """Times the calibration loops of one kind and keeps every sample (ms)."""

    def __init__(self, kind):
        self.loops = LOOPS[kind]
        self.reference_ms = REFERENCE_MS[kind]
        self.samples = []
        for loop in self.loops:  # first calls allocate and fill caches
            loop()

    def sample(self):
        t0 = time.perf_counter()
        for loop in self.loops:
            loop()
        ms = (time.perf_counter() - t0) * 1e3
        self.samples.append(ms)
        return ms

    def scale(self, before_ms, after_ms):
        """Factor from a time measured between two samples to reference speed."""
        return self.reference_ms / (0.5 * (before_ms + after_ms))

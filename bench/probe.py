"""Host-speed sampler: times a fixed piece of work on a background thread
while the operations run, so the calibrated metrics can divide each
operation's time by the speed of the host during it.

On a shared host the speed of a core drifts by up to 1.6 times over
minutes and flickers within a second, so raw seconds measure how busy the
host was about as much as they measure the program; a probe run only
between operations misses the flicker inside them.  The piece is a
recursive expression-tree evaluation over a small dual-number class in
pure Python, the kind of work conjscope's scalar module does, but it does
not touch conjscope: a change to conjscope shows in the calibrated metrics
in full.  The sampler runs the piece every PERIOD seconds; the piece takes
a fraction of a millisecond, well inside the interpreter's switch
interval, so it runs in one go and is timed whole.

A single-threaded operation is pinned with the sampler to one CPU while it
is measured, so the piece runs on the CPU the operation runs on.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time

PERIOD = 0.02
POINTS = 20


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b=0.0):
        self.a, self.b = a, b

    def __add__(self, other):
        if type(other) is _Dual:
            return _Dual(self.a + other.a, self.b + other.b)
        return _Dual(self.a + other, self.b)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is _Dual:
            return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return _Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def sin(self):
        return _Dual(math.sin(self.a), math.cos(self.a) * self.b)


# (op, left, right) tuples, variable names and constants
TREE = ("+", ("*", ("+", "x", 1.5), ("sin", ("*", "x", "y"))),
        ("*", ("+", ("*", "y", "y"), -0.25), ("sin", ("+", "x", ("*", 0.5, "y")))))


def _eval(node, env):
    if type(node) is str:
        return env[node]
    if type(node) is float:
        return node
    if node[0] == "+":
        return _eval(node[1], env) + _eval(node[2], env)
    if node[0] == "*":
        return _eval(node[1], env) * _eval(node[2], env)
    arg = _eval(node[1], env)
    return arg.sin() if type(arg) is _Dual else math.sin(arg)


def piece():
    """Seconds the piece takes now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(POINTS):
        total += _eval(TREE, {"x": _Dual(1e-3 * i, 1.0), "y": 0.7}).b
    if not math.isfinite(total):
        raise RuntimeError("host-speed piece failed")
    return time.perf_counter() - t0


class Sampler:
    """Context manager that runs ``piece`` every PERIOD seconds on a
    background thread; ``mean(t0, t1)`` is the mean time of the pieces that
    started between two ``time.perf_counter`` readings."""

    def __init__(self, pin):
        self.pin = pin
        self.starts, self.seconds = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-speed-sampler")
        self._affinity = None

    def _sample(self):
        start = time.perf_counter()
        self.seconds.append(piece())
        self.starts.append(start)

    def _loop(self):
        while not self._stop.wait(PERIOD):
            self._sample()

    def __enter__(self):
        if self.pin:
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._affinity)})
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def mean(self, t0, t1):
        """Mean piece time over [t0, t1]; the latest piece before t1 when
        none started inside it."""
        count = min(len(self.starts), len(self.seconds))
        starts = self.starts[:count]
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        if hi <= lo:
            return self.seconds[max(hi - 1, 0)]
        window = self.seconds[lo:hi]
        return sum(window) / len(window)

"""Host-speed calibration: a fixed unit of work run after each timed job.

On a shared host the same code runs at different speeds from one moment to
the next.  On the 2-vCPU virtual machine the reference figures come from, a
fixed loop ran at speeds up to 2x apart, changing within a second and also
in phases of a minute or more; process CPU time tracks wall time, so CPU
time does not remove it, and the two vCPUs change independently, so a meter
on the other one does not see it.  Whole runs land fast or slow.

A ``HostClock`` therefore runs a fixed calibration unit right after each
timed job, on the same CPU, for a set share of the job's time.  A slot's
slowdown is its mean unit time over ``REF_UNIT_S``; ``follow`` returns
those of the slots just before and just after the job, and dividing the
job's time by their mean gives its time at the reference speed.  In a
7-minute record of interleaved jobs and units on that host, dividing each
job by the slowdown of the units after it cut the spread of single-pass
totals from 0.12-0.30 to 0.05-0.12.

The unit mixes the kinds of work the workloads do: an interpreted loop with
dict stores, arithmetic on small Python objects, a small non-symmetric
eigensolve, a dense inverse and a matrix product.  It does not touch
qqwalk, so a change to the program leaves it alone.
"""

import time

import numpy as np

# Seconds one unit takes at the reference speed: the fast state of the
# 2-vCPU x86_64 host of README.md's reference figures, one BLAS thread.
# Only ratios between runs matter; the constant keeps the reported values
# in seconds of that host.
REF_UNIT_S = 0.0095

# Calibration time run after a job, as a share of the job's time.
SHARE = 0.4


class _Quat:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __add__(self, o):
        return _Quat(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __mul__(self, o):
        return _Quat(self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
                     self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c,
                     self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b,
                     self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a)


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(20160419)
        self._eig = rng.standard_normal((96, 96))
        self._inv = rng.standard_normal((200, 200)) + 20.0 * np.eye(200)
        self._mm = rng.standard_normal((400, 400))
        self._quats = [_Quat(*map(float, row)) for row in rng.standard_normal((64, 4))]
        self._last = None

    def _unit(self):
        table, acc = {}, 0
        for i in range(8000):
            table[i % 97] = acc
            acc += i * i % 7
        total = _Quat(0.0, 0.0, 0.0, 0.0)
        for _ in range(8):
            for x, y in zip(self._quats, self._quats[1:]):
                total = total + x * y
        np.linalg.eigvals(self._eig)
        np.linalg.inv(self._inv)
        self._mm @ self._mm

    def follow(self, busy_s):
        """Run units until they have taken ``SHARE * busy_s``, at least one;
        returns the slowdown of the slot before the job (this one when there
        was none) and of this one: mean unit time over ``REF_UNIT_S``."""
        spent, units = 0.0, 0
        while spent < SHARE * busy_s or not units:
            start = time.perf_counter()
            self._unit()
            spent += time.perf_counter() - start
            units += 1
        before, self._last = self._last, spent / units / REF_UNIT_S
        return (self._last if before is None else before), self._last

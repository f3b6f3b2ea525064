"""Times at reference speed: CPU time scaled by a speed gauge.

This machine's speed drifts: the same ``converge`` operation takes
from 1.1 s to 1.8 s from one repetition to the next, and a fixed
pure-Python loop switches between two speeds 1.7 times apart within a
second. CPU time tracks wall time, so the drift is the host's (clock and
shared-core contention), not preemption.

``Gauge`` samples that speed while an operation runs: a SIGALRM timer
every PERIOD_S interrupts the main thread between bytecodes, and the
handler times GAUGE_STEPS steps of a small pure-Python loop after
WARM_STEPS untimed ones. The gauge also samples once when it starts
and once when it stops, so an operation shorter than PERIOD_S still
has two samples. The operation's
time at reference speed is

    (CPU s of the operation - CPU s of the handler) * REFERENCE_S / mean sample CPU s

which reads as the CPU seconds it would take on a machine where one
sample takes REFERENCE_S. It moves with the program's own cost, since
the gauge runs no symplevy code and warms its own cache before timing;
the handler costs about 2% of the CPU time, which is taken out of it.
"""

import signal
import time

PERIOD_S = 0.02
WARM_STEPS = 200
GAUGE_STEPS = 600
# median CPU s of one sample on the reference machine (see README.md)
REFERENCE_S = 2.5e-4

_TABLE = [float(k) for k in range(256)]


class _Point:
    __slots__ = ("p", "q")


_POINT = _Point()
_POINT.p, _POINT.q = 0.0, 1.0


def _kick(point, k, a):
    p = point.p - a * point.q + _TABLE[k] * 1e-15
    point.p = p
    point.q = point.q + a * p


def sample_s():
    """CPU seconds of GAUGE_STEPS symplectic Euler steps of a rotation.

    A step mixes what the program's inner loops do: a call, slot reads
    and writes, float and integer arithmetic and a table lookup. The
    WARM_STEPS untimed steps first bring the loop's code and its 8 KiB
    of data back into cache, so a sample's cost does not depend on what
    the program left there; nor on what it left on the heap, since a
    step allocates nothing the garbage collector tracks. The time is the
    main thread's: numpy's BLAS threads start while ``symplevy`` is
    imported, and the process's CPU time would count their work too.
    """
    point = _POINT
    k = 0
    for _ in range(WARM_STEPS):
        k = (k * 1103515245 + 12345) & 255
        _kick(point, k, 0.01)
    start = time.thread_time()
    for _ in range(GAUGE_STEPS):
        k = (k * 1103515245 + 12345) & 255
        _kick(point, k, 0.01)
    return time.thread_time() - start


class Gauge:
    """``with Gauge() as gauge: work()``, then ``gauge.reference_s``."""

    def __init__(self):
        self.samples = []
        self.reference_s = None
        self._cost_s = 0.0  # CPU s of the samples inside the timed interval

    def _sample(self, signum=None, frame=None):
        start = time.thread_time()
        self.samples.append(sample_s())
        if signum is not None:
            self._cost_s += time.thread_time() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._start = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        cpu_s = time.process_time() - self._start
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        work_s = cpu_s - self._cost_s
        self.reference_s = work_s * REFERENCE_S * len(self.samples) / sum(self.samples)
        return False

"""Host-speed calibration for the benchmark's timed sections.

The benchmark runs on small shared hosts whose speed drifts by up to
2x within seconds, with no steal time to explain it.  Each timed
section is therefore rescaled to a reference host speed by a fixed,
stdlib-only calibration workload, :func:`probe`:

    scaled = raw * REFERENCE_PROBE_S / mean(probe times around and in it)

The probe runs a few times before and after the section (its
brackets) and, through ``SIGALRM``, every ``PROBE_INTERVAL_S`` inside
it.  Its own time is subtracted from the section's.  Sampling inside
the section is what makes the scaling work: host speed changes faster
than a multi-second simulation lasts, so brackets alone only see its
edges.  The probe is a toy switch simulation (classes, a heap, deques,
dicts, a seeded RNG) because the simulators slow down under contention
as such code does; a tight dict-and-deque loop slowed down only half
as much (see README.md for the measurements).

The probe leaves the program's state alone: it uses its own RNG,
frees everything it allocates, and holds the cyclic garbage collector
off while it runs so it never triggers a collection of the program's
objects.  Only the standard library is imported here.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time
from collections import deque
from contextlib import contextmanager
from typing import List

#: Median :func:`probe` time on the reference host (2-vCPU Xeon VM,
#: Python 3.11); scaled times are "seconds on that host at that speed".
REFERENCE_PROBE_S = 0.00120

#: Interval between in-section probes; the probe takes ~5 % of it.
PROBE_INTERVAL_S = 0.025
#: Probes run before and after every section.
BRACKET_PROBES = 4

_PORTS = 16
_STEPS = 300


class _Port:
    __slots__ = ("queue", "busy_until", "sent")

    def __init__(self) -> None:
        self.queue = deque()
        self.busy_until = 0
        self.sent = 0

    def offer(self, packet) -> None:
        self.queue.append(packet)

    def serve(self, now: int):
        if self.queue and self.busy_until <= now:
            packet = self.queue.popleft()
            self.busy_until = now + 1 + (packet[2] & 3)
            self.sent += 1
            return packet
        return None


def _switch(steps: int) -> int:
    """A fixed toy output-queued switch: seeded arrivals, a delay heap,
    per-port FIFOs and a per-packet record table."""
    rng = random.Random(7)
    ports = [_Port() for _ in range(_PORTS)]
    heap = []
    pending = {}
    seq = 0
    for now in range(steps):
        for _ in range(2):
            seq += 1
            src = rng.randrange(_PORTS)
            dst = (src + 1 + rng.randrange(_PORTS - 1)) % _PORTS
            packet = (seq, src, dst)
            pending[seq] = [src, dst, now]
            heapq.heappush(heap, (now + (seq & 7), seq, packet))
        while heap and heap[0][0] <= now:
            packet = heapq.heappop(heap)[2]
            ports[packet[2]].offer(packet)
        for port in ports:
            out = port.serve(now)
            if out is not None:
                record = pending.pop(out[0], None)
                if record is not None:
                    record[2] = now - record[2]
    return len(pending)


def probe() -> float:
    """Run the fixed calibration workload once; return its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _switch(_STEPS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Section:
    """One timed section's result: raw and reference-speed seconds."""

    __slots__ = ("raw_s", "scaled_s")

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0


class CalibratedClock:
    """Times sections and rescales each to the reference host speed.

    Every probe time measured is kept in :attr:`probes` (reported as
    ``host.calib_s``).
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._inside: List[float] = []
        self._inside_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inside.append(probe())
        self._inside_s += time.perf_counter() - t0

    @contextmanager
    def measure(self):
        """``with clock.measure() as section:`` times the block."""
        section = Section()
        samples = [probe() for _ in range(BRACKET_PROBES)]
        self._inside = []
        self._inside_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield section
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        samples += self._inside
        samples += [probe() for _ in range(BRACKET_PROBES)]
        self.probes += samples
        section.raw_s = elapsed - self._inside_s
        speed = sum(samples) / len(samples)
        section.scaled_s = section.raw_s * REFERENCE_PROBE_S / speed

    @property
    def mean_probe_s(self) -> float:
        if not self.probes:
            return 0.0
        return sum(self.probes) / len(self.probes)

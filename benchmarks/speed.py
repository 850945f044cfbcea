"""A speed meter: fixed CPU-bound work that runs next to the measured code.

On a shared machine the same work takes up to twice as long at some moments
as at others, in spells of a few seconds, on each CPU on its own. A run keeps
all its processes on one CPU and starts this meter there. The measured
process and the meter then share that CPU slice by slice, so both see the
same speed; the meter counts how many fixed units of work it finishes per
second of its own CPU time. A measured CPU time times that rate, over the
rate a reference CPU would have, is the time the work would have taken on
the reference CPU.

    python3 benchmarks/speed.py COUNTER_FILE    # started by run.py, never by hand

A unit is the kind of work the benchmark measures, written here so no change
to specvalley can move it: LP analysis of a seeded noise frame in small NumPy
operations, with a Python Levinson loop and an FFT envelope. The meter writes
its unit count and its CPU time into ``COUNTER_FILE``, which readers map.
"""

import mmap
import os
import struct
import sys
import time

ORDER = 18
# units per CPU second that scaled times refer to: about the rate of the
# machine the baseline was measured on
REFERENCE_RATE = 5000.0
_COUNTERS = struct.Struct("<qq")  # units done, meter CPU time in ns


def _unit(frame, np):
    r = np.array([np.dot(frame[: len(frame) - k], frame[k:]) for k in range(ORDER + 1)])
    a = np.zeros(ORDER + 1)
    a[0], e = 1.0, r[0]
    for m in range(1, ORDER + 1):
        k = -np.dot(a[:m], r[m:0:-1]) / e
        a[: m + 1] += k * a[m::-1]
        e *= 1.0 - k * k
    np.log10(np.abs(np.fft.rfft(a, 1022)))


def run_meter(path):
    """Do units of work until killed or orphaned, publishing the count after each."""
    import numpy as np

    parent = os.getppid()
    frames = np.random.default_rng(0).standard_normal((64, 320))
    with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), _COUNTERS.size) as counters:
        n = 0
        while n % 1024 or os.getppid() == parent:
            _unit(frames[n % len(frames)], np)
            n += 1
            _COUNTERS.pack_into(counters, 0, n, time.process_time_ns())


def create_counters(path):
    with open(path, "wb") as fh:
        fh.write(bytes(_COUNTERS.size))


class Reader:
    """Reads the meter's counters: ``read()`` marks a moment, ``rate()`` spans two."""

    def __init__(self, path):
        self._fh = open(path, "rb")
        self._map = mmap.mmap(self._fh.fileno(), _COUNTERS.size, access=mmap.ACCESS_READ)

    def read(self):
        return _COUNTERS.unpack_from(self._map, 0)

    @staticmethod
    def rate(before, after):
        """Units per CPU second of the meter between two reads."""
        units, cpu_ns = after[0] - before[0], after[1] - before[1]
        if units <= 0 or cpu_ns <= 0:
            raise RuntimeError("the speed meter made no progress")
        return units / (cpu_ns / 1e9)

    def close(self):
        self._map.close()
        self._fh.close()


def scaled_s(cpu_s, rate):
    """CPU seconds at meter ``rate`` as seconds on the reference CPU."""
    return cpu_s * rate / REFERENCE_RATE


if __name__ == "__main__":
    run_meter(sys.argv[1])

"""How fast the host runs a fixed piece of reference work while a round runs.

The benchmark's machine is a few vCPUs of a shared host whose speed moves by
20 % or more within seconds and for minutes at a time (neighbours, clock
changes), for CPU time as much as for wall time.  A program round timed in
such a stretch reads slow for reasons the program has no part in.

So while rounds run, a background thread of the round process times a small
fixed piece of reference work every INTERVAL_S seconds, by the thread's own
CPU clock (time spent waiting for the interpreter lock is not counted).  The
mean piece time over a round says how fast the host ran during that round,
and the round's times are scaled by ``REFERENCE_S / mean``: the time the
round would have taken at the host speed of the reference figure below.
Timing the reference before and after each round instead does not work
here: the host's speed changes within a round.

The reference work does not import weylprior, so no change to the program
makes it faster or slower.  It is what the program does most: interpreter
loops over small NumPy arrays, at about 1.6 ms a piece.  The thread costs
the round a few per cent of its wall time; its own CPU time is taken out of
the round's CPU time.
"""

import threading
import time

import numpy as np

# mean piece time on the 2-vCPU VM the README's figures come from; any fixed
# value would do, this one keeps scaled times close to that VM's raw ones
REFERENCE_S = 0.00135
INTERVAL_S = 0.03

_NODES, _WEIGHTS = np.polynomial.hermite.hermgauss(16)
_GRID = np.add.outer(_NODES, _NODES)


def reference_piece():
    acc = 0.0
    for i in range(1, 200):
        acc += float((_GRID * _WEIGHTS[:, None] * i).sum())
        acc += sum(v * v for v in (_NODES[0], _NODES[1], float(i)))
    return acc


class Sampler:
    """Background thread timing reference_piece every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []       # (perf_counter at the end, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(INTERVAL_S):
            c0 = time.thread_time()
            reference_piece()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def window(self, t0, t1):
        """(mean piece seconds, piece CPU seconds summed) over [t0, t1], or None."""
        pieces = [c for t, c in list(self.samples) if t0 <= t <= t1]
        if not pieces:
            return None
        return sum(pieces) / len(pieces), sum(pieces)

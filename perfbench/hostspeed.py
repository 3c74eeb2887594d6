"""Host speed, measured next to the workload, to take host drift out of
the timings.

On a shared host the same pure-Python work runs up to twice as slow
for minutes at a time. Process CPU time drifts with wall time (the
core runs slower; it is not taken away), so neither clock is steady.

So the benchmark times a fixed reference kernel in its own thread
right next to each stretch of workload, and reports workload times
scaled by ``REFERENCE_S / kernel time``: the time the work would take
on a host where the kernel takes ``REFERENCE_S``. The kernel uses
nothing from ``repro``, so a change to the program cannot move it.

The kernel follows the workload when it looks like it: a random walk
through memory larger than the caches, in the same thread as the
workload. On the machine of the baseline its time moved with the
workload's over minutes of drift, where a tight loop that stays in the
first-level caches, a round of pure-Python library code and a kernel
in a helper process (which may run on the other core) moved half as
much or not at all.

The walked memory (64 MB) is an anonymous mapping outside the Python
heap: the garbage collector never traverses it, so it does not slow
the workload, and pool workers forked later do not inherit it, so the
main process's writes to it never fault on copy-on-write pages. It is the
benchmark's, not the program's: the main process reads peak RSS before it
builds the kernel.

    python3 perfbench/hostspeed.py    # time the kernel ten times
"""

from __future__ import annotations

import heapq
import mmap
import statistics
import time

#: The kernel time the reported times are scaled to; about the
#: kernel's median time on the machine of the baseline (README.md).
REFERENCE_S = 0.015
#: Size of the walked memory.
BUFFER_MB = 64
#: Keys of the kernel's index: a dict of ints, which the garbage
#: collector does not track, with small (interned) ints as values, so
#: that a lookup writes to no object a forked pool worker shares.
INDEX_KEYS = 300_000
#: Steps of the walk per kernel run.
STEPS = 20000


class Kernel:
    """A buffer of doubles and an index; ``time()`` takes the next
    ``STEPS`` of a walk through both and returns its time in seconds."""

    def __init__(self, megabytes: int = BUFFER_MB) -> None:
        self.buffer = mmap.mmap(-1, megabytes << 20)
        if hasattr(mmap, "MADV_DONTFORK"):
            self.buffer.madvise(mmap.MADV_DONTFORK)
        self.cells = memoryview(self.buffer).cast("d")
        for i in range(0, len(self.cells), 512):  # every page resident
            self.cells[i] = float(i)
        self.index = {7 * i: i & 0xFF for i in range(0, INDEX_KEYS, 3)}
        self.position = 0

    def run(self, steps: int = STEPS) -> float:
        """The next ``steps`` of the walk; returns a checksum."""
        cells, index, size = self.cells, self.index, len(self.cells)
        start, acc, heap = self.position, 0.0, []
        for step in range(start, start + steps):
            i = (step * 2654435761) % size
            value = cells[i] * 0.9 + acc * 0.1
            cells[i] = value
            acc += value
            hit = index.get(7 * (i % INDEX_KEYS))
            if hit is not None:
                acc -= hit
            if step & 7 == 0:
                heapq.heappush(heap, (value, step))
                if len(heap) > 64:
                    heapq.heappop(heap)
        self.position = start + steps
        return acc

    def time(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


def scaled(wall_s: float, kernel_times) -> float:
    """``wall_s`` at reference host speed, from the kernel times taken
    around it."""
    return wall_s * REFERENCE_S / statistics.median(kernel_times)


if __name__ == "__main__":
    kernel = Kernel()
    print(" ".join(f"{kernel.time() * 1e3:.2f}" for _ in range(10)), "ms")

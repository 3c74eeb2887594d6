"""Tests of the benchmark's host-speed kernel.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import gc
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench")]

import pytest  # noqa: E402

import hostspeed  # noqa: E402


def test_scaled_is_wall_time_at_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(3.0, [ref]) == pytest.approx(3.0)
    # A host twice as slow as the reference halves the reported time.
    assert hostspeed.scaled(3.0, [ref, 2 * ref, 4 * ref]) == pytest.approx(1.5)


def test_kernel_walk_is_deterministic():
    first, second = hostspeed.Kernel(1), hostspeed.Kernel(1)
    for _ in range(3):
        assert first.run(500) == second.run(500)
    assert first.time() > 0


def test_kernel_memory_is_outside_the_collected_heap():
    kernel = hostspeed.Kernel(1)
    assert not gc.is_tracked(kernel.index)
    assert len(kernel.cells) == (1 << 20) // 8

#!/usr/bin/env python3
"""Make ``pins.json``: the input variants of the workloads and the
digests their outputs must reproduce.

    python3 perfbench/pins.py            # re-pin the current variants
    python3 perfbench/pins.py --select   # choose the variants, then pin

Run from the root of a checkout. A workload with variants maps the
benchmark seed onto ``variants[seed % len(variants)]``, so every seed has a pinned
expectation; the held-out seed (``workloads.HELD_OUT_SEED``) alone maps
onto ``held_out``, kept out of that rotation. Re-pin only when the
program's simulated behaviour changes on purpose (the golden digests
change too).

The variants carry equal work, because a benchmark whose seeds differ
in size cannot be steady:

* ``rtc-city``: the city seed also seeds the capacity trace, and the
  packets a city delivers vary several-fold with it. ``--select`` runs
  the first ``CANDIDATES`` city seeds and keeps the nine whose packet
  counts (deterministic) lie in the narrowest band; the highest city
  seed of the nine is held out.
* ``traced-rtc``: the same for the cell's own seed, whose randomness
  moves the packet count by several per cent. The check is relative
  (traced against untraced), so only the seeds are pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

CANDIDATES = 32
VARIANTS = 8


def rtc_pin(seed: int) -> tuple:
    """(packets delivered, fleet digest) of one rtc-city variant."""
    from repro.experiments.drivers.city import run_city
    from workloads import RTC_CITY, jobs, rtc_gen

    city = run_city(rtc_gen(seed), duration=RTC_CITY["duration"],
                    shard_aps=RTC_CITY["shard_aps"], jobs=jobs())
    return city.fleet.packets_processed, city.fleet.digest()


def traced_packets(seed: int) -> int:
    """Packets delivered by one traced-rtc variant, run untraced."""
    from repro.campaign import execute_spec
    from workloads import traced_rtc_spec

    return execute_spec(traced_rtc_spec(seed, None)).packets_processed


def narrowest_band(packets_of) -> list:
    """The ``VARIANTS`` + 1 candidate seeds with the closest packet counts."""
    measured = []
    for seed in range(1, CANDIDATES + 1):
        packets = packets_of(seed)
        print(f"  seed {seed}: {packets} packets", flush=True)
        measured.append((packets, seed))
    measured.sort()
    size = VARIANTS + 1
    band = min((measured[i:i + size] for i in range(len(measured) - size + 1)),
               key=lambda b: b[-1][0] - b[0][0])
    print(f"  band {band[0][0]} .. {band[-1][0]} packets", flush=True)
    return sorted(seed for _packets, seed in band)


def _seeds(entry: dict, key: str) -> list:
    return [v[key] for v in entry["variants"]] + [entry["held_out"][key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--select", action="store_true",
                        help="choose the variants before pinning them")
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro").is_dir():
        print("pins.py: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch = Path.cwd() / ".bench_build" / "perfbench" / "pins"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    from workloads import PINS_PATH

    try:
        if args.select:
            rtc_seeds = narrowest_band(lambda seed: rtc_pin(seed)[0])
            traced_seeds = narrowest_band(traced_packets)
        else:
            old = json.loads(PINS_PATH.read_text())
            rtc_seeds = _seeds(old["rtc-city"], "city_seed")
            traced_seeds = _seeds(old["traced-rtc"], "cell_seed")
        rtc = [{"city_seed": seed, "fleet_digest": rtc_pin(seed)[1]}
               for seed in sorted(rtc_seeds)]
        traced = [{"cell_seed": seed} for seed in sorted(traced_seeds)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    pins = {"rtc-city": {"variants": rtc[:-1], "held_out": rtc[-1]},
            "traced-rtc": {"variants": traced[:-1], "held_out": traced[-1]}}
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

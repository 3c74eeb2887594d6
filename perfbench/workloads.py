"""The benchmark's three workloads.

Every workload is batch and closed-loop: one cell at a time per worker,
at most ``jobs`` workers, all driven from this process. A workload is
built from the benchmark seed (:func:`make_workload`); ``prepare`` is
the set-up part (spec load, city generation and sharding, trace
materialization of the first cell) and ``run_pass`` one timed pass,
which also checks its outputs. Given ``kernel_time`` (a callable that
runs the host-speed kernel of ``hostspeed.py`` once and returns its
time), a pass also times that kernel right next to its timed
sections, outside them.

* ``golden-suite`` — the 11 pinned golden specs of
  ``tests/data/golden_summaries.json``, serially in-process through
  ``execute_spec``; every digest must match its pin. Its inputs are the
  pinned corpus, so the seed changes nothing.
* ``rtc-city`` — an RTC-only sharded grid city through ``run_city``
  with a process pool, a fresh result cache and a journal, then the
  same campaign re-run warm from that cache. Cold and warm fleet
  digests must be equal and match the pin of the city variant.
* ``traced-rtc`` — an RTC-only single-AP Zhuge cell with the
  simulator's own tracing on, writing a Chrome trace. Its flow series
  must equal those of the same cell run untraced.

``rtc-city`` and ``traced-rtc`` map the seed onto a fixed list of input
variants (``pins.json``, made by ``pins.py``), so that every seed has a
pinned expectation and all variants carry a similar amount of work; the
held-out seed has a variant of its own.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.campaign import CampaignError, ScenarioSpec, TraceSpec, execute_spec
from repro.city.gen import CityGenSpec
from repro.experiments.drivers.city import city_specs, run_city
from repro.obs.session import TraceConfig

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = Path("tests/data/golden_summaries.json")
PINS_PATH = HERE / "pins.json"

#: Reserved for re-checking a claim on inputs not used while making it;
#: the city workloads give it a variant of its own.
HELD_OUT_SEED = 1009
#: rtc-city: RTC-only grid city, two clients per AP, 8 APs per shard
#: (two equal shards for two workers), short cells.
RTC_CITY = {"aps": 16, "clients": 2, "shard_aps": 8, "duration": 8.0}
#: traced-rtc: one Zhuge AP, several RTC flows, sim tracing on. The
#: capacity trace is fixed (its seed sets the packet count several-fold);
#: the variant is the cell's own seed.
TRACED_RTC = {"rtc_flows": 4, "duration": 6.0, "family": "W2",
              "trace_seed": 3}


@dataclass
class PassResult:
    """What one timed pass did and what its outputs looked like."""

    wall_s: float = 0.0
    #: rtc-city only: the cache-served re-run.
    warm_s: Optional[float] = None
    cells: int = 0
    failed: int = 0
    packets: int = 0
    events: int = 0
    #: Pooled post-warm-up RTC RTT samples (seconds); empty when the
    #: workload reports fleet percentiles instead (``fleet``).
    rtts: list = field(default_factory=list)
    goodput_bps: float = 0.0
    fleet: Optional[dict] = None
    #: Campaign telemetry (rtc-city): sum of cell wall time, cells
    #: served from cache, retries.
    cell_wall_s: float = 0.0
    cells_cached: int = 0
    retries: int = 0
    errors: list = field(default_factory=list)
    #: Host-speed kernel times taken next to the timed sections.
    kernel_s: list = field(default_factory=list)

    def time_kernel(self,
                    kernel_time: Optional[Callable[[], float]]) -> None:
        if kernel_time is not None:
            self.kernel_s.append(kernel_time())


def jobs() -> int:
    """Pool size: the machine's cores, at most two."""
    return max(1, min(2, os.cpu_count() or 1))


def pinned_variant(workload: str, seed: int) -> dict:
    """The pinned input variant a benchmark seed selects."""
    pins = json.loads(PINS_PATH.read_text())[workload]
    if seed == HELD_OUT_SEED:
        return pins["held_out"]
    return pins["variants"][seed % len(pins["variants"])]


def _fold_summary(result: PassResult, summary) -> None:
    result.packets += summary.packets_processed
    result.events += summary.events_processed
    for flow in summary.flows:
        result.rtts.extend(flow.rtt_values)
        result.goodput_bps += flow.goodput_bps


class GoldenSuite:
    name = "golden-suite"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.specs: list = []

    def prepare(self) -> ScenarioSpec:
        pins = json.loads(GOLDEN_PATH.read_text())
        entries = [(name, entry) for name, entry in sorted(pins.items())
                   if not name.startswith("_")]
        self.specs = [(name, ScenarioSpec.from_dict(entry["spec"]),
                       entry["summary_digest_v2"])
                      for name, entry in entries]
        return self.specs[0][1]

    def run_pass(self, kernel_time=None) -> PassResult:
        result = PassResult()
        result.time_kernel(kernel_time)
        for name, spec, digest in self.specs:
            result.cells += 1
            start = time.perf_counter()
            summary = execute_spec(spec)
            matches = summary.digest() == digest
            result.wall_s += time.perf_counter() - start
            result.time_kernel(kernel_time)
            _fold_summary(result, summary)
            if not matches:
                result.failed += 1
                result.errors.append(f"{name}: digest mismatch")
        return result


def rtc_gen(city_seed: int) -> CityGenSpec:
    """The generator of one rtc-city variant."""
    return CityGenSpec(aps=RTC_CITY["aps"], clients_min=RTC_CITY["clients"],
                       clients_max=RTC_CITY["clients"], competitor_share=0.0,
                       seed=city_seed)


class RtcCity:
    name = "rtc-city"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.variant = pinned_variant(self.name, seed)
        self.gen = rtc_gen(self.variant["city_seed"])
        self.workdir = workdir
        self.passes = 0

    def prepare(self) -> ScenarioSpec:
        _plan, specs = city_specs(self.gen, duration=RTC_CITY["duration"],
                                  shard_aps=RTC_CITY["shard_aps"])
        return specs[0]

    def _run(self, cache: Path, journal: Path) -> tuple:
        start = time.perf_counter()
        city = run_city(self.gen, duration=RTC_CITY["duration"],
                        shard_aps=RTC_CITY["shard_aps"], jobs=jobs(),
                        cache=str(cache), journal=str(journal))
        return city, time.perf_counter() - start

    def run_pass(self, kernel_time=None) -> PassResult:
        self.passes += 1
        root = self.workdir / f"city-{self.passes}"
        root.mkdir(parents=True)
        result = PassResult()
        expected = self.variant["fleet_digest"]
        start = time.perf_counter()
        try:
            result.time_kernel(kernel_time)
            cold, result.wall_s = self._run(root / "cache",
                                            root / "cold.jsonl")
            result.time_kernel(kernel_time)
            warm, result.warm_s = self._run(root / "cache",
                                            root / "warm.jsonl")
        except CampaignError as exc:
            result.wall_s = time.perf_counter() - start
            result.cells = result.failed = 1
            result.errors.append(str(exc))
            return result
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for city in (cold, warm):
            cells = city.campaign.cells
            result.cells += len(cells)
            if city.fleet.digest() != expected:
                result.failed += len(cells)
                result.errors.append(
                    f"fleet digest {city.fleet.digest()[:12]} != pin "
                    f"{expected[:12]} (city seed {self.gen.seed})")
        fleet = cold.fleet
        result.packets = fleet.packets_processed
        result.events = fleet.events_processed
        result.goodput_bps = fleet.goodput_bps_total
        result.fleet = {"rtt_p50": fleet.rtt_p50, "rtt_p99": fleet.rtt_p99,
                        "rtt_tail_ratio": fleet.rtt_tail_ratio}
        result.cell_wall_s = sum(c.wall_s for c in cold.campaign.cells)
        result.cells_cached = warm.campaign.cached
        result.retries = (cold.campaign.progress.retries
                          + warm.campaign.progress.retries)
        return result


def traced_rtc_spec(cell_seed: int,
                    trace_config: Optional[TraceConfig]) -> ScenarioSpec:
    """The traced-rtc cell of one variant, with or without sim tracing."""
    duration = TRACED_RTC["duration"]
    return ScenarioSpec(
        trace=TraceSpec.for_family(TRACED_RTC["family"],
                                   duration=duration + 5,
                                   seed=TRACED_RTC["trace_seed"]),
        protocol="rtp", cca="gcc", ap_mode="zhuge",
        rtc_flows=TRACED_RTC["rtc_flows"], duration=duration, warmup=2.0,
        seed=cell_seed, trace_config=trace_config)


class TracedRtc:
    name = "traced-rtc"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cell_seed = pinned_variant(self.name, seed)["cell_seed"]
        self.workdir = workdir
        self.reference: Optional[list] = None

    def prepare(self) -> ScenarioSpec:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.traced = traced_rtc_spec(self.cell_seed, TraceConfig(
            out=str(self.workdir / "traced-rtc.trace.json")))
        return self.traced

    def reference_flows(self) -> list:
        """Flow series of the same cell with tracing off (computed once)."""
        if self.reference is None:
            summary = execute_spec(traced_rtc_spec(self.cell_seed, None))
            self.reference = [flow.as_dict() for flow in summary.flows]
        return self.reference

    def run_pass(self, kernel_time=None) -> PassResult:
        result = PassResult(cells=1)
        result.time_kernel(kernel_time)
        start = time.perf_counter()
        summary = execute_spec(self.traced)
        result.wall_s = time.perf_counter() - start
        result.time_kernel(kernel_time)
        _fold_summary(result, summary)
        artifact = Path(self.traced.trace_config.out)
        if not artifact.is_file() or artifact.stat().st_size == 0:
            result.failed = 1
            result.errors.append("no Chrome trace written")
        elif [flow.as_dict() for flow in summary.flows] \
                != self.reference_flows():
            result.failed = 1
            result.errors.append("traced flow series differ from untraced")
        return result


WORKLOADS = {cls.name: cls for cls in (GoldenSuite, RtcCity, TracedRtc)}


def make_workload(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)

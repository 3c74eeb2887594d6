"""Per-layer metrics of one traced pass (``--trace 1``).

Every metric is computed from the layer tracer's per-function records
(calls, items, inclusive and self time, summed over the main process and its
pool workers) and from the two passes' own telemetry. The accounting
identity, printed with the table, is

    sum of <layer>.self_s + bench.pool_wait_s + bench.unattributed_s
        = bench.traced_wall_s + bench.worker_s

``bench.unattributed_s`` is traced wall time the main process spent outside
any ``repro`` call (the benchmark's own code), ``bench.pool_wait_s`` the
main process blocked on its process pool and ``bench.worker_s`` the time pool
workers spent in the runner's pool entry point, measured around it. On
the main process's side the identity holds by definition; on the workers'
side its residual is worker time no span covered.
"""

from __future__ import annotations

from layer_tracer import CALLS, INCL, ITEMS, LAYERS, POOL_WAIT, SELF
from workloads import jobs

#: Layers reported as ``<layer>.self_s`` (``cli`` never runs here).
SELF_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")


class _Records:
    """Lookups over the merged per-function records."""

    def __init__(self, tracer) -> None:
        self.stats = tracer.merged_stats()
        self.layer = tracer.layer

    def _select(self, layers, names):
        for key, stat in self.stats.items():
            if (self.layer[key] in layers
                    and key.rsplit(".", 1)[1] in names):
                yield stat

    def calls(self, layers, names) -> int:
        return sum(stat[CALLS] for stat in self._select(layers, names))

    def items(self, layers, names) -> int:
        return sum(stat[ITEMS] for stat in self._select(layers, names))

    def layer_calls(self, layer: str) -> int:
        return sum(stat[CALLS] for key, stat in self.stats.items()
                   if self.layer[key] == layer)

    def incl_s(self, *keys: str) -> float:
        return sum(self.stats[key][INCL] for key in keys
                   if key in self.stats) / 1e9

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(stat[SELF] for key, stat in self.stats.items()
                   if key.startswith(prefix)) / 1e9


def layer_metrics(tracer, plain, traced, untraced_s: float,
                  traced_s: float) -> tuple:
    """``{name: (value, unit)}`` and table lines for one traced run."""
    rec = _Records(tracer)
    by_layer = tracer.self_ns_by_layer()
    packets = max(1, traced.packets)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for layer in SELF_LAYERS:
        put(f"{layer}.self_s", by_layer[layer] / 1e9, "s")

    acks = rec.calls(("transport",), ("on_ack", "on_feedback", "on_nack"))
    put("sim.events", traced.events, "count")
    put("sim.events_per_pkt", traced.events / packets, "ratio")
    put("net.queue_ops", rec.calls(("net", "aqm"),
                                   ("enqueue", "dequeue", "dequeue_burst")),
        "count")
    put("wireless.txops", rec.calls(("wireless",),
                                    ("_transmit_ampdu", "_serve_tti")),
        "count")
    put("core.predictions", rec.calls(("core",), ("predict",)), "count")
    put("core.departures", rec.items(("core",), ("observe_departure",
                                                 "observe_departure_batch")),
        "count")
    put("transport.acks", acks, "count")
    put("cca.calls", rec.layer_calls("cca"), "count")
    put("core.us_per_pkt", by_layer["core"] / 1e3 / packets, "us")
    put("transport.us_per_ack",
        by_layer["transport"] / 1e3 / acks if acks else 0.0, "us")

    put("topology.build_s",
        rec.incl_s("repro.topology.builder.TopologyBuilder.__init__"), "s")
    put("traces.materialize_s",
        rec.incl_s("repro.traces.spec.TraceSpec.build"), "s")

    put("campaign.summary_s", rec.module_self_s("repro.campaign.summary"),
        "s")
    put("campaign.cache_put_s",
        rec.incl_s("repro.campaign.cache.ResultCache.put"), "s")
    put("campaign.cache_get_s",
        rec.incl_s("repro.campaign.cache.ResultCache.get"), "s")
    put("campaign.journal_s", rec.module_self_s("repro.campaign.journal"),
        "s")
    busy = (plain.cell_wall_s / (jobs() * plain.wall_s)
            if plain.cell_wall_s else 0.0)
    put("campaign.worker_busy_frac", busy, "ratio")
    put("campaign.cells_cached", plain.cells_cached, "count")
    put("campaign.retries", plain.retries + traced.retries, "count")
    put("campaign.warm_s", plain.warm_s or 0.0, "s")

    put("city.gen_s", rec.incl_s("repro.city.gen.CityGenSpec.build"), "s")
    put("city.shard_s", rec.incl_s("repro.city.shard.partition_topology"),
        "s")
    put("city.merge_s", rec.incl_s(
        "repro.city.merge.FleetAccumulator.add",
        "repro.city.merge.FleetAccumulator.finalize",
        "repro.city.merge.FleetAccumulator.to_state"), "s")

    put("obs.export_s", rec.module_self_s("repro.obs.export"), "s")

    unattributed = traced_s - tracer.top_ns[0] / 1e9
    put("bench.unattributed_s", unattributed, "s")
    put("bench.trace_overhead", traced_s / untraced_s, "ratio")
    put("bench.pool_wait_s", by_layer[POOL_WAIT] / 1e9, "s")
    put("bench.worker_s", tracer.worker_ns() / 1e9, "s")
    put("bench.traced_wall_s", traced_s, "s")
    put("bench.untraced_wall_s", untraced_s, "s")

    return metrics, _table(metrics, by_layer, traced_s,
                           tracer.worker_ns() / 1e9, unattributed)


def _table(metrics, by_layer, traced_s, worker_s, unattributed) -> list:
    total = sum(by_layer.values()) / 1e9
    layers_total = sum(by_layer[layer] for layer in SELF_LAYERS) / 1e9
    lines = ["  layer self time (all processes), share of all layers"]
    for layer in sorted(SELF_LAYERS, key=lambda name: -by_layer[name]):
        if by_layer[layer]:
            share = by_layer[layer] / 1e9 / layers_total
            lines.append(f"    {layer:12s} {by_layer[layer] / 1e9:10.4f} s "
                         f"{100 * share:5.1f}%")
    residual = total + unattributed - (traced_s + worker_s)
    lines.append(f"  identity residual (self + pool_wait + unattributed - "
                 f"traced wall - worker): {residual:.6f} s")
    lines.extend(f"  {name:28s} {value:14.6g} {unit}"
                 for name, (value, unit) in metrics.items()
                 if not name.endswith(".self_s"))
    return lines

"""Trace <-> metrics exact consistency for the sharded server.

Two independent observation paths watch the same broadcast: the metrics
registry's ``shard.<k>.broadcast.slots`` samplers and the tracer's
``shard.cycle.start`` events.  They must agree *exactly* -- any drift
means one of the two is lying about what flew.
"""

from repro.experiments.schemes import scheme_factory
from repro.obs.analyze import TraceAnalyzer
from repro.obs.trace import (
    EV_CYCLE_START,
    EV_SHARD_CYCLE_START,
    RingBufferSink,
    TraceLevel,
    Tracer,
)
from repro.shard.oracle import contract_params
from repro.shard.runtime import ShardedSimulation
from repro.stats import names as metric_names


def _traced_run(num_shards: int):
    sink = RingBufferSink(1 << 16)
    tracer = Tracer(level=TraceLevel.CYCLE, sinks=[sink])
    params = contract_params(clients=3, seed=11, faults=False, num_cycles=15)
    sim = ShardedSimulation(
        params,
        scheme_factory("inval+cache"),
        num_shards=num_shards,
        cross_shard_fraction=0.3 if num_shards > 1 else None,
        tracer=tracer,
    )
    result = sim.run()
    return sim, result, sink


class TestShardTraceConsistency:
    def test_per_shard_sampler_equals_traced_slots(self):
        sim, result, sink = _traced_run(num_shards=3)
        traced = {}
        for event in sink.events:
            if event.get("kind") == EV_SHARD_CYCLE_START:
                traced[event["shard"]] = traced.get(event["shard"], 0) + (
                    event["slots"]
                )
        assert sorted(traced) == [0, 1, 2]
        for shard in range(3):
            sampler = result.metrics.get_sampler(
                metric_names.shard_metric(shard, metric_names.BROADCAST_SLOTS)
            )
            assert sampler.exact_sum == traced[shard]

    def test_superframe_equals_cycle_start_slots(self):
        sim, result, sink = _traced_run(num_shards=3)
        cycle_slots = [
            e["slots"] for e in sink.events if e.get("kind") == EV_CYCLE_START
        ]
        superframe = result.metrics.get_sampler(metric_names.BROADCAST_SLOTS)
        assert superframe.exact_sum == sum(cycle_slots)
        assert superframe.count == len(cycle_slots)
        # Each cycle's superframe is the max of its shard programs.
        per_cycle = {}
        for e in sink.events:
            if e.get("kind") == EV_SHARD_CYCLE_START:
                per_cycle.setdefault(e["cycle"], []).append(e["slots"])
        starts = {
            e["cycle"]: e["slots"]
            for e in sink.events
            if e.get("kind") == EV_CYCLE_START
        }
        for cycle, shard_slots in per_cycle.items():
            assert starts[cycle] == max(shard_slots)

    def test_control_slots_sum_over_shards(self):
        sim, result, sink = _traced_run(num_shards=3)
        traced_control = sum(
            e["control_slots"]
            for e in sink.events
            if e.get("kind") == EV_SHARD_CYCLE_START
        )
        control = result.metrics.get_sampler(
            metric_names.BROADCAST_CONTROL_SLOTS
        )
        assert control.exact_sum == traced_control

    def test_analyzer_shard_airtime_matches_metrics(self):
        """The ``repro trace airtime`` per-shard view derives from the
        same events; its totals must equal the registry's samplers."""
        sim, result, sink = _traced_run(num_shards=3)
        per_shard = TraceAnalyzer(sink.events).shard_airtime()
        assert sorted(per_shard) == [0, 1, 2]
        for shard, row in per_shard.items():
            sampler = result.metrics.get_sampler(
                metric_names.shard_metric(shard, metric_names.BROADCAST_SLOTS)
            )
            assert row["total"] == sampler.exact_sum
            assert row["cycles"] == sampler.count
            assert (
                row["control"] + row["index"] + row["data"] + row["overflow"]
                == row["total"]
            )

    def test_single_channel_trace_has_no_shard_events(self):
        sim, result, sink = _traced_run(num_shards=1)
        assert not any(
            e.get("kind") == EV_SHARD_CYCLE_START for e in sink.events
        )
        assert TraceAnalyzer(sink.events).shard_airtime() == {}

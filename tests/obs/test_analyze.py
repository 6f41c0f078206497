"""Tests for the trace analyzer, on synthetic and real traces."""

from repro.core import InvalidationOnly
from repro.obs.analyze import TraceAnalyzer
from repro.obs.trace import (
    EV_CYCLE_START,
    EV_QUERY_ABORT,
    EV_QUERY_ACCEPT,
    EV_QUERY_BEGIN,
    EV_QUERY_READ,
    RingBufferSink,
    TraceLevel,
    Tracer,
)
from repro.runtime import Simulation

from tests.helpers import SMALL_WORLD


def _synthetic_events():
    return [
        {"t": 0.0, "kind": "trace.header", "level": "query", "seed": 1},
        {"t": 0.0, "kind": EV_CYCLE_START, "cycle": 1, "control_slots": 1,
         "index_slots": 0, "data_slots": 10, "overflow_slots": 2, "slots": 13},
        {"t": 1.0, "kind": EV_QUERY_BEGIN, "txn": "c0.q0.a1", "client": 0,
         "measured": False},
        {"t": 2.0, "kind": EV_QUERY_READ, "txn": "c0.q0.a1", "client": 0,
         "item": 4},
        {"t": 3.0, "kind": EV_QUERY_ABORT, "txn": "c0.q0.a1", "client": 0,
         "reason": "invalidated", "measured": False,
         "cause": [{"event": "invalidation", "items": [4]}]},
        {"t": 4.0, "kind": EV_CYCLE_START, "cycle": 2, "control_slots": 2,
         "index_slots": 0, "data_slots": 10, "overflow_slots": 2, "slots": 14},
        {"t": 5.0, "kind": EV_QUERY_BEGIN, "txn": "c1.q0.a1", "client": 1,
         "measured": True},
        {"t": 6.0, "kind": EV_QUERY_ACCEPT, "txn": "c1.q0.a1", "client": 1,
         "measured": True},
        {"t": 7.0, "kind": EV_QUERY_BEGIN, "txn": "c1.q1.a1", "client": 1,
         "measured": True},
        {"t": 8.0, "kind": EV_QUERY_ABORT, "txn": "c1.q1.a1", "client": 1,
         "reason": "cycle_detected", "measured": True,
         "cause": [{"event": "invalidation", "items": [2]},
                   {"event": "sgt_cycle", "item": 2}]},
    ]


class TestSyntheticTrace:
    def test_summary(self):
        info = TraceAnalyzer(_synthetic_events()).summary()
        assert info["events"] == 10
        assert info["cycles"] == 2
        assert info["last_cycle"] == 2
        assert info["accepted"] == 1
        assert info["aborted"] == 2
        assert info["aborted_measured"] == 1
        assert info["header"]["seed"] == 1
        assert info["t_max"] == 8.0

    def test_timelines_group_by_txn(self):
        lines = TraceAnalyzer(_synthetic_events()).timelines()
        assert set(lines) == {"c0.q0.a1", "c1.q0.a1", "c1.q1.a1"}
        kinds = [e["kind"] for e in lines["c0.q0.a1"]]
        assert kinds == [EV_QUERY_BEGIN, EV_QUERY_READ, EV_QUERY_ABORT]

    def test_timelines_filter_by_client_and_txn(self):
        analyzer = TraceAnalyzer(_synthetic_events())
        assert set(analyzer.timelines(client=1)) == {"c1.q0.a1", "c1.q1.a1"}
        assert set(analyzer.timelines(txn="c0.q0.a1")) == {"c0.q0.a1"}

    def test_abort_breakdown_measured_vs_all(self):
        analyzer = TraceAnalyzer(_synthetic_events())
        assert analyzer.abort_breakdown() == {"cycle_detected": 1}
        assert analyzer.abort_breakdown(measured_only=False) == {
            "invalidated": 1,
            "cycle_detected": 1,
        }

    def test_abort_causes_use_chain_root(self):
        causes = TraceAnalyzer(_synthetic_events()).abort_causes()
        assert causes == {"invalidation": 2}

    def test_airtime_per_cycle_and_totals(self):
        analyzer = TraceAnalyzer(_synthetic_events())
        per_cycle = analyzer.airtime()
        assert per_cycle[1] == {
            "control": 1, "index": 0, "data": 10, "overflow": 2, "total": 13,
        }
        totals = analyzer.airtime_totals()
        assert totals["total"] == 27
        assert totals["control"] == 3
        assert totals["cycles"] == 2
        assert abs(totals["data_fraction"] - 20 / 27) < 1e-12


class TestRealTrace:
    def test_airtime_matches_simulation_slot_accounting(self):
        """Trace-derived airtime must equal what the server actually flew."""
        sink = RingBufferSink(1 << 16)
        tracer = Tracer(level=TraceLevel.CYCLE, sinks=[sink])
        params = SMALL_WORLD.with_sim(
            num_cycles=20, warmup_cycles=2, num_clients=2, seed=3
        )
        sim = Simulation(
            params, scheme_factory=lambda: InvalidationOnly(), tracer=tracer
        )
        result = sim.run()

        totals = TraceAnalyzer(sink.events).airtime_totals()
        assert totals["cycles"] == result.cycles_completed
        assert totals["total"] == (
            result.mean_cycle_slots * result.cycles_completed
        )
        # Every cycle's segments must add up to its total.
        for row in TraceAnalyzer(sink.events).airtime().values():
            assert (
                row["control"] + row["index"] + row["data"] + row["overflow"]
                == row["total"]
            )

    def test_cycle_level_trace_has_no_query_events(self):
        sink = RingBufferSink(1 << 16)
        tracer = Tracer(level=TraceLevel.CYCLE, sinks=[sink])
        params = SMALL_WORLD.with_sim(
            num_cycles=10, warmup_cycles=1, num_clients=2, seed=3
        )
        Simulation(
            params, scheme_factory=lambda: InvalidationOnly(), tracer=tracer
        ).run()
        kinds = {e["kind"] for e in sink.events}
        assert EV_CYCLE_START in kinds
        assert EV_QUERY_BEGIN not in kinds
        assert EV_QUERY_READ not in kinds

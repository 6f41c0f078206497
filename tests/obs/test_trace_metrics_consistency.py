"""Trace <-> metrics consistency: the abort accounting must agree exactly.

The acceptance contract of the observability subsystem: for every scheme,
seed, and fault setting, the measured-attempt abort breakdown recovered
from the trace equals the registry's ``abort.<reason>`` counters, and
every traced abort carries a machine-readable cause chain whose terminal
entry names the abort reason.
"""

import pytest

from repro.experiments.schemes import scheme_factory
from repro.obs.analyze import TraceAnalyzer
from repro.obs.trace import RingBufferSink, TraceLevel, Tracer
from repro.runtime import Simulation
from repro.stats.names import ABORT_PREFIX

from tests.helpers import SMALL_WORLD

SCHEMES = ("inval", "sgt+cache", "versioned-cache", "multiversion", "mv-caching")
SEEDS = (3, 7, 11, 23, 42)

#: Enough loss to doom some queries without silencing the channel.
FAULTY = dict(slot_loss=0.05, control_loss=0.03, truncation=0.02)


def _run_traced(scheme: str, seed: int, faults: bool):
    params = SMALL_WORLD.with_sim(
        num_cycles=25, warmup_cycles=3, num_clients=3, seed=seed
    )
    if faults:
        params = params.with_faults(**FAULTY)
    sink = RingBufferSink(1 << 18)
    tracer = Tracer(level=TraceLevel.QUERY, sinks=[sink])
    sim = Simulation(
        params, scheme_factory=scheme_factory(scheme), tracer=tracer
    )
    result = sim.run()
    assert sink.dropped == 0, "ring sized too small for an exact comparison"
    return result, TraceAnalyzer(sink.events)


def _metric_abort_counts(result):
    return {
        name.removeprefix(ABORT_PREFIX): counter.value
        for name, counter in result.metrics.counters()
        if name.startswith(ABORT_PREFIX) and counter.value
    }


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_trace_abort_breakdown_matches_metrics(scheme, seed, faults):
    result, analyzer = _run_traced(scheme, seed, faults)
    assert analyzer.abort_breakdown(measured_only=True) == _metric_abort_counts(
        result
    )


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_abort_has_a_cause_chain(scheme, faults):
    _, analyzer = _run_traced(scheme, SEEDS[0], faults)
    aborts = analyzer.aborts(measured_only=False)
    for event in aborts:
        chain = event["cause"]
        assert chain, f"abort {event['txn']} has an empty cause chain"
        # abort() always appends a terminal entry naming the reason.
        terminal = next(e for e in chain if e.get("event") != "fault_forced")
        reasons = [e.get("reason") for e in chain if "reason" in e]
        assert event["reason"] in reasons, (terminal, event)


def test_faulty_runs_record_fault_forced_roots():
    """With heavy control loss, some cause chains must bottom out at the
    injected fault, and the trace carries the fault events themselves."""
    found_forced = False
    for seed in SEEDS:
        _, analyzer = _run_traced("inval", seed, faults=True)
        kinds = set(analyzer.kind_counts())
        if "fault.report_missed" in kinds:
            for event in analyzer.aborts(measured_only=False):
                if any(
                    c.get("event") == "fault_forced" for c in event["cause"]
                ):
                    found_forced = True
        if found_forced:
            break
    assert found_forced, "no fault-forced abort observed across any seed"


def test_accept_and_abort_attempts_match_registry_totals():
    result, analyzer = _run_traced("inval", 11, faults=False)
    ratio = result.metrics.get_ratio("attempt.committed")
    info = analyzer.summary()
    assert info["accepted_measured"] == ratio.hits
    assert info["accepted_measured"] + info["aborted_measured"] == ratio.total


def _run_resilient_traced(scheme: str, seed: int):
    from repro.core.control import ReportSchedule

    params = (
        SMALL_WORLD.with_sim(
            num_cycles=50, warmup_cycles=3, num_clients=3, seed=seed
        )
        .with_faults(**FAULTY)
        .with_resilience(
            retry_policy="cause-aware",
            checkpoint_interval=5,
            catchup_window=8,
            crash_rate=0.06,
            crash_length=2.0,
            watchdog_attempts=4,
            deadline_cycles=10,
            degrade_after=3,
        )
    )
    sink = RingBufferSink(1 << 18)
    tracer = Tracer(level=TraceLevel.QUERY, sinks=[sink])
    sim = Simulation(
        params,
        scheme_factory=scheme_factory(scheme),
        tracer=tracer,
        report_schedule=ReportSchedule(window=8),
    )
    result = sim.run()
    assert sink.dropped == 0, "ring sized too small for an exact comparison"
    return result, TraceAnalyzer(sink.events)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("scheme", ("inval+cache", "sgt+cache", "mv-caching"))
def test_resilience_trace_events_match_counters_exactly(scheme, seed):
    """Every resilience counter increment emits exactly one trace event
    of the matching kind -- the observability contract extended to the
    recovery machinery."""
    from repro.obs.trace import (
        EV_RESILIENCE_CHECKPOINT,
        EV_RESILIENCE_CRASH,
        EV_RESILIENCE_DEADLINE,
        EV_RESILIENCE_DEGRADE,
        EV_RESILIENCE_RESTART,
        EV_RESILIENCE_RESTORE,
        EV_RESILIENCE_RETRY,
        EV_RESILIENCE_WATCHDOG,
    )
    from repro.stats import names as metric_names

    result, analyzer = _run_resilient_traced(scheme, seed)
    kinds = analyzer.kind_counts()

    def metric(name):
        counter = result.metrics.get_counter(name)
        return counter.value if counter else 0

    pairs = [
        (EV_RESILIENCE_RETRY, metric_names.RESILIENCE_RETRIES),
        (EV_RESILIENCE_CRASH, metric_names.RESILIENCE_CRASHES),
        (EV_RESILIENCE_CHECKPOINT, metric_names.RESILIENCE_CHECKPOINT_SAVES),
        (EV_RESILIENCE_RESTORE, metric_names.RESILIENCE_CHECKPOINT_RESTORES),
        (EV_RESILIENCE_DEADLINE, metric_names.RESILIENCE_DEADLINE_ABANDONED),
        (EV_RESILIENCE_WATCHDOG, metric_names.RESILIENCE_WATCHDOG_ESCALATIONS),
        (
            EV_RESILIENCE_DEGRADE,
            metric_names.RESILIENCE_DEGRADATION_TRANSITIONS,
        ),
    ]
    for kind, name in pairs:
        assert kinds.get(kind, 0) == metric(name), (kind, name)
    # The run must actually exercise the machinery to prove anything.
    assert metric(metric_names.RESILIENCE_CRASHES) > 0
    assert metric(metric_names.RESILIENCE_RETRIES) > 0
    # Restarts happen on the first heard cycle after the outage, so an
    # end-of-run crash may never restart -- but never the reverse.
    assert kinds.get(EV_RESILIENCE_RESTART, 0) <= metric(
        metric_names.RESILIENCE_CRASHES
    )
    # Time-to-recover samples only exist after a restart or reconnect.
    ttr = result.metrics.get_sampler(metric_names.TIME_TO_RECOVER_CYCLES)
    if ttr is not None and ttr.count:
        assert kinds.get(EV_RESILIENCE_RESTART, 0) > 0

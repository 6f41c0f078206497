"""The disabled-tracer contract, checked exactly (DESIGN §8).

"Tracing that is off costs one ``is None`` per potential event" is a
structural claim, so it is tested structurally rather than timed: a
runtime built with a tracer at ``TraceLevel.OFF`` -- sink attached --
must hold ``None`` in every gated reference (``_trace_c`` / ``_trace_q``
/ ``_trace_r``, the kernel's ``_trace_hook``), must leave the sink
untouched, and must measure exactly what the tracer-less run measures.
``Tracer.emit`` does not look at the level, so an emit that bypasses
:func:`repro.obs.trace.gate` lands in the ring and fails this test.
"""

import pytest

from repro.cohort.oracle import oracle_params, registry_delta
from repro.experiments.schemes import scheme_factory
from repro.obs.trace import RingBufferSink, TraceLevel, Tracer
from repro.runtime import Simulation
from repro.shard import ShardedSimulation


def _gates(root):
    """``(owner class, attribute, value)`` of every ``_trace_*`` attribute
    reachable from ``root`` through repro's own objects and containers."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            attrs = dict(getattr(obj, "__dict__", {}))
            for klass in type(obj).__mro__:
                for name in getattr(klass, "__slots__", ()):
                    if hasattr(obj, name):
                        attrs[name] = getattr(obj, name)
            for name, value in attrs.items():
                if name.startswith("_trace_"):
                    found.append((type(obj).__name__, name, value))
                else:
                    stack.append(value)
    return found


def _single(scheme, faults):
    def build(tracer):
        return Simulation(
            oracle_params(3, seed=11, faults=faults),
            scheme_factory=scheme_factory(scheme),
            tracer=tracer,
        )

    return build


def _sharded(tracer):
    return ShardedSimulation(
        oracle_params(3, seed=11, faults=True),
        scheme_factory("multiversion+cache"),
        num_shards=2,
        tracer=tracer,
    )


KERNEL = {"Environment", "ProgramBuilder", "BroadcastChannel"}


@pytest.mark.parametrize(
    "build, gated_classes",
    [
        (
            _single("inval", faults=False),
            KERNEL | {"Simulation", "SingleChannelBackend", "BroadcastClient"},
        ),
        (
            _single("sgt+cache", faults=True),
            KERNEL
            | {
                "Simulation",
                "SingleChannelBackend",
                "BroadcastClient",
                "FaultyChannel",
            },
        ),
        (
            _sharded,
            KERNEL
            | {
                "ShardedSimulation",
                "ShardedBroadcastBackend",
                "ShardedClient",
                "FaultyChannel",
            },
        ),
    ],
    ids=["inval", "sgt+cache-faults", "sharded-k2-faults"],
)
def test_off_tracer_is_structurally_absent(build, gated_classes):
    untraced = build(None).run()

    ring = RingBufferSink(1 << 12)
    sim = build(Tracer(level=TraceLevel.OFF, sinks=[ring]))
    result = sim.run()

    gates = _gates(sim)
    # Every component class that can emit was reached, so "all None"
    # below cannot pass vacuously.
    assert gated_classes <= {owner for owner, _, _ in gates}
    assert [gate for gate in gates if gate[2] is not None] == []
    assert len(ring) == 0 and ring.dropped == 0
    assert registry_delta(untraced.metrics, result.metrics) == []


def test_the_walk_sees_a_live_gate():
    """Negative control: one level up, the same walk finds live gates
    and the ring fills."""
    ring = RingBufferSink(1 << 16)
    sim = _single("inval", faults=False)(
        Tracer(level=TraceLevel.CYCLE, sinks=[ring])
    )
    sim.run()
    live = {(owner, name) for owner, name, gate in _gates(sim) if gate is not None}
    assert ("ProgramBuilder", "_trace_c") in live
    assert ("BroadcastClient", "_trace_q") not in live
    assert len(ring) > 0

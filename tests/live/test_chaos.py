"""The chaos proxy decides a cycle's fate with the shared fate function.

A proxy link sizes the fate from the CONTROL payload's leading geometry
and must then agree, cycle after cycle, with ``decide_fate`` run on a
pipeline in the same state -- the rule every simulated receiver uses --
and act on it frame by frame: a lost control segment arrives damaged,
a lost slot's frame does not arrive, everything else passes untouched.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultParameters
from repro.faults.models import build_pipeline, decide_fate
from repro.live.chaos import _Link
from repro.live.codec import CONTROL, DATA, BitWriter, Frame, encode_frame
from repro.stats.metrics import MetricsRegistry

probability = st.sampled_from([0.0, 0.1, 0.5, 1.0])

fault_parameters = st.builds(
    FaultParameters,
    slot_loss=probability,
    burst_rate=probability,
    burst_length=st.sampled_from([1.0, 3.0]),
    control_loss=probability,
    truncation=probability,
    report_delay=probability,
    report_max_delay=st.sampled_from([1.0, 4.0, 40.0]),
)


def control_payload(control_slots, index_slots, n_data, n_overflow):
    w = BitWriter()
    w.write(0, 64)  # start_slot
    w.write(control_slots, 16)
    w.write(index_slots, 16)
    w.write(0, 2)  # organization code
    w.write(n_data, 16)
    w.write(n_overflow, 16)
    return w.getvalue() + b"rest of the control segment"


@settings(max_examples=60, deadline=None)
@given(
    faults=fault_parameters,
    seed=st.integers(0, 2**32),
    control_slots=st.integers(1, 3),
    index_slots=st.integers(0, 2),
    n_data=st.integers(1, 12),
    n_overflow=st.integers(0, 3),
    cycles=st.integers(1, 5),
)
def test_link_fate_is_the_shared_fate(
    faults, seed, control_slots, index_slots, n_data, n_overflow, cycles
):
    link_metrics, twin_metrics = MetricsRegistry(), MetricsRegistry()
    link = _Link(faults, random.Random(seed), [], link_metrics)
    twin = build_pipeline(faults, random.Random(seed))
    total = control_slots + index_slots + n_data + n_overflow
    payload = control_payload(control_slots, index_slots, n_data, n_overflow)
    for cycle in range(1, cycles + 1):
        expected = decide_fate(twin, cycle, total, control_slots, twin_metrics)

        clean = encode_frame(CONTROL, cycle, 0, payload)
        forwarded = link.transform(Frame(CONTROL, cycle, 0, payload))
        assert link._fates == {cycle: expected}
        assert (forwarded != clean) == expected.control_lost
        assert len(forwarded) == len(clean)

        for slot in range(control_slots, total):
            frame = Frame(DATA, cycle, slot, b"bucket")
            forwarded = link.transform(frame)
            if slot in expected.lost_slots:
                assert forwarded is None
            else:
                assert forwarded == encode_frame(DATA, cycle, slot, b"bucket")
    assert link_metrics.snapshot() == twin_metrics.snapshot()

"""A CONTROL frame that lies about how many entries follow.

The control segment announces each of its sets -- a report's items, the
graph diff's nodes and edges -- by a 32-bit count.  A CRC-valid frame
can announce 2**32 - 1 of them over a payload of a few hundred bytes.
It must end in ``CodecError``, and what the decoder allocates on the way
must be bounded by the bits the payload holds, not by the count it
announces: every run is read entry by entry until the bits run out.
"""

import tracemalloc

import pytest

from repro.broadcast.program import BroadcastProgram
from repro.config import ServerParameters
from repro.core.control import BroadcastRequirements, ControlInfo, report_from_updates
from repro.graph.sgraph import GraphDiff, TxnId
from repro.live.codec import (
    CONTROL,
    HEADER_BYTES,
    CodecError,
    CycleCodec,
    WireProfile,
    decode_frame,
    encode_frame,
)

CYCLE = 100
#: A decoded id costs a tuple, an int and a list slot (about 120 bytes)
#: and takes at least 1 + 4 bits of these profiles' payloads; a
#: count-sized allocation would be GiBs.
BYTES_PER_PAYLOAD_BIT = 32
SLACK = 16 * 1024


def _profile(sgt):
    requirements = BroadcastRequirements(needs_sgt=sgt)
    return WireProfile.from_params(ServerParameters(), requirements)


def _program(sgt, items, nodes, edges):
    writers = {item: TxnId(CYCLE - item % 3, item % 7) for item in items} if sgt else None
    diff = None
    if sgt:
        diff = GraphDiff(
            cycle=CYCLE,
            nodes=frozenset(TxnId(CYCLE - n % 4, n) for n in range(nodes)),
            edges=frozenset(
                (TxnId(CYCLE - e % 5, e), TxnId(CYCLE, e % 9)) for e in range(edges)
            ),
        )
    control = ControlInfo(
        cycle=CYCLE,
        invalidation=report_from_updates(CYCLE, frozenset(items), writers),
        graph_diff=diff,
    )
    return BroadcastProgram(cycle=CYCLE, control=control, data_buckets=[])


def _count_at(profile, count):
    """Bit offset of ``count``: after the geometry (130 bits), the
    control's age, its size units and the report's age comes the
    report's item count; with no items, the window count, the diff
    flag and the diff's age, then its node count, its nodes (none) and
    its edge count."""
    v = profile.version_bits
    items = 130 + v + 32 + v
    nodes = items + 32 + 8 + 1 + v
    return {"items": items, "nodes": nodes, "edges": nodes + 32}[count]


CASES = {
    # name: (sgt, the count that lies, report items, diff nodes, diff edges)
    "augmented report items": (True, "items", range(1, 60), 0, 0),
    "graph-diff nodes": (True, "nodes", (), 40, 40),
    "graph-diff edges": (True, "edges", (), 0, 50),
    "report items without sgt": (False, "items", range(1, 90), 0, 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_count_of_two_to_the_32_is_refused_within_the_payloads_bits(case):
    sgt, count, items, nodes, edges = CASES[case]
    profile = _profile(sgt)
    codec = CycleCodec(profile)
    payload = codec.encode_control(_program(sgt, items, nodes, edges), 0)[HEADER_BYTES:]
    assert 200 <= len(payload) <= 600  # a few hundred bytes

    size = 8 * len(payload)
    bits, shift = int.from_bytes(payload, "big"), size - _count_at(profile, count) - 32
    honest = {"items": len(items), "nodes": nodes, "edges": edges}[count]
    assert (bits >> shift) & 0xFFFFFFFF == honest
    lying = (bits | (0xFFFFFFFF << shift)).to_bytes(len(payload), "big")
    frame = decode_frame(encode_frame(CONTROL, CYCLE, 0, lying))[0]

    tracemalloc.start()
    try:
        with pytest.raises(CodecError):
            codec.decode_control(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BYTES_PER_PAYLOAD_BIT * size + SLACK, (peak, size)

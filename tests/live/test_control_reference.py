"""The run-coded control segment against the field-wise reference.

``CycleCodec`` codes every transaction id of a CONTROL payload -- the
graph diff's nodes and edges, the augmented report's writer tags -- as
one run (``BitWriter.write_txns`` / ``BitReader.read_txns``);
``reference_codec.ReferenceCodec`` codes them one ``write`` / ``read``
per field, as the codec did before.  Over any wire profile and control
segment, with ages and sequence numbers on both sides of every escape
marker, the two must

* air the same bytes and decode them to equal headers,
* refuse the same ids to encode (an age of 2**32, a negative age, a
  sequence number out of 32 bits), and
* refuse the same mangled payloads with the same ``CodecError``: a run
  truncated, a needless escape, a stamp before cycle 0, descending
  nodes or edges, trailing bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.program import BroadcastProgram
from repro.core.control import ControlInfo, report_from_updates
from repro.graph.sgraph import GraphDiff, TxnId
from repro.live.codec import (
    CONTROL,
    HEADER_BYTES,
    BitReader,
    BitWriter,
    CodecError,
    CycleCodec,
    decode_frame,
    encode_frame,
)
from tests.live.reference_codec import ReferenceCodec, _write_age
from tests.live.test_codec import wire_profiles

#: The largest cycle a frame header can carry: ages up to 2**32 - 1 fit.
LAST_CYCLE = 2**32 - 1


def _ages(profile, cycle):
    marker = (1 << profile.version_bits) - 1
    edges = [age for age in (0, 1, marker - 1, marker, 2**32 - 1) if age <= cycle]
    return st.sampled_from(edges) | st.integers(0, min(cycle, 70))


def _seqs(profile):
    marker = (1 << profile.tid_bits) - 1
    return st.sampled_from([0, marker - 1, marker, marker + 1, 2**32 - 1]) | st.integers(
        0, 500
    )


def _ids(profile, cycle):
    return st.builds(
        lambda age, seq: TxnId(cycle - age, seq), _ages(profile, cycle), _seqs(profile)
    )


@st.composite
def _reports(draw, profile, cycle):
    items = draw(st.frozensets(st.integers(0, 2**32 - 1), max_size=5))
    writers = None
    if profile.sgt and items:
        tagged = draw(st.sets(st.sampled_from(sorted(items)), max_size=5))
        writers = {item: draw(_ids(profile, cycle)) for item in tagged}
    return report_from_updates(
        cycle=cycle - draw(_ages(profile, cycle)),
        updated_items=items,
        first_writers=writers,
        items_per_bucket=profile.items_per_bucket,
    )


@st.composite
def control_cases(draw):
    """``(profile, program)``: a program that is all control segment."""
    profile = draw(wire_profiles())
    cycle = draw(st.sampled_from([60, LAST_CYCLE]))
    ids = _ids(profile, cycle)
    diff = None
    if draw(st.booleans()):
        diff = GraphDiff(
            cycle=cycle - draw(_ages(profile, cycle)),
            nodes=draw(st.frozensets(ids, max_size=6)),
            edges=draw(st.frozensets(st.tuples(ids, ids), max_size=8)),
        )
    control = ControlInfo(
        cycle=cycle - draw(_ages(profile, cycle)),
        invalidation=draw(_reports(profile, cycle)),
        graph_diff=diff,
        window=tuple(draw(st.lists(_reports(profile, cycle), max_size=2))),
        size_units=draw(st.integers(0, 2**32 - 1)),
    )
    return profile, _program(profile, cycle, control)


def _program(profile, cycle, control):
    return BroadcastProgram(
        cycle=cycle, control=control, data_buckets=[], organization=profile.organization
    )


def _verdict(codec, payload, cycle):
    """What ``codec`` makes of a CONTROL payload: its header, or the error."""
    frame = decode_frame(encode_frame(CONTROL, cycle, 0, payload))[0]
    try:
        return codec.decode_control(frame)
    except CodecError as error:
        return f"refused: {error}"


def _same_verdict(profile, payload, cycle):
    verdict = _verdict(ReferenceCodec(profile), payload, cycle)
    assert _verdict(CycleCodec(profile), payload, cycle) == verdict
    return verdict


class _Liar(ReferenceCodec):
    """Spells the ``at``-th transaction id it writes wrong: its age
    escaped although it fits (its seq, if the age cannot be), or its
    stamp a cycle before cycle 0."""

    def __init__(self, profile, at, lie):
        super().__init__(profile)
        self.at, self.lie, self.written = at, lie, 0

    def _write_txn(self, w, tid, base):
        at, self.written = self.written, self.written + 1
        vbits, tbits = self.profile.version_bits, self.profile.tid_bits
        age, seq = base - tid.cycle, tid.seq
        if at != self.at:
            super()._write_txn(w, tid, base)
        elif self.lie == "stamp before cycle 0":
            _write_age(w, base + 1, vbits)
            _write_age(w, seq, tbits)
        elif age < (1 << vbits) - 1:
            w.write((1 << vbits) - 1, vbits)
            w.write(age, 32)
            _write_age(w, seq, tbits)
        elif seq < (1 << tbits) - 1:
            _write_age(w, age, vbits)
            w.write((1 << tbits) - 1, tbits)
            w.write(seq, 32)
        else:
            super()._write_txn(w, tid, base)  # both fields escaped already


class _Backwards(TxnId):
    """An id that sorts the other way round: an encoder given a set of
    them airs it in descending order."""

    __slots__ = ()

    def __lt__(self, other):
        return TxnId.__gt__(self, other)


def _payload(codec, program):
    return codec.encode_control(program, 7)[HEADER_BYTES:]


@settings(max_examples=300, deadline=None)
@given(control_cases(), st.data())
def test_the_run_coder_equals_the_reference(case, data):
    profile, program = case
    payload = _payload(ReferenceCodec(profile), program)
    assert _payload(CycleCodec(profile), program) == payload
    header = _same_verdict(profile, payload, program.cycle)
    assert header.control == program.control and header.start_slot == 7

    # Truncated, most often inside a run (they are most of the payload),
    # and grown by trailing bytes.
    cut = data.draw(st.integers(0, len(payload) - 1))
    assert _same_verdict(profile, payload[:cut], program.cycle).startswith("refused")
    grown = payload + data.draw(st.binary(min_size=1, max_size=3))
    assert _same_verdict(profile, grown, program.cycle).startswith("refused")


def _ids_written(profile, control):
    diff = control.graph_diff
    reports = (control.invalidation, *control.window)
    tagged = sum(len(report.first_writers) for report in reports) if profile.sgt else 0
    return tagged + (len(diff.nodes) + 2 * len(diff.edges) if diff else 0)


@settings(max_examples=300, deadline=None)
@given(control_cases(), st.data())
def test_a_lying_id_is_refused_as_the_reference_refuses_it(case, data):
    profile, program = case
    written = _ids_written(profile, program.control)
    if not written:
        return
    at = data.draw(st.integers(0, written - 1))
    lies = ["needless escape"]
    if program.cycle < LAST_CYCLE:  # else the lying age is 2**32 itself
        lies.append("stamp before cycle 0")
    lie = data.draw(st.sampled_from(lies))
    payload = _payload(_Liar(profile, at, lie), program)
    verdict = _same_verdict(profile, payload, program.cycle)
    if lie == "stamp before cycle 0":
        assert verdict == f"refused: stamp is older than cycle 0 (base {program.cycle})"
    elif payload != _payload(CycleCodec(profile), program):
        assert "escaped although it fits its field" in verdict


@settings(max_examples=200, deadline=None)
@given(control_cases())
def test_descending_sets_are_refused_as_the_reference_refuses_them(case):
    profile, program = case
    diff = program.control.graph_diff
    if diff is None or (len(diff.nodes) < 2 and len(diff.edges) < 2):
        return
    backwards = GraphDiff(
        cycle=diff.cycle,
        nodes=frozenset(_Backwards(*node) for node in diff.nodes),
        edges=frozenset((_Backwards(*a), _Backwards(*b)) for a, b in diff.edges),
    )
    control = ControlInfo(
        cycle=program.control.cycle,
        invalidation=program.control.invalidation,
        graph_diff=backwards,
        window=program.control.window,
        size_units=program.control.size_units,
    )
    lying = _program(profile, program.cycle, control)
    payload = _payload(ReferenceCodec(profile), lying)
    assert _payload(CycleCodec(profile), lying) == payload
    what = "nodes" if len(diff.nodes) >= 2 else "edges"
    assert _same_verdict(profile, payload, program.cycle) == (
        f"refused: graph-diff {what} are not in strictly ascending order"
    )


def _refused_ids(cycle):
    """Ids no field can carry: an age of 2**32, negative ages, and
    sequence numbers out of 32 bits."""
    return st.sampled_from(
        [
            TxnId(cycle - 2**32, 0),
            TxnId(cycle + 1, 0),
            TxnId(cycle + 2**40, 1),
            TxnId(cycle, -1),
            TxnId(cycle, 2**32),
        ]
    )


@settings(max_examples=200, deadline=None)
@given(control_cases(), st.data())
def test_an_id_no_field_can_carry_is_refused_by_both(case, data):
    profile, program = case
    cycle, control = program.cycle, program.control
    bad = data.draw(_refused_ids(cycle))
    where = data.draw(st.sampled_from(["node", "src", "dst", "writer"]))
    diff = control.graph_diff or GraphDiff(cycle, frozenset(), frozenset())
    nodes, edges = diff.nodes, diff.edges
    invalidation = control.invalidation
    if where == "node":
        nodes = nodes | {bad}
    elif where == "src":
        edges = edges | {(bad, TxnId(cycle, 0))}
    elif where == "dst":
        edges = edges | {(TxnId(cycle, 0), bad)}
    elif profile.sgt:
        item = data.draw(st.integers(0, 2**32 - 1))
        invalidation = report_from_updates(
            invalidation.cycle,
            invalidation.updated_items | {item},
            {**invalidation.first_writers, item: bad},
            profile.items_per_bucket,
        )
    else:
        return  # no writer tags ride without SGT
    lying = _program(
        profile,
        cycle,
        ControlInfo(
            cycle=control.cycle,
            invalidation=invalidation,
            graph_diff=GraphDiff(diff.cycle, nodes, edges),
            window=control.window,
            size_units=control.size_units,
        ),
    )
    for codec in (ReferenceCodec(profile), CycleCodec(profile)):
        with pytest.raises(CodecError):
            codec.encode_control(lying, 0)


# -- the run coder's branches, each taken on purpose ----------------------------


def test_each_branch_of_the_run_coder():
    """Escaped age, escaped seq, a spill inside a run, truncation inside
    a run, a needless escape refused, a stamp before cycle 0 refused,
    and keyed rows with and without an id."""
    ids = [TxnId(90, 0), TxnId(89, 2), TxnId(5, 3), TxnId(90, 2**32 - 1)] * 40
    w = BitWriter()
    w.write(1, 1)
    w.write_txns(ids, base=90, vbits=1, tbits=2)
    rows = [(7, None), (8, TxnId(90, 1)), (2**32 - 1, TxnId(1, 9))]
    w.write_txns(rows, base=90, vbits=1, tbits=2, key_bits=32)
    payload = w.getvalue()
    r = BitReader(payload)
    assert r.read(1) == 1
    decoded = r.read_txns(len(ids), 90, 1, 2)
    assert decoded == ids and all(type(tid) is TxnId for tid in decoded)
    assert r.read_txns(len(rows), 90, 1, 2, key_bits=32) == rows
    r.finish()

    # The same bits, field by field.
    reference = BitWriter()
    reference.write(1, 1)
    for tid in ids:
        _write_age(reference, 90 - tid.cycle, 1)
        _write_age(reference, tid.seq, 2)
    for key, tid in rows:
        reference.write(key, 32)
        reference.write(tid is not None, 1)
        if tid is not None:
            _write_age(reference, 90 - tid.cycle, 1)
            _write_age(reference, tid.seq, 2)
    assert reference.getvalue() == payload

    cut = BitReader(payload[:100])
    assert cut.read(1) == 1
    with pytest.raises(CodecError, match="truncated"):
        cut.read_txns(len(ids), 90, 1, 2)
    # Age 0 escaped: marker, then 32 explicit zero bits.
    needless = BitWriter()
    needless.write(1, 1)
    needless.write(0, 32)
    needless.write(0, 2)
    with pytest.raises(CodecError, match="escaped although it fits"):
        BitReader(needless.getvalue()).read_txns(1, 90, 1, 2)
    early = BitWriter()
    early.write(1, 1)
    early.write(91, 32)
    early.write(0, 2)
    with pytest.raises(CodecError, match="older than cycle 0"):
        BitReader(early.getvalue()).read_txns(1, 90, 1, 2)
    for bad in (TxnId(91, 0), TxnId(90 - 2**32, 0), TxnId(90, -1), TxnId(90, 2**32)):
        with pytest.raises(CodecError):
            BitWriter().write_txns([bad], base=90, vbits=1, tbits=2)
    with pytest.raises(CodecError):
        BitWriter().write_txns([(2**32, None)], base=90, vbits=1, tbits=2, key_bits=32)

"""Reference model of the codec's payloads, for ``test_codec_reference``
and ``test_control_reference``.

The field-wise writers and readers below are the codec as it stood
before it went a record at a time (commit e2a0eb5) and before it coded
the control segment's transaction ids as runs (commit 1dc0fd5), bodies
verbatim: one ``BitWriter.write`` / ``BitReader.read`` per field, every
age through ``_write_age`` / ``_read_age``, the base found by a second
scan.  :class:`ReferenceCodec` plugs them in where :class:`CycleCodec`
cuts templates, slices windows and packs runs, so only framing and the
two bucket memories are shared and everything inside a payload is not:
agreement means the same bits for the same bucket or control segment
and the same refusals for the same mistakes.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Sequence, Tuple

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    MultiversionOrganization,
    OldVersionRecord,
)
from repro.core.control import (
    ControlInfo,
    InvalidationReport,
    report_from_updates,
)
from repro.graph.sgraph import GraphDiff, TxnId
from repro.live.codec import (
    _ORGS,
    CONTROL,
    MAX_PAYLOAD_BYTES,
    BitReader,
    BitWriter,
    CodecError,
    ControlHeader,
    CycleCodec,
    Frame,
    _ascending,
    encode_frame,
)

_FLAT = MultiversionOrganization.NONE
_AGE_EXPLICIT_BITS = 32


def reference_bucket_base(bucket: Bucket) -> int:
    base = 0
    for records in (bucket.records, bucket.old_records):
        for record in records:
            if record.version > base:
                base = record.version
            writer = record.writer
            if writer is not None and writer.cycle > base:
                base = writer.cycle
    return base


def _write_age(w: BitWriter, age: int, bits: int) -> None:
    if age < 0:
        raise CodecError(f"negative age {age} (field is age-relative)")
    marker = (1 << bits) - 1
    if age < marker:
        w.write(age, bits)
    else:
        w.write(marker, bits)
        w.write(age, _AGE_EXPLICIT_BITS)


def _read_age(r: BitReader, bits: int) -> int:
    marker = (1 << bits) - 1
    value = r.read(bits)
    if value == marker:
        value = r.read(_AGE_EXPLICIT_BITS)
        if value < marker:
            raise CodecError(f"age {value} escaped although it fits its field")
    return value


def _read_stamp(r: BitReader, bits: int, base: int) -> int:
    stamp = base - _read_age(r, bits)
    if stamp < 0:
        raise CodecError(f"stamp is older than cycle 0 (base {base})")
    return stamp


class ReferenceCodec(CycleCodec):
    """A :class:`CycleCodec` whose bucket and control payloads are packed
    and parsed field by field."""

    # -- field helpers ------------------------------------------------------

    def _write_txn(self, w: BitWriter, tid: TxnId, base: int) -> None:
        _write_age(w, base - tid.cycle, self.profile.version_bits)
        _write_age(w, tid.seq, self.profile.tid_bits)

    def _read_txn(self, r: BitReader, base: int) -> TxnId:
        cycle = _read_stamp(r, self.profile.version_bits, base)
        return TxnId(cycle=cycle, seq=_read_age(r, self.profile.tid_bits))

    def _write_opt_txn(
        self, w: BitWriter, tid: Optional[TxnId], base: int
    ) -> None:
        if tid is None:
            w.write(0, 1)
        else:
            w.write(1, 1)
            self._write_txn(w, tid, base)

    def _read_opt_txn(self, r: BitReader, base: int) -> Optional[TxnId]:
        if r.read(1):
            return self._read_txn(r, base)
        return None

    def _write_value(self, w: BitWriter, value: int) -> None:
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        w.write(zigzag, self.profile.data_bits)

    def _read_value(self, r: BitReader) -> int:
        zigzag = r.read(self.profile.data_bits)
        return (zigzag >> 1) if not (zigzag & 1) else -((zigzag + 1) >> 1)

    def _write_version(self, w: BitWriter, version: int, base: int) -> None:
        # Versions are age-relative (Section 3.2); version 0 (the initial
        # database load, whose age grows without bound) gets its own bit.
        if version == 0:
            w.write(0, 1)
        else:
            w.write(1, 1)
            _write_age(w, base - version, self.profile.version_bits)

    def _read_version(self, r: BitReader, base: int) -> int:
        if not r.read(1):
            return 0
        version = _read_stamp(r, self.profile.version_bits, base)
        if version == 0:
            raise CodecError("version 0 rides as its flag bit, not as an age")
        return version

    def _write_record(self, w: BitWriter, record: ItemRecord, base: int) -> None:
        w.write(record.item, self.profile.key_bits)
        self._write_value(w, record.value)
        self._write_version(w, record.version, base)
        self._write_opt_txn(w, record.writer, base)
        if self.profile.organization is not _FLAT:
            w.write(1 if record.has_old_versions else 0, 1)
        elif record.has_old_versions:
            raise CodecError(
                "has_old_versions pointers only exist where old versions "
                "are on the air"
            )

    def _read_record(self, r: BitReader, base: int) -> ItemRecord:
        item = r.read(self.profile.key_bits)
        value = self._read_value(r)
        version = self._read_version(r, base)
        writer = self._read_opt_txn(r, base)
        has_old = False
        if self.profile.organization is not _FLAT:
            has_old = bool(r.read(1))
        return ItemRecord(
            item=item,
            value=value,
            version=version,
            writer=writer,
            has_old_versions=has_old,
        )

    def _write_old(self, w: BitWriter, old: OldVersionRecord, base: int) -> None:
        w.write(old.item, self.profile.key_bits)
        self._write_value(w, old.value)
        self._write_version(w, old.version, base)
        _write_age(w, old.valid_to - old.version, self.profile.version_bits)
        self._write_opt_txn(w, old.writer, base)

    def _read_old(self, r: BitReader, base: int) -> OldVersionRecord:
        item = r.read(self.profile.key_bits)
        value = self._read_value(r)
        version = self._read_version(r, base)
        valid_to = version + _read_age(r, self.profile.version_bits)
        writer = self._read_opt_txn(r, base)
        return OldVersionRecord(
            item=item,
            value=value,
            version=version,
            valid_to=valid_to,
            writer=writer,
        )

    # -- reports -------------------------------------------------------------

    def _write_report(
        self, w: BitWriter, report: InvalidationReport, cycle: int
    ) -> None:
        _write_age(w, cycle - report.cycle, self.profile.version_bits)
        items = sorted(report.updated_items)
        w.write(len(items), 32)
        for item in items:
            w.write(item, self.profile.key_bits)
            if self.profile.sgt:
                self._write_opt_txn(w, report.first_writers.get(item), cycle)

    def _read_report(self, r: BitReader, cycle: int) -> InvalidationReport:
        report_cycle = _read_stamp(r, self.profile.version_bits, cycle)
        key_bits, count = self.profile.key_bits, r.read(32)
        writers: Dict[int, TxnId] = {}
        if self.profile.sgt:
            items = []
            for _ in range(count):
                item = r.read(key_bits)
                items.append(item)
                writer = self._read_opt_txn(r, cycle)
                if writer is not None:
                    writers[item] = writer
        else:
            # Keys alone ride back to back: one read, sliced apart.
            run, mask = r.read(key_bits * count), (1 << key_bits) - 1
            items = [
                (run >> shift) & mask
                for shift in range(key_bits * (count - 1), -1, -key_bits)
            ]
        _ascending(items, "report items")
        # Bucket-level projection is derived, not transmitted: clients map
        # items to pages with the same flat arithmetic as the builder.
        return report_from_updates(
            cycle=report_cycle,
            updated_items=frozenset(items),
            first_writers=writers or None,
            items_per_bucket=self.profile.items_per_bucket,
        )

    # -- the control segment (cycle-relative: it is new every cycle) ---------

    def encode_control(
        self, program: BroadcastProgram, start_slot: int
    ) -> bytes:
        w = BitWriter()
        w.write(start_slot, 64)
        w.write(program.control_slots, 16)
        w.write(program.index_slots, 16)
        w.write(_ORGS.index(program.organization), 2)
        w.write(len(program.data_buckets), 16)
        w.write(len(program.overflow_buckets), 16)

        control = program.control
        cycle = program.cycle
        _write_age(w, cycle - control.cycle, self.profile.version_bits)
        w.write(control.size_units, 32)
        self._write_report(w, control.invalidation, cycle)
        if len(control.window) > 0xFF:
            raise CodecError(
                f"report window of {len(control.window)} exceeds the "
                "8-bit window field"
            )
        w.write(len(control.window), 8)
        for report in control.window:
            self._write_report(w, report, cycle)
        diff = control.graph_diff
        if diff is None:
            w.write(0, 1)
        else:
            w.write(1, 1)
            _write_age(w, cycle - diff.cycle, self.profile.version_bits)
            w.write(len(diff.nodes), 32)
            for node in sorted(diff.nodes):
                self._write_txn(w, node, cycle)
            w.write(len(diff.edges), 32)
            for src, dst in sorted(diff.edges):
                self._write_txn(w, src, cycle)
                self._write_txn(w, dst, cycle)
        return encode_frame(CONTROL, cycle, 0, w.getvalue())

    def decode_control(self, frame: Frame) -> ControlHeader:
        if frame.type != CONTROL:
            raise CodecError(f"expected a CONTROL frame, got 0x{frame.type:02x}")
        r = BitReader(frame.payload)
        cycle = frame.cycle
        start_slot = r.read(64)
        control_slots = r.read(16)
        index_slots = r.read(16)
        org_code = r.read(2)
        if org_code >= len(_ORGS):
            raise CodecError(f"unknown organization code {org_code}")
        num_data = r.read(16)
        num_overflow = r.read(16)

        control_cycle = _read_stamp(r, self.profile.version_bits, cycle)
        size_units = r.read(32)
        invalidation = self._read_report(r, cycle)
        window = tuple(
            self._read_report(r, cycle) for _ in range(r.read(8))
        )
        diff: Optional[GraphDiff] = None
        if r.read(1):
            diff_cycle = _read_stamp(r, self.profile.version_bits, cycle)
            nodes = [self._read_txn(r, cycle) for _ in range(r.read(32))]
            _ascending(nodes, "graph-diff nodes")
            edges = [
                (self._read_txn(r, cycle), self._read_txn(r, cycle))
                for _ in range(r.read(32))
            ]
            _ascending(edges, "graph-diff edges")
            diff = GraphDiff(
                cycle=diff_cycle, nodes=frozenset(nodes), edges=frozenset(edges)
            )
        r.finish()
        if control_slots < 1:
            raise CodecError("control_slots must be at least 1")
        # The data memory is as large as this header says, no larger,
        # and starts over when the organization or the count changes.
        organization = _ORGS[org_code]
        resized = (
            organization is not self._heard_organization
            or num_data != len(self._heard_data)
        )
        if resized:
            self._heard_data = [None] * num_data
            self._held_data = [None] * num_data
            self._assembled = None
        self._heard_organization = organization
        self._data_start = control_slots + index_slots
        header = ControlHeader(
            cycle=cycle,
            start_slot=start_slot,
            control_slots=control_slots,
            index_slots=index_slots,
            organization=organization,
            num_data_buckets=num_data,
            num_overflow_buckets=num_overflow,
            control=ControlInfo(
                cycle=control_cycle,
                invalidation=invalidation,
                graph_diff=diff,
                window=window,
                size_units=size_units,
            ),
        )
        if resized:
            self._data_header = header
        return header

    # -- buckets -------------------------------------------------------------

    def _bucket_entry(
        self, bucket: Bucket, with_records: bool, with_old: bool
    ) -> tuple:
        base = reference_bucket_base(bucket)
        w = BitWriter()
        w.write(bucket.index, 32)
        w.write(base, 32)
        if with_records:
            w.write(len(bucket.records), 16)
            for record in bucket.records:
                self._write_record(w, record, base)
        elif bucket.records:
            raise CodecError("overflow buckets hold old versions only")
        if with_old:
            w.write(len(bucket.old_records), 16)
            for old in bucket.old_records:
                self._write_old(w, old, base)
        elif bucket.old_records:
            raise CodecError(
                "old versions ride in data buckets only under the "
                "clustered organization"
            )
        payload = w.getvalue()
        # The parent made this check on every frame it wrapped.
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise CodecError(
                f"payload of {len(payload)} bytes exceeds the "
                f"{MAX_PAYLOAD_BYTES}-byte frame limit"
            )
        return bucket, base, payload, zlib.crc32(payload)

    def _decode_bucket(
        self,
        frame: Frame,
        heard: Sequence[Optional[tuple]],
        offset: int,
        with_records: bool,
        with_old: bool,
    ) -> Bucket:
        payload = frame.payload
        remembered = 0 <= offset < len(heard)
        known = heard[offset] if remembered else None
        if known is not None and known[0] == payload:
            _payload, base, bucket = known
        else:
            r = BitReader(payload)
            index = r.read(32)
            base = r.read(32)
            records: Tuple[ItemRecord, ...] = ()
            if with_records:
                records = tuple(
                    [self._read_record(r, base) for _ in range(r.read(16))]
                )
            old_records: Tuple[OldVersionRecord, ...] = ()
            if with_old:
                old_records = tuple(
                    [self._read_old(r, base) for _ in range(r.read(16))]
                )
            r.finish()
            bucket = Bucket(
                index=index, records=records, old_records=old_records
            )
            if reference_bucket_base(bucket) != base:
                raise CodecError(
                    f"base {base} is not the bucket's largest cycle stamp"
                )
            if remembered:
                heard[offset] = (payload, base, bucket)
        if base > frame.cycle:
            raise CodecError(
                f"bucket {bucket.index} carries a stamp of cycle {base}, "
                f"later than cycle {frame.cycle} of its frame"
            )
        return bucket

    # -- one record, for the template property --------------------------------

    def pack(self, record, base: int) -> Tuple[int, int]:
        """``(bits as an integer, number of bits)`` of one record."""
        w = BitWriter()
        w.write(1, 1)  # a sentinel above the record keeps its leading zeros
        if isinstance(record, OldVersionRecord):
            self._write_old(w, record, base)
        else:
            self._write_record(w, record, base)
        w.write(1, 1)  # ...and one below marks where the padding starts
        raw = w.getvalue()
        value = int.from_bytes(raw, "big")
        value >>= (value & -value).bit_length()  # padding and low sentinel
        nbits = value.bit_length() - 1
        return value - (1 << nbits), nbits

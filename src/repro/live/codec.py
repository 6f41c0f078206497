"""The broadcast wire format: framed, bit-packed cycles.

One broadcast cycle flies as a sequence of *frames*, one per slot-level
unit the chaos layer can drop independently -- exactly the failure
granularity of the sim's fault models:

```
[ CONTROL frame ][ DATA frame ]*[ OVERFLOW frame ]*
```

Each frame is ``header || payload``; the 20-byte header carries the
frame type, the cycle number, the cycle-relative slot and a CRC32 of
the payload, so a receiver can always attribute a corrupted payload to
its (cycle, slot) -- a corrupt control payload is a lost control
segment, a corrupt data payload a lost bucket, mirroring
:class:`~repro.faults.models.SlotLoss` / ``ControlCorruption``.

Payloads are bit-packed with the field widths of the analytic
:class:`~repro.server.sizing.SizeModel`: keys cost ``k`` units, values
``d`` units, version numbers ride age-relative in ``ceil(log2 S)`` bits
(Section 3.2) and transaction ids in ``ceil(log2 N)`` bits qualified
with an age-relative cycle (Section 3.3), so the wire size of a cycle
tracks the Figure 7 closed forms (``tests/live/test_codec.py`` pins the
agreement).  Two deliberate divergences from the strict per-scheme
formulas, both so that a decoded program is *bit-identical* to the
built one for every scheme:

* version ages, last-writer tags and (wherever old versions are on the
  air) the has-old pointer bit ride on every record (the paper's
  invalidation-only report omits them; our client stack stores them on
  every record, and the SGT layout already prices the pair as
  ``log2(S) + log2(N)`` bits);
* an age that overflows its field width escapes to an explicit 32-bit
  value (all-ones marker) instead of saturating.

The control segment counts its ages back from the cycle it airs in; a
DATA/OVERFLOW payload counts them back from its own *base*, the largest
cycle stamp in the bucket, written once after the bucket index::

    index:32 | base:32 | [records:16 | record*] | [old:16 | old record*]

An age against the base is never larger than the age against the cycle,
so the field widths and the escape rule are the paper's, and the same
bytes mean the same bucket in every cycle -- which is what lets
:class:`CycleCodec` skip, at both ends, the buckets that did not change.
Every payload has exactly one accepted spelling (no trailing bytes, zero
padding, the base equal to the largest stamp, no needless escape, sets
in ascending order), so comparing payload bytes is comparing buckets.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, is_dataclass
from enum import Enum
from math import ceil, log2
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union
from typing import get_args, get_type_hints

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    MultiversionOrganization,
    OldVersionRecord,
)
from repro.config import ServerParameters
from repro.core.control import (
    BroadcastRequirements,
    ControlInfo,
    InvalidationReport,
    report_from_updates,
)
from repro.graph.sgraph import GraphDiff, TxnId


class FrameError(Exception):
    """Base wire-format error: the byte stream is not a valid frame."""


class FrameTruncated(FrameError):
    """The buffer ends inside a frame header or payload."""


class FrameCorrupt(FrameError):
    """The payload does not match the header's CRC32."""

    def __init__(self, message: str, frame: "Frame") -> None:
        super().__init__(message)
        #: The frame whose payload failed its checksum (payload bytes as
        #: received); receivers map it to a lost slot / control segment.
        self.frame = frame


class CodecError(FrameError):
    """A payload (or a program being encoded) violates the bit layout."""


# -- bit packing --------------------------------------------------------------

#: The writer flushes its accumulator in whole bytes, and the reader
#: refills its window, this many bits at a time: shifting a Python int
#: costs its length, so neither may grow with the payload.
_WORD_BITS = 512


class BitWriter:
    """MSB-first bit packer over an int accumulator."""

    __slots__ = ("_chunks", "_acc", "_nbits")

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, bits: int) -> None:
        # A negative value shifts down to -1, so one test covers both ends.
        if value >> bits:
            raise CodecError(f"value {value} does not fit in {bits} bits")
        self._acc = (self._acc << bits) | value
        self._nbits += bits
        if self._nbits >= _WORD_BITS:
            spare = self._nbits & 7
            self._chunks.append(
                (self._acc >> spare).to_bytes(self._nbits >> 3, "big")
            )
            self._acc &= (1 << spare) - 1
            self._nbits = spare

    def getvalue(self) -> bytes:
        """The packed bytes, zero-padded to a byte boundary."""
        pad = -self._nbits & 7
        tail = (self._acc << pad).to_bytes((self._nbits + pad) >> 3, "big")
        return b"".join(self._chunks) + tail


class BitReader:
    """MSB-first reader over immutable payload bytes, one window at a time."""

    __slots__ = ("_data", "_next", "_acc", "_have")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._next = 0  # first byte not yet in the window
        self._acc = 0
        self._have = 0  # unread bits at the low end of ``_acc``

    def read(self, bits: int) -> int:
        have = self._have - bits
        if have < 0:
            take = max(_WORD_BITS, -have + 7) >> 3
            chunk = self._data[self._next : self._next + take]
            have += 8 * len(chunk)
            if have < 0:
                raise CodecError("bit stream truncated")
            self._next += len(chunk)
            self._acc = (
                (self._acc & ((1 << self._have) - 1)) << (8 * len(chunk))
            ) | int.from_bytes(chunk, "big")
        self._have = have
        return (self._acc >> have) & ((1 << bits) - 1)

    def finish(self) -> None:
        """The payload must end here: under a byte of padding, all zero."""
        if self._have >= 8 or self._next < len(self._data):
            raise CodecError("trailing bytes after the last field")
        if self._acc & ((1 << self._have) - 1):
            raise CodecError("non-zero padding bits")


# -- framing ------------------------------------------------------------------

MAGIC = b"\xb7\x1e"
_HEADER = struct.Struct(">2sBBIIII")
HEADER_BYTES = _HEADER.size  # 20

HELLO = 0x01
CONTROL = 0x02
DATA = 0x03
OVERFLOW = 0x04
END = 0x05

_FRAME_TYPES = frozenset((HELLO, CONTROL, DATA, OVERFLOW, END))

#: The longest payload a frame may claim.  A receiver buffers a frame
#: until its payload is complete, so the header's length field is a
#: promise about memory; the largest frames of a default broadcast (an
#: SGT control segment) are a few KB.
MAX_PAYLOAD_BYTES = 1 << 20


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, (cycle, slot) address, payload bytes."""

    type: int
    cycle: int
    slot: int
    payload: bytes


def _frame(ftype: int, cycle: int, slot: int, payload: bytes, crc: int) -> bytes:
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise CodecError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    return _HEADER.pack(MAGIC, ftype, 0, cycle, slot, len(payload), crc) + payload


def encode_frame(ftype: int, cycle: int, slot: int, payload: bytes) -> bytes:
    return _frame(ftype, cycle, slot, payload, zlib.crc32(payload))


def decode_frame(buf: bytes, offset: int = 0) -> Tuple[Frame, int]:
    """Strictly decode one frame at ``offset``; returns (frame, consumed).

    Raises :class:`FrameTruncated` when the buffer ends mid-frame,
    :class:`FrameError` on a bad magic, an unknown type or a length over
    :data:`MAX_PAYLOAD_BYTES`, and :class:`FrameCorrupt` when the payload
    fails its CRC32.
    """
    if len(buf) - offset < HEADER_BYTES:
        raise FrameTruncated(
            f"need {HEADER_BYTES} header bytes, have {len(buf) - offset}"
        )
    magic, ftype, _flags, cycle, slot, length, crc = _HEADER.unpack_from(
        buf, offset
    )
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if ftype not in _FRAME_TYPES:
        raise FrameError(f"unknown frame type 0x{ftype:02x}")
    if length > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"frame claims a {length}-byte payload, over the "
            f"{MAX_PAYLOAD_BYTES}-byte limit"
        )
    start = offset + HEADER_BYTES
    if len(buf) - start < length:
        raise FrameTruncated(
            f"frame payload truncated: need {length} bytes, "
            f"have {len(buf) - start}"
        )
    payload = bytes(buf[start : start + length])
    frame = Frame(type=ftype, cycle=cycle, slot=slot, payload=payload)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameCorrupt(
            f"payload CRC mismatch in frame (cycle={cycle}, slot={slot})",
            frame,
        )
    return frame, HEADER_BYTES + length


class FrameStream:
    """Incremental frame parser for a TCP byte stream.

    ``feed`` returns complete frames in order; a payload failing its
    CRC comes back as the :class:`FrameCorrupt` exception *object* (the
    receiver maps it to a lost slot), while a broken header -- bad
    magic, unknown type, a payload length over :data:`MAX_PAYLOAD_BYTES`
    -- is fatal: framing is lost and the connection must drop.  The
    buffer therefore never holds more than one frame of the largest
    legal size plus the chunk just fed.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Union[Frame, FrameCorrupt]]:
        self._buf += data
        out: List[Union[Frame, FrameCorrupt]] = []
        offset = 0
        while True:
            try:
                frame, consumed = decode_frame(self._buf, offset)
            except FrameTruncated:
                break
            except FrameCorrupt as corrupt:
                out.append(corrupt)
                offset += HEADER_BYTES + len(corrupt.frame.payload)
                continue
            out.append(frame)
            offset += consumed
        if offset:
            del self._buf[:offset]
        return out


def encode_json_frame(ftype: int, obj: dict) -> bytes:
    """Session frames (HELLO/END) carry self-describing JSON."""
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    return encode_frame(ftype, 0, 0, payload)


def decode_json_payload(payload: bytes) -> dict:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed session payload: {exc}") from None


def dataclass_from_wire(cls, blob):
    """Rebuild dataclass ``cls`` from its decoded JSON object.

    Session payloads are outside input: the object must carry exactly
    the class's fields, each of its declared type (an int may stand for a
    float, never a bool for a number); nested dataclasses and enums are
    rebuilt the same way.  Anything else is a :class:`CodecError`.
    """
    name = cls.__name__
    if not isinstance(blob, dict):
        raise CodecError(f"malformed {name}: not an object")
    hints = get_type_hints(cls)
    if blob.keys() != hints.keys():
        raise CodecError(
            f"malformed {name}: missing {sorted(hints.keys() - blob.keys())}, "
            f"unknown {sorted(blob.keys() - hints.keys())}"
        )
    values = {}
    for field, hint in hints.items():
        value = blob[field]
        if is_dataclass(hint):
            value = dataclass_from_wire(hint, value)
        elif isinstance(hint, type) and issubclass(hint, Enum):
            try:
                value = hint(value)
            except (ValueError, TypeError):
                raise CodecError(
                    f"malformed {name}: {field} is no {hint.__name__}"
                ) from None
        else:
            # Optional[int] -> (int, NoneType); a float field takes ints.
            accepted = get_args(hint) or ((int, float) if hint is float else hint)
            if isinstance(value, bool) != (hint is bool) or not isinstance(
                value, accepted
            ):
                raise CodecError(
                    f"malformed {name}: {field} must be {hint}, got {value!r}"
                )
        values[field] = value
    return cls(**values)


# -- the wire profile ---------------------------------------------------------

_ORGS = (
    MultiversionOrganization.NONE,
    MultiversionOrganization.CLUSTERED,
    MultiversionOrganization.OVERFLOW,
)


@dataclass(frozen=True)
class WireProfile:
    """Field widths and layout flags of one broadcast's wire format.

    Derived from the server parameters and the merged scheme
    requirements exactly as :class:`~repro.server.sizing.SizeModel`
    prices them: ``key_bits = k`` units, ``data_bits = d`` units,
    ``version_bits = ceil(log2 S)``, ``tid_bits = ceil(log2 N)``.
    """

    key_bits: int
    data_bits: int
    version_bits: int
    tid_bits: int
    items_per_bucket: int
    span: int
    sgt: bool
    organization: MultiversionOrganization
    bits_per_unit: int = 32

    @classmethod
    def from_params(
        cls,
        params: ServerParameters,
        requirements: BroadcastRequirements,
        bits_per_unit: int = 32,
    ) -> "WireProfile":
        span = params.retention if requirements.needs_old_versions else 0
        if requirements.needs_old_versions:
            organization = (
                MultiversionOrganization.CLUSTERED
                if requirements.organization == "clustered"
                else MultiversionOrganization.OVERFLOW
            )
        else:
            organization = MultiversionOrganization.NONE
        return cls(
            key_bits=params.key_size * bits_per_unit,
            data_bits=params.data_size * bits_per_unit,
            version_bits=ceil(log2(max(2, span))),
            tid_bits=ceil(log2(max(2, params.transactions_per_cycle))),
            items_per_bucket=params.items_per_bucket,
            span=span,
            sgt=requirements.needs_sgt,
            organization=organization,
            bits_per_unit=bits_per_unit,
        )

    def to_wire(self) -> dict:
        """JSON-safe form for the HELLO frame."""
        return dict(asdict(self), organization=self.organization.value)

    @classmethod
    def from_wire(cls, blob: dict) -> "WireProfile":
        return dataclass_from_wire(cls, blob)


# -- the cycle codec ----------------------------------------------------------

#: Age escape: an all-ones age field means "explicit 32-bit age follows".
_AGE_EXPLICIT_BITS = 32

_FLAT = MultiversionOrganization.NONE
_CLUSTERED = MultiversionOrganization.CLUSTERED


def bucket_base(bucket: Bucket) -> int:
    """The largest cycle stamp a bucket carries, 0 if it has none: the
    ``base`` every age in the bucket's payload counts back from."""
    base = 0
    for records in (bucket.records, bucket.old_records):
        for record in records:
            if record.version > base:
                base = record.version
            writer = record.writer
            if writer is not None and writer.cycle > base:
                base = writer.cycle
    return base


def _check_base(bucket: Bucket, base: int, cycle: int) -> None:
    if base > cycle:
        raise CodecError(
            f"bucket {bucket.index} carries a stamp of cycle {base}, "
            f"later than cycle {cycle} of its frame"
        )


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
    """A cycle stamp, coded as its age against ``base``."""
    stamp = base - _read_age(r, bits)
    if stamp < 0:
        raise CodecError(f"stamp is older than cycle 0 (base {base})")
    return stamp


def _ascending(values: Sequence, what: str) -> None:
    """Sets ride sorted, so that one set has one encoding."""
    if any(a >= b for a, b in zip(values, values[1:])):
        raise CodecError(f"{what} are not in strictly ascending order")


@dataclass(frozen=True)
class ControlHeader:
    """Geometry decoded from a CONTROL payload (plus the control info)."""

    cycle: int
    start_slot: int
    control_slots: int
    index_slots: int
    organization: MultiversionOrganization
    num_data_buckets: int
    num_overflow_buckets: int
    control: ControlInfo

    @property
    def total_slots(self) -> int:
        return (
            self.control_slots
            + self.index_slots
            + self.num_data_buckets
            + self.num_overflow_buckets
        )


class CycleCodec:
    """Encode/decode one :class:`BroadcastProgram` per wire profile.

    A DATA/OVERFLOW payload is a pure function of its :class:`Bucket`
    (ages count back from the bucket's own base, not from the cycle), so
    a codec remembers, per bucket offset, the last payload it encoded
    and the last it decoded: ``encode_cycle`` packs only the frame
    header for a bucket object it aired last time, and ``decode_*``
    returns the bucket it parsed last time when the payload bytes are
    equal.  Either memory holds one cycle's buckets -- the counts of the
    last program encoded, the 16-bit counts of the last CONTROL decoded
    -- and a fresh codec is the reference a long-lived one must equal,
    byte for byte and field for field.
    """

    def __init__(self, profile: WireProfile) -> None:
        self.profile = profile
        # Per offset (bucket, base, payload, crc) of the last cycle
        # encoded, good for one organization and one pair of bucket counts.
        self._aired_organization: Optional[MultiversionOrganization] = None
        self._aired_data: List[Optional[tuple]] = []
        self._aired_overflow: List[Optional[tuple]] = []
        # Per offset (payload, base, bucket) of the last frame decoded
        # there, sized and addressed by the last CONTROL decoded.
        self._heard_organization: Optional[MultiversionOrganization] = None
        self._heard_data: List[Optional[tuple]] = []
        self._heard_overflow: List[Optional[tuple]] = []
        self._data_start = self._overflow_start = 0

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
        items = []
        writers: Dict[int, TxnId] = {}
        for _ in range(r.read(32)):
            item = r.read(self.profile.key_bits)
            items.append(item)
            if self.profile.sgt:
                writer = self._read_opt_txn(r, cycle)
                if writer is not None:
                    writers[item] = writer
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
        # The bucket memory is as large as this header says, no larger.
        if (
            _ORGS[org_code] is not self._heard_organization
            or num_data != len(self._heard_data)
            or num_overflow != len(self._heard_overflow)
        ):
            self._heard_organization = _ORGS[org_code]
            self._heard_data = [None] * num_data
            self._heard_overflow = [None] * num_overflow
        self._data_start = control_slots + index_slots
        self._overflow_start = self._data_start + num_data
        return ControlHeader(
            cycle=cycle,
            start_slot=start_slot,
            control_slots=control_slots,
            index_slots=index_slots,
            organization=_ORGS[org_code],
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

    # -- buckets (base-relative: the same bytes in every cycle) --------------

    def _bucket_entry(
        self, bucket: Bucket, with_records: bool, with_old: bool
    ) -> tuple:
        """``(bucket, base, payload, crc)``: index, base, then records."""
        base = bucket_base(bucket)
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
        return bucket, base, payload, zlib.crc32(payload)

    @staticmethod
    def _bucket_frame(ftype: int, cycle: int, slot: int, entry: tuple) -> bytes:
        bucket, base, payload, crc = entry
        _check_base(bucket, base, cycle)
        return _frame(ftype, cycle, slot, payload, crc)

    def encode_data_bucket(
        self, program: BroadcastProgram, offset: int
    ) -> bytes:
        entry = self._bucket_entry(
            program.data_buckets[offset],
            with_records=True,
            with_old=program.organization is _CLUSTERED,
        )
        slot = program.control_slots + program.index_slots + offset
        return self._bucket_frame(DATA, program.cycle, slot, entry)

    def encode_overflow_bucket(
        self, program: BroadcastProgram, offset: int
    ) -> bytes:
        entry = self._bucket_entry(
            program.overflow_buckets[offset], with_records=False, with_old=True
        )
        slot = (
            program.control_slots
            + program.index_slots
            + len(program.data_buckets)
            + offset
        )
        return self._bucket_frame(OVERFLOW, program.cycle, slot, entry)

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
            if bucket_base(bucket) != base:
                raise CodecError(
                    f"base {base} is not the bucket's largest cycle stamp"
                )
            if remembered:
                heard[offset] = (payload, base, bucket)
        _check_base(bucket, base, frame.cycle)
        return bucket

    def decode_data_bucket(self, frame: Frame, header: ControlHeader) -> Bucket:
        if frame.type != DATA:
            raise CodecError(f"expected a DATA frame, got 0x{frame.type:02x}")
        # Whether old versions ride along is the caller's header's word;
        # the memory is only good for the organization it was filled under.
        remembers = header.organization is self._heard_organization
        return self._decode_bucket(
            frame,
            self._heard_data if remembers else (),
            frame.slot - self._data_start,
            with_records=True,
            with_old=header.organization is _CLUSTERED,
        )

    def decode_overflow_bucket(self, frame: Frame) -> Bucket:
        if frame.type != OVERFLOW:
            raise CodecError(
                f"expected an OVERFLOW frame, got 0x{frame.type:02x}"
            )
        return self._decode_bucket(
            frame,
            self._heard_overflow,
            frame.slot - self._overflow_start,
            with_records=False,
            with_old=True,
        )

    # -- whole cycles -------------------------------------------------------

    def encode_cycle(
        self, program: BroadcastProgram, start_slot: int
    ) -> List[bytes]:
        """All frames of one cycle, in air order (control first)."""
        cycle = program.cycle
        data, overflow = program.data_buckets, program.overflow_buckets
        if (
            program.organization is not self._aired_organization
            or len(data) != len(self._aired_data)
            or len(overflow) != len(self._aired_overflow)
        ):
            self._aired_organization = program.organization
            self._aired_data = [None] * len(data)
            self._aired_overflow = [None] * len(overflow)
        frames = [self.encode_control(program, start_slot)]
        slot = program.control_slots + program.index_slots
        for ftype, buckets, aired, with_old in (
            (DATA, data, self._aired_data, program.organization is _CLUSTERED),
            (OVERFLOW, overflow, self._aired_overflow, True),
        ):
            for offset, bucket in enumerate(buckets):
                entry = aired[offset]
                if entry is None or entry[0] is not bucket:
                    entry = aired[offset] = self._bucket_entry(
                        bucket, with_records=ftype == DATA, with_old=with_old
                    )
                frames.append(self._bucket_frame(ftype, cycle, slot, entry))
                slot += 1
        return frames

    def assemble(
        self,
        header: ControlHeader,
        data_buckets: Sequence[Bucket],
        overflow_buckets: Sequence[Bucket],
    ) -> BroadcastProgram:
        """Rebuild the program from a fully received cycle."""
        if len(data_buckets) != header.num_data_buckets:
            raise CodecError(
                f"cycle {header.cycle}: expected "
                f"{header.num_data_buckets} data buckets, got "
                f"{len(data_buckets)}"
            )
        if len(overflow_buckets) != header.num_overflow_buckets:
            raise CodecError(
                f"cycle {header.cycle}: expected "
                f"{header.num_overflow_buckets} overflow buckets, got "
                f"{len(overflow_buckets)}"
            )
        return BroadcastProgram(
            cycle=header.cycle,
            control=header.control,
            data_buckets=list(data_buckets),
            overflow_buckets=list(overflow_buckets),
            control_slots=header.control_slots,
            index_slots=header.index_slots,
            organization=header.organization,
        )

    def decode_cycle(
        self, frames: Iterable[bytes]
    ) -> Tuple[BroadcastProgram, int]:
        """Strictly decode one whole cycle from raw frame bytes.

        The loopback/test convenience inverse of :meth:`encode_cycle`;
        returns ``(program, start_slot)``.
        """
        header: Optional[ControlHeader] = None
        data: List[Bucket] = []
        overflow: List[Bucket] = []
        for raw in frames:
            frame, consumed = decode_frame(raw)
            if consumed != len(raw):
                raise CodecError("trailing bytes after frame")
            if frame.type == CONTROL:
                if header is not None:
                    raise CodecError("duplicate CONTROL frame in cycle")
                header = self.decode_control(frame)
            elif frame.type == DATA:
                if header is None:
                    raise CodecError("DATA frame before CONTROL")
                data.append(self.decode_data_bucket(frame, header))
            elif frame.type == OVERFLOW:
                if header is None:
                    raise CodecError("OVERFLOW frame before CONTROL")
                overflow.append(self.decode_overflow_bucket(frame))
            else:
                raise CodecError(
                    f"unexpected frame type 0x{frame.type:02x} in cycle"
                )
        if header is None:
            raise CodecError("cycle has no CONTROL frame")
        return self.assemble(header, data, overflow), header.start_slot

    def segment_bits(self, program: BroadcastProgram) -> Dict[str, int]:
        """Payload bits per segment (frame headers excluded) -- the
        measured counterpart of the :class:`SizeModel` breakdowns."""
        control = len(self.encode_control(program, 0)) - HEADER_BYTES
        data = sum(
            len(self.encode_data_bucket(program, off)) - HEADER_BYTES
            for off in range(len(program.data_buckets))
        )
        overflow = sum(
            len(self.encode_overflow_bucket(program, off)) - HEADER_BYTES
            for off in range(len(program.overflow_buckets))
        )
        return {
            "control_bits": 8 * control,
            "data_bits": 8 * data,
            "overflow_bits": 8 * overflow,
        }


def programs_equal(a: BroadcastProgram, b: BroadcastProgram) -> bool:
    """Field-level equality of two programs (the round-trip invariant)."""
    return (
        a.cycle == b.cycle
        and a.control == b.control
        and a.control_slots == b.control_slots
        and a.index_slots == b.index_slots
        and a.organization == b.organization
        and a.data_buckets == b.data_buckets
        and a.overflow_buckets == b.overflow_buckets
    )

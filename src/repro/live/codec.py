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

The control segment counts its ages back from the cycle it airs in and
codes its transaction ids a run at a time (:meth:`BitWriter.write_txns`,
:meth:`BitReader.read_txns`): the graph diff's nodes, its edges as src,
dst, src, ..., and the augmented report's ``(item, writer?)`` rows.  A
DATA/OVERFLOW payload counts its ages back from its own *base*, the largest
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
from itertools import chain, compress, count
from operator import ge, is_not, itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple
from typing import Union, get_args, get_type_hints

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    ItemRecord,
    MultiversionOrganization,
    OldVersionRecord,
    index_data_buckets,
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

#: Age escape: an all-ones age field means "explicit 32-bit age follows".
_AGE_EXPLICIT_BITS = 32


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

    def write_txns(
        self, run: Iterable, base: int, vbits: int, tbits: int, key_bits: int = 0
    ) -> None:
        """Append a run of ids, each its age against ``base``, then its seq,
        escaped as :func:`_age_field` escapes them; with ``key_bits``, a run
        of ``(key, id or None)`` rows: the key, a presence bit, the id."""
        vmark, tmark = (1 << vbits) - 1, (1 << tbits) - 1
        vesc, tesc = vmark << _AGE_EXPLICIT_BITS, tmark << _AGE_EXPLICIT_BITS
        vwide, twide = vbits + _AGE_EXPLICIT_BITS, tbits + _AGE_EXPLICIT_BITS
        acc, nbits, chunks = self._acc, self._nbits, self._chunks
        for tid in run:
            if nbits >= _WORD_BITS:
                spare = nbits & 7
                chunks.append((acc >> spare).to_bytes(nbits >> 3, "big"))
                acc, nbits = acc & ((1 << spare) - 1), spare
            if key_bits:
                key, tid = tid
                if key >> key_bits:
                    raise CodecError(f"value {key} does not fit in {key_bits} bits")
                acc = (acc << key_bits + 1) | (key << 1) | (tid is not None)
                nbits += key_bits + 1
                if tid is None:
                    continue
            age, seq = base - tid[0], tid[1]
            # A negative field shifts down to -1: one test covers both ends.
            if (age | seq) >> _AGE_EXPLICIT_BITS:
                raise CodecError(f"age {age} or seq {seq} is negative or over 32 bits")
            awidth, swidth = vbits, tbits
            if age >= vmark:
                age, awidth = vesc | age, vwide
            if seq >= tmark:
                seq, swidth = tesc | seq, twide
            acc = (((acc << awidth) | age) << swidth) | seq
            nbits += awidth + swidth
        self._acc, self._nbits = acc, nbits

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

    def read_txns(
        self, count: int, base: int, vbits: int, tbits: int, key_bits: int = 0
    ) -> list:
        """``count`` ids (or rows) as :meth:`BitWriter.write_txns` writes
        them, each field refused as :func:`_read_stamp` refuses one."""
        data, taken, acc, have = self._data, self._next, self._acc, self._have
        vmark, tmark = (1 << vbits) - 1, (1 << tbits) - 1
        longest = key_bits + 1 + vbits + tbits + 2 * _AGE_EXPLICIT_BITS
        take, key_mask = (_WORD_BITS + longest) >> 3, (1 << key_bits) - 1
        new, run = tuple.__new__, []
        try:
            for _ in range(count):
                if have < longest:
                    chunk = data[taken : taken + take]
                    acc = (acc & ((1 << have) - 1)) << 8 * len(chunk)
                    acc |= int.from_bytes(chunk, "big")
                    taken, have = taken + len(chunk), have + 8 * len(chunk)
                if key_bits:
                    have -= key_bits + 1
                    key = acc >> have
                    if not key & 1:
                        run.append(((key >> 1) & key_mask, None))
                        continue
                have -= vbits
                age = (acc >> have) & vmark
                if age == vmark:
                    have -= _AGE_EXPLICIT_BITS
                    age = (acc >> have) & 0xFFFFFFFF
                    if age < vmark:
                        raise CodecError(f"age {age} escaped although it fits its field")
                if age > base:
                    raise CodecError(f"stamp is older than cycle 0 (base {base})")
                have -= tbits
                seq = (acc >> have) & tmark
                if seq == tmark:
                    have -= _AGE_EXPLICIT_BITS
                    seq = (acc >> have) & 0xFFFFFFFF
                    if seq < tmark:
                        raise CodecError(f"age {seq} escaped although it fits its field")
                tid = new(TxnId, (base - age, seq))
                run.append(((key >> 1) & key_mask, tid) if key_bits else tid)
        except ValueError:  # a field past the end: a negative shift count
            raise CodecError("bit stream truncated") from None
        self._next, self._acc, self._have = taken, acc, have
        return run

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


class Frame(NamedTuple):
    """One decoded frame: type, (cycle, slot) address, payload bytes."""

    type: int
    cycle: int
    slot: int
    payload: bytes


def encode_frame(ftype: int, cycle: int, slot: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise CodecError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    return (
        _HEADER.pack(
            MAGIC, ftype, 0, cycle, slot, len(payload), zlib.crc32(payload)
        )
        + payload
    )


def decode_frame(
    buf: Union[bytes, bytearray, memoryview], offset: int = 0
) -> Tuple[Frame, int]:
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
    frame = Frame(ftype, cycle, slot, payload)
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
        # Payloads are copied out of one view of the buffer (slicing the
        # bytearray itself would copy each twice); the view must be
        # released before the buffer can be resized below.
        with memoryview(self._buf) as view:
            while True:
                try:
                    frame, consumed = decode_frame(view, offset)
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

_FLAT = MultiversionOrganization.NONE
_CLUSTERED = MultiversionOrganization.CLUSTERED

#: A bucket's base rides in 32 bits, as an escaped age does: no template
#: is good for a base, or an age, from here on.
_BASE_LIMIT = 1 << _AGE_EXPLICIT_BITS

#: The template memory is swept when it outgrows this many entries per
#: record of the program being aired (and never below the floor).
_TEMPLATE_SLACK = 1.25
_TEMPLATE_FLOOR = 64

_TOP = itemgetter(6)

#: A bucket payload is assembled in one integer up to this many bits;
#: past it whole bytes are set aside, as :class:`BitWriter` does.
_SPILL_BITS = 8192


def _top_stamp(record: Union[ItemRecord, OldVersionRecord]) -> int:
    writer = record.writer
    if writer is not None and writer.cycle > record.version:
        return writer.cycle
    return record.version


def _bits(payload: bytes, start: int, end: int) -> int:
    """Bits ``[start, end)`` of ``payload``, MSB first, as an integer."""
    return (
        int.from_bytes(payload[start >> 3 : (end + 7) >> 3], "big") >> (-end & 7)
    ) & ((1 << (end - start)) - 1)


def _check_base(bucket: Bucket, base: int, cycle: int) -> None:
    if base > cycle:
        raise CodecError(
            f"bucket {bucket.index} carries a stamp of cycle {base}, "
            f"later than cycle {cycle} of its frame"
        )


def _age_field(age: int, bits: int, marker: int) -> Tuple[int, int]:
    """An age as ``(field, width)``: itself in ``bits`` bits while it is
    below the all-ones ``marker``, else the marker and 32 explicit bits."""
    if age < marker:
        if age < 0:
            raise CodecError(f"negative age {age} (field is age-relative)")
        return age, bits
    if age >> _AGE_EXPLICIT_BITS:
        raise CodecError(
            f"age {age} does not fit in {_AGE_EXPLICIT_BITS} bits"
        )
    return (marker << _AGE_EXPLICIT_BITS) | age, bits + _AGE_EXPLICIT_BITS


def _write_age(w: BitWriter, age: int, bits: int) -> None:
    w.write(*_age_field(age, bits, (1 << bits) - 1))


def _read_stamp(r: BitReader, bits: int, base: int) -> int:
    """A cycle stamp, coded as its age against ``base``."""
    marker = (1 << bits) - 1
    age = r.read(bits)
    if age == marker:
        age = r.read(_AGE_EXPLICIT_BITS)
        if age < marker:
            raise CodecError(f"age {age} escaped although it fits its field")
    stamp = base - age
    if stamp < 0:
        raise CodecError(f"stamp is older than cycle 0 (base {base})")
    return stamp


def _ascending(values: Sequence, what: str) -> None:
    """Sets ride sorted, so that one set has one encoding."""
    if any(map(ge, values, values[1:])):
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


class HeldPayload:
    """A changed DATA payload a listener keeps raw until a read names one
    of its items (:meth:`CycleCodec.hear_data`).

    ``items`` are what the layout puts at its offset, in bucket order.
    :meth:`parse` reads the payload through
    :meth:`CycleCodec.decode_data_bucket` on its first call, refuses a
    bucket that names other items with a :class:`CodecError`, and keeps
    the bucket for every later call: one held payload stands at its
    offset in every consecutive program that hears the same bytes there.
    """

    __slots__ = (
        "payload", "items", "_bucket", "_codec", "_header", "_cycle", "_offset"
    )

    def __init__(
        self,
        codec: "CycleCodec",
        frame: Frame,
        offset: int,
        items: Tuple[int, ...],
    ) -> None:
        self.payload = frame.payload
        self.items = items
        self._bucket: Optional[Bucket] = None
        self._codec: Optional[CycleCodec] = codec
        # The header that sized the data memory this payload was heard
        # into: the organization it parses under.
        self._header: Optional[ControlHeader] = codec._data_header
        self._cycle = frame.cycle
        self._offset = offset

    def parse(self) -> Bucket:
        bucket = self._bucket
        if bucket is None:
            codec, header = self._codec, self._header
            assert codec is not None and header is not None
            # The data segment moves with each cycle's control segment:
            # address the frame where its offset lies now, or outside any
            # memory once the bucket geometry has changed.
            slot = (
                codec._data_start + self._offset
                if codec._data_header is header
                else 0
            )
            codec.data_parsed += 1
            bucket = codec.decode_data_bucket(
                Frame(DATA, self._cycle, slot, self.payload), header
            )
            if bucket.items != self.items:
                raise CodecError(
                    f"cycle {self._cycle}: data bucket {self._offset} names "
                    "other items than the layout puts there"
                )
            self._bucket = bucket
            self._codec = self._header = None
        return bucket


class CycleCodec:
    """Encode/decode one :class:`BroadcastProgram` per wire profile.

    A DATA/OVERFLOW payload is a pure function of its :class:`Bucket`
    (ages count back from the bucket's own base, not from the cycle), so
    a codec remembers, per data-bucket offset, the last payload it
    encoded and the last it decoded: ``encode_cycle`` packs only the
    frame header for a bucket object it aired last time, and
    ``decode_data_bucket`` returns the bucket it parsed last time when
    the payload bytes are equal.  Either memory holds one cycle's data
    buckets -- the count of the last program encoded, the 16-bit count
    of the last CONTROL decoded -- and a fresh codec is the reference a
    long-lived one must equal, byte for byte and field for field.
    OVERFLOW buckets are never remembered: their chunks shift every
    cycle, so no offset ever airs the same bucket twice.

    Below the bucket the encoder works a record at a time.  While every
    age ``base - stamp`` in a record stays on its side of the escape
    marker the record's field widths are fixed and its bit string, read
    as an integer, is linear in the base: ``T + base * K``, ``K`` the sum
    of ``2 ** shift`` over its base-relative fields.  A record is packed
    field by field once (:meth:`_cut`, which makes every width, sign and
    layout check) into a *template* ``(record, T, nbits, K, lo, hi,
    top)`` kept against the record's identity, and is re-aired in any
    bucket, at any position, under any base in ``[lo, hi)`` by one
    multiply-add; outside the interval it is cut again.  The template
    memory holds one entry per record on the air plus bounded slack: it
    is one dict, swept in place of the ids no longer in the program
    whenever it outgrows ``_TEMPLATE_SLACK`` times the program's records
    (``K`` is interned per record shape and ``hi`` is one shared integer
    wherever only the 32-bit base field bounds it, so an entry is a
    tuple and one integer of the record's width).  An entry holds its
    record, so an ``id`` is never recycled under it.

    The listening side cuts the same templates, keyed by position
    instead of identity: beside each data bucket it remembers it keeps
    one template slot per record, and reads record *j* of a changed
    payload as the remembered bucket's record *j* when the bits there
    are that record's ``T + base * K`` (:meth:`_read_records`).  Old
    versions shift position every cycle and are always parsed.  Above
    the bucket, :meth:`assemble` patches the item lookups of the last
    program it built instead of scanning the data segment again.

    Once such a layout exists a listener parses only what its client
    reads: :meth:`hear_data` keeps a changed DATA payload raw, as a
    :class:`HeldPayload` the program parses when a lookup first names
    one of its items.
    """

    def __init__(self, profile: WireProfile) -> None:
        self.profile = profile
        version_bits, tid_bits = profile.version_bits, profile.tid_bits
        #: The profile as the record packer and parser want it: widths,
        #: escape markers, whether the has-old pointer bit rides.
        self._widths = (
            profile.key_bits,
            profile.data_bits,
            version_bits,
            (1 << version_bits) - 1,
            tid_bits,
            (1 << tid_bits) - 1,
            profile.organization is not _FLAT,
        )
        #: Bytes that cover the longest record (an old version with every
        #: age escaped) from any bit offset: the parser's window.
        self._window_bytes = (
            profile.key_bits
            + profile.data_bits
            + 3 * (version_bits + _AGE_EXPLICIT_BITS)
            + tid_bits
            + _AGE_EXPLICIT_BITS
            + 2  # version and writer flags
            + 14  # a start inside a byte, then up to the next boundary
        ) >> 3
        # id(record) -> (record, T, nbits, K, lo, hi, top); see above.
        self._templates: Dict[int, tuple] = {}
        self._template_ks: Dict[int, int] = {}
        self._sweep_above = _TEMPLATE_FLOOR
        # Per data offset (bucket, base, payload, crc) of the last cycle
        # encoded, good for one organization and one data-bucket count.
        self._aired_organization: Optional[MultiversionOrganization] = None
        self._aired_data: List[Optional[tuple]] = []
        # Per data offset (payload, base, bucket, templates) of the last
        # frame decoded there, sized and addressed by the last CONTROL
        # decoded; ``templates`` has one slot per record of the bucket.
        self._heard_organization: Optional[MultiversionOrganization] = None
        self._heard_data: List[Optional[tuple]] = []
        # Per data offset the last payload held raw there (``hear_data``),
        # sized with ``_heard_data`` by ``_data_header``.
        self._held_data: List[Optional[HeldPayload]] = []
        self._data_header: Optional[ControlHeader] = None
        self._data_start = 0
        # (data buckets, layout, records) of the last program assembled
        # with fixed item positions since the data memory was sized; see
        # ``assemble``.
        self._assembled: Optional[tuple] = None
        #: DATA payloads :meth:`hear_data` had parsed, eagerly or on a read.
        self.data_parsed = 0

    # -- reports -------------------------------------------------------------

    def _write_report(
        self, w: BitWriter, report: InvalidationReport, cycle: int
    ) -> None:
        _write_age(w, cycle - report.cycle, self.profile.version_bits)
        items = sorted(report.updated_items)
        w.write(len(items), 32)
        profile = self.profile
        if profile.sgt:
            writers = report.first_writers
            w.write_txns(
                [(item, writers.get(item)) for item in items],
                cycle, profile.version_bits, profile.tid_bits, profile.key_bits,
            )
        else:
            for item in items:
                w.write(item, profile.key_bits)

    def _read_report(self, r: BitReader, cycle: int) -> InvalidationReport:
        profile = self.profile
        report_cycle = _read_stamp(r, profile.version_bits, cycle)
        key_bits, count = profile.key_bits, r.read(32)
        writers: Dict[int, TxnId] = {}
        if profile.sgt:
            rows = r.read_txns(
                count, cycle, profile.version_bits, profile.tid_bits, key_bits
            )
            items = [item for item, _writer in rows]
            writers = {item: writer for item, writer in rows if writer is not None}
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
            vbits, tbits = self.profile.version_bits, self.profile.tid_bits
            w.write(len(diff.nodes), 32)
            w.write_txns(sorted(diff.nodes), cycle, vbits, tbits)
            w.write(len(diff.edges), 32)
            # The edges ride as one run of ids: src, dst, src, dst, ...
            w.write_txns(chain.from_iterable(sorted(diff.edges)), cycle, vbits, tbits)
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
            vbits, tbits = self.profile.version_bits, self.profile.tid_bits
            nodes = r.read_txns(r.read(32), cycle, vbits, tbits)
            _ascending(nodes, "graph-diff nodes")
            ends = r.read_txns(2 * r.read(32), cycle, vbits, tbits)
            edges = list(zip(ends[::2], ends[1::2]))
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

    # -- buckets (base-relative: the same bytes in every cycle) --------------

    def _cut(
        self, record: Union[ItemRecord, OldVersionRecord], base: int, old: bool
    ) -> tuple:
        """Pack one record under ``base`` and cut its template.

        Every check a record can fail is made here, once: a template is
        only replayed under bases that keep each age inside the form it
        was checked in.
        """
        key_bits, data_bits, vbits, vmark, tbits, tmark, pointer = self._widths
        item, value = record.item, record.value
        if item >> key_bits:
            raise CodecError(f"key {item} does not fit in {key_bits} bits")
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        if zigzag >> data_bits:
            raise CodecError(f"value {value} does not fit in {data_bits} bits")
        # Everything behind key and value is packed into ``tail`` (a short
        # integer) and joined on at the end; ``k`` marks the low bit of
        # each base-relative age in it.
        lo, hi = 0, _BASE_LIMIT
        # Versions are age-relative (Section 3.2); version 0 (the initial
        # database load, whose age grows without bound) gets its own bit.
        version = top = record.version
        if version == 0:
            tail, nbits, k = 0, 1, 0
        else:
            age = base - version
            if 0 <= age < vmark:
                field, width, lo, hi = age, vbits, version, version + vmark
            else:  # escaped (or refused): good while the age stays so
                field, width = _age_field(age, vbits, vmark)
                lo, hi = version + vmark, version + _BASE_LIMIT
            tail, nbits, k = (1 << width) | field, 1 + width, 1
        if old:
            field, width = _age_field(record.valid_to - version, vbits, vmark)
            tail = (tail << width) | field
            nbits += width
            k <<= width
        writer = record.writer
        if writer is None:
            tail <<= 1
            nbits += 1
            k <<= 1
        else:
            cycle, seq = writer
            if cycle > top:
                top = cycle
            age = base - cycle
            if 0 <= age < vmark:
                field, width, first, last = age, vbits, cycle, cycle + vmark
            else:
                field, width = _age_field(age, vbits, vmark)
                first, last = cycle + vmark, cycle + _BASE_LIMIT
            if first > lo:
                lo = first
            if last < hi:
                hi = last
            seq_width = tbits
            if not 0 <= seq < tmark:
                seq, seq_width = _age_field(seq, tbits, tmark)
            tail = (((((tail << 1) | 1) << width) | field) << seq_width) | seq
            nbits += 1 + width + seq_width
            k = ((k << (1 + width)) | 1) << seq_width
        if not old:
            if pointer:
                tail = (tail << 1) | (1 if record.has_old_versions else 0)
                nbits += 1
                k <<= 1
            elif record.has_old_versions:
                raise CodecError(
                    "has_old_versions pointers only exist where old versions "
                    "are on the air"
                )
        return (
            record,
            ((((item << data_bits) | zigzag) << nbits) | tail) - base * k,
            key_bits + data_bits + nbits,
            self._template_ks.setdefault(k, k),
            lo,
            hi if hi < _BASE_LIMIT else _BASE_LIMIT,
            top,
        )

    def _pack_records(
        self,
        acc: int,
        nbits: int,
        chunks: List[bytes],
        found: List[tuple],
        base: int,
        old: bool,
    ) -> Tuple[int, int]:
        """Append a 16-bit count and the bits of each template's record
        under ``base`` to the ``nbits`` low bits of ``acc``."""
        if len(found) >> 16:
            raise CodecError(f"{len(found)} records do not fit the 16-bit count")
        acc = (acc << 16) | len(found)
        nbits += 16
        templates, cut = self._templates, self._cut
        for record, t, width, k, lo, hi, _top in found:
            if not lo <= base < hi:
                entry = templates[id(record)] = cut(record, base, old)
                _record, t, width, k, _lo, _hi, _top = entry
            acc = (acc << width) | (t + base * k)
            nbits += width
            if nbits >= _SPILL_BITS:
                spare = nbits & 7
                chunks.append((acc >> spare).to_bytes(nbits >> 3, "big"))
                acc &= (1 << spare) - 1
                nbits = spare
        return acc, nbits

    def _bucket_entry(
        self, bucket: Bucket, with_records: bool, with_old: bool
    ) -> tuple:
        """``(bucket, base, payload, crc)``: index, base, then records."""
        records, old_records = bucket.records, bucket.old_records
        if records and not with_records:
            raise CodecError("overflow buckets hold old versions only")
        if old_records and not with_old:
            raise CodecError(
                "old versions ride in data buckets only under the "
                "clustered organization"
            )
        # One pass looks the templates up and finds the base they will be
        # aired under; a record without one stands in with the empty
        # interval, so that it is cut once that base is known.
        rows = [*records, *old_records]
        found = list(map(self._templates.get, map(id, rows)))
        if None in found:
            found = [
                entry or (record, 0, 0, 0, 1, 0, _top_stamp(record))
                for record, entry in zip(rows, found)
            ]
        base = max([0, *map(_TOP, found)])
        if bucket.index >> 32 or base >> 32:
            raise CodecError(
                f"bucket index {bucket.index} or base {base} does not fit "
                "in 32 bits"
            )
        # A payload is a few records of a few hundred bits: one integer
        # and one ``to_bytes``.  (A long clustered bucket spills whole
        # bytes into ``chunks``, so no shift pays for the bytes before.)
        chunks: List[bytes] = []
        acc, nbits = (bucket.index << 32) | base, 64
        if with_records:
            acc, nbits = self._pack_records(
                acc, nbits, chunks, found[: len(records)], base, old=False
            )
        if with_old:
            acc, nbits = self._pack_records(
                acc, nbits, chunks, found[len(records) :], base, old=True
            )
        pad = -nbits & 7
        payload = (acc << pad).to_bytes((nbits + pad) >> 3, "big")
        if chunks:
            chunks.append(payload)
            payload = b"".join(chunks)
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise CodecError(
                f"payload of {len(payload)} bytes exceeds the "
                f"{MAX_PAYLOAD_BYTES}-byte frame limit"
            )
        return bucket, base, payload, zlib.crc32(payload)

    @staticmethod
    def _bucket_frame(ftype: int, cycle: int, slot: int, entry: tuple) -> bytes:
        # The payload's length was checked when the entry was made.
        bucket, base, payload, crc = entry
        _check_base(bucket, base, cycle)
        return (
            _HEADER.pack(MAGIC, ftype, 0, cycle, slot, len(payload), crc)
            + payload
        )

    def _sweep_templates(self, program: BroadcastProgram) -> None:
        """Forget the templates of records ``program`` no longer airs,
        once there are enough of them to be worth a pass."""
        templates = self._templates
        if len(templates) <= self._sweep_above:
            return
        live = {
            id(record)
            for buckets in (program.data_buckets, program.overflow_buckets)
            for bucket in buckets
            for records in (bucket.records, bucket.old_records)
            for record in records
        }
        for stale in [key for key in templates if key not in live]:
            del templates[stale]
        self._sweep_above = max(
            _TEMPLATE_FLOOR, int(len(live) * _TEMPLATE_SLACK)
        )

    def _read_records(
        self,
        payload: bytes,
        pos: int,
        base: int,
        old: bool,
        known: Sequence[Union[ItemRecord, OldVersionRecord]] = (),
        templates: Sequence[Optional[tuple]] = (),
    ) -> Tuple[tuple, int, int, list]:
        """Parse a 16-bit count and that many records from bit ``pos``
        of ``payload``: ``(records, end position, largest stamp,
        templates)``.

        Record *j* is first tried as ``known[j]``, the record at its
        position in the bucket last decoded at this offset: under
        ``templates[j]`` it spells ``T + base * K`` in ``nbits`` bits,
        and if the payload holds exactly those bits the record *is*
        ``known[j]``.  That is the parse's verdict too: a template is cut
        only from a record the parser produced, and the parser reads back
        the one spelling ``_cut`` writes.  A template is cut when a
        record is tried without one that holds for this base, and only
        if the payload's key and value are the record's, so that a
        changed record costs no cut.  Otherwise the record is parsed:
        one window of bytes, its fields sliced out of a local integer; a
        window that ends before its record does shows as a negative shift
        count.  The templates returned are those of the records matched,
        ``None`` for a record parsed.
        """
        key_bits, data_bits, vbits, vmark, tbits, tmark, pointer = self._widths
        key_mask, data_mask = (1 << key_bits) - 1, (1 << data_bits) - 1
        window_bytes = self._window_bytes
        cut, size, matchable = self._cut, 8 * len(payload), len(known)
        out: list = []
        kept: list = []
        top = 0
        try:
            first = pos >> 3
            chunk = payload[first : first + 3]
            have = 8 * len(chunk) - (pos & 7) - 16
            count = (int.from_bytes(chunk, "big") >> have) & 0xFFFF
            pos += 16
            for j in range(count):
                if j < matchable:
                    entry = templates[j]
                    if entry is None or not entry[4] <= base < entry[5]:
                        record, entry = known[j], None
                        value, end = record.value, pos + key_bits + data_bits
                        if end <= size and _bits(payload, pos, end) == (
                            record.item << data_bits
                        ) | ((value << 1) if value >= 0 else ((-value << 1) - 1)):
                            try:
                                entry = cut(record, base, old)
                            except CodecError:  # a stamp above this base
                                pass
                    if entry is not None:
                        record, t, nbits, k, _lo, _hi, record_top = entry
                        end = pos + nbits
                        # ``_bits``, inlined: this runs for every record matched.
                        if end <= size and (
                            int.from_bytes(payload[pos >> 3 : (end + 7) >> 3], "big")
                            >> (-end & 7)
                        ) & ((1 << nbits) - 1) == t + base * k:
                            out.append(record)
                            kept.append(entry)
                            if record_top > top:
                                top = record_top
                            pos = end
                            continue
                kept.append(None)
                first = pos >> 3
                chunk = payload[first : first + window_bytes]
                window = int.from_bytes(chunk, "big")
                start = have = 8 * len(chunk) - (pos & 7)
                have -= key_bits
                item = (window >> have) & key_mask
                have -= data_bits
                zigzag = (window >> have) & data_mask
                value = -((zigzag + 1) >> 1) if zigzag & 1 else zigzag >> 1
                have -= 1
                if (window >> have) & 1:
                    have -= vbits
                    age = (window >> have) & vmark
                    if age == vmark:
                        have -= _AGE_EXPLICIT_BITS
                        age = (window >> have) & 0xFFFFFFFF
                        if age < vmark:
                            raise CodecError(
                                f"age {age} escaped although it fits its field"
                            )
                    version = base - age
                    if version <= 0:
                        if version < 0:
                            raise CodecError(
                                f"stamp is older than cycle 0 (base {base})"
                            )
                        raise CodecError(
                            "version 0 rides as its flag bit, not as an age"
                        )
                    if version > top:
                        top = version
                else:
                    version = 0
                if old:
                    have -= vbits
                    span = (window >> have) & vmark
                    if span == vmark:
                        have -= _AGE_EXPLICIT_BITS
                        span = (window >> have) & 0xFFFFFFFF
                        if span < vmark:
                            raise CodecError(
                                f"age {span} escaped although it fits its field"
                            )
                have -= 1
                if (window >> have) & 1:
                    have -= vbits
                    age = (window >> have) & vmark
                    if age == vmark:
                        have -= _AGE_EXPLICIT_BITS
                        age = (window >> have) & 0xFFFFFFFF
                        if age < vmark:
                            raise CodecError(
                                f"age {age} escaped although it fits its field"
                            )
                    cycle = base - age
                    if cycle < 0:
                        raise CodecError(
                            f"stamp is older than cycle 0 (base {base})"
                        )
                    if cycle > top:
                        top = cycle
                    have -= tbits
                    seq = (window >> have) & tmark
                    if seq == tmark:
                        have -= _AGE_EXPLICIT_BITS
                        seq = (window >> have) & 0xFFFFFFFF
                        if seq < tmark:
                            raise CodecError(
                                f"age {seq} escaped although it fits its field"
                            )
                    writer = TxnId(cycle, seq)
                else:
                    writer = None
                if old:
                    out.append(
                        OldVersionRecord(item, value, version, version + span, writer)
                    )
                elif pointer:
                    have -= 1
                    out.append(
                        ItemRecord(
                            item, value, version, writer, bool((window >> have) & 1)
                        )
                    )
                else:
                    out.append(ItemRecord(item, value, version, writer))
                pos += start - have
        except ValueError:  # a negative shift count, nothing else in there
            raise CodecError("bit stream truncated") from None
        return tuple(out), pos, top, kept

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
            _payload, base, bucket, _templates = known
        else:
            if len(payload) < 8:
                raise CodecError("bit stream truncated")
            index = int.from_bytes(payload[:4], "big")
            base = int.from_bytes(payload[4:8], "big")
            # Records hold their positions in the data buckets of the flat
            # and overflow organizations; old versions shift every cycle.
            known_records, templates = (
                (known[2].records, known[3])
                if known is not None and not with_old
                else ((), ())
            )
            pos = 64
            records: Tuple[ItemRecord, ...] = ()
            old_records: Tuple[OldVersionRecord, ...] = ()
            kept: list = []
            top = old_top = 0
            if with_records:
                records, pos, top, kept = self._read_records(
                    payload, pos, base, False, known_records, templates
                )
            if with_old:
                old_records, pos, old_top, _unmatched = self._read_records(
                    payload, pos, base, True
                )
            # The payload must end here: under a byte of padding, all zero.
            spare = 8 * len(payload) - pos
            if spare >= 8:
                raise CodecError("trailing bytes after the last field")
            if payload[-1] & ((1 << spare) - 1):
                raise CodecError("non-zero padding bits")
            if max(top, old_top) != base:
                raise CodecError(
                    f"base {base} is not the bucket's largest cycle stamp"
                )
            bucket = Bucket(
                index=index, records=records, old_records=old_records
            )
            if remembered:
                heard[offset] = (payload, base, bucket, kept)
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

    def hear_data(
        self, frame: Frame, header: ControlHeader
    ) -> Union[Bucket, HeldPayload]:
        """A DATA frame as a listener keeps it for :meth:`assemble`.

        Bytes equal to the payload last heard (parsed) or held at the
        frame's offset resolve to that bucket or held payload.  Other
        bytes are parsed by :meth:`decode_data_bucket` while there is no
        layout to trust -- the first cycle of a bucket geometry, the
        clustered organization -- and held raw once there is one, named
        by the items the last program assembled has at that offset.
        """
        if frame.type != DATA:
            raise CodecError(f"expected a DATA frame, got 0x{frame.type:02x}")
        offset = frame.slot - self._data_start
        heard = self._heard_data
        if (
            header.organization is self._heard_organization
            and 0 <= offset < len(heard)
        ):
            payload = frame.payload
            # Held first: a payload held in the last program stays the very
            # object there, parsed or not, which ``assemble`` skips.
            held = self._held_data[offset]
            if held is not None and held.payload == payload:
                return held
            known = heard[offset]
            if known is not None and known[0] == payload:
                _check_base(known[2], known[1], frame.cycle)
                return known[2]
            last = self._assembled
            if last is not None and len(last[0]) == len(heard):
                held = HeldPayload(self, frame, offset, last[0][offset].items)
                self._held_data[offset] = held
                return held
        self.data_parsed += 1
        return self.decode_data_bucket(frame, header)

    def release_held(self) -> None:
        """Forget the payloads held raw and the last program assembled, as
        a broken layout does.  Each held payload points back at this
        codec, so a finished listener unties them here to be freed by
        reference counting; one a program still names parses as before."""
        self._held_data = [None] * len(self._held_data)
        self._assembled = None

    def decode_overflow_bucket(self, frame: Frame) -> Bucket:
        if frame.type != OVERFLOW:
            raise CodecError(
                f"expected an OVERFLOW frame, got 0x{frame.type:02x}"
            )
        return self._decode_bucket(
            frame, (), 0, with_records=False, with_old=True
        )

    # -- whole cycles -------------------------------------------------------

    def encode_cycle(
        self, program: BroadcastProgram, start_slot: int
    ) -> List[bytes]:
        """All frames of one cycle, in air order (control first)."""
        cycle = program.cycle
        data = program.data_buckets
        if (
            program.organization is not self._aired_organization
            or len(data) != len(self._aired_data)
        ):
            self._aired_organization = program.organization
            self._aired_data = [None] * len(data)
        frames = [self.encode_control(program, start_slot)]
        slot = program.control_slots + program.index_slots
        aired, with_old = self._aired_data, program.organization is _CLUSTERED
        for offset, bucket in enumerate(data):
            entry = aired[offset]
            if entry is None or entry[0] is not bucket:
                entry = aired[offset] = self._bucket_entry(
                    bucket, with_records=True, with_old=with_old
                )
            frames.append(self._bucket_frame(DATA, cycle, slot, entry))
            slot += 1
        for bucket in program.overflow_buckets:
            entry = self._bucket_entry(bucket, with_records=False, with_old=True)
            frames.append(self._bucket_frame(OVERFLOW, cycle, slot, entry))
            slot += 1
        self._sweep_templates(program)
        return frames

    def assemble(
        self,
        header: ControlHeader,
        data_buckets: Sequence[Union[Bucket, HeldPayload]],
        overflow_buckets: Sequence[Bucket],
    ) -> BroadcastProgram:
        """Rebuild the program from a fully received cycle.

        Item positions are fixed in the flat and overflow organizations,
        so the program's item lookups (layout and records) are patched
        from the last program assembled instead of scanned: a data bucket
        that is the very object of last cycle's is skipped, and one whose
        records name the same items in the same order updates the records
        it changed in a copy of last cycle's item -> record map (for an
        item aired at several offsets, only from the last of them, which
        is the copy the scan keeps).  A :class:`HeldPayload` (see
        :meth:`hear_data`) takes its items out of that map instead; the
        program parses it when a lookup first misses on one of them.  A
        different data-bucket count or organization, an item that moved,
        old versions in a data bucket or the clustered organization scans,
        as a fresh codec does, and parses whatever is held to do so.
        """
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
        data = list(data_buckets)
        layout, records = self._index_data(header.organization, data)
        return BroadcastProgram(
            cycle=header.cycle,
            control=header.control,
            data_buckets=data,
            overflow_buckets=list(overflow_buckets),
            control_slots=header.control_slots,
            index_slots=header.index_slots,
            organization=header.organization,
            layout=layout,
            records=records,
        )

    def _index_data(
        self,
        organization: MultiversionOrganization,
        data: List[Union[Bucket, HeldPayload]],
    ) -> tuple:
        """``(layout, records)`` of ``data`` for :meth:`assemble`, or
        ``(None, None)`` to have the program scan its buckets; held
        payloads are parsed in place when the layout must be rebuilt."""
        last, self._assembled = self._assembled, None
        if organization is _CLUSTERED:
            return None, None
        index = None
        if last is not None and len(last[0]) == len(data):
            index = _patched_index(*last, data)
        if index is None:
            for offset, entry in enumerate(data):
                if type(entry) is HeldPayload:
                    data[offset] = entry.parse()
            # What is held was named by a layout this segment breaks.
            self._held_data = [None] * len(self._held_data)
            if any(bucket.old_records for bucket in data):
                return None, None  # old versions the program must index
            index = index_data_buckets(data)
        self._assembled = (data, *index)
        return index

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


def _patched_index(
    before: List[Union[Bucket, HeldPayload]],
    layout: Dict[int, Tuple[int, ...]],
    records: Dict[int, ItemRecord],
    data: List[Union[Bucket, HeldPayload]],
) -> Optional[tuple]:
    """``(layout, records)`` of ``data`` from those of ``before``, the
    data segment of as many buckets assembled last; ``None`` once a
    bucket names other items than the one it replaces."""
    changed = list(compress(count(), map(is_not, before, data)))
    if not changed:
        return layout, records
    patched = dict(records)  # the last program keeps its own
    for offset in changed:
        old, new = before[offset], data[offset]
        if type(new) is HeldPayload:
            # Named by the layout, parsed on the first lookup that misses.
            for item in new.items:
                if layout[item][-1] == offset:
                    patched.pop(item, None)
            continue
        if new.old_records or new.items != old.items:
            return None
        # Every record is written, the unchanged too: an item may ride
        # twice in one bucket, and the later copy is the one that counts.
        for record in new.records:
            item = record.item
            if layout[item][-1] == offset:
                patched[item] = record
    return layout, patched

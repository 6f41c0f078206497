"""The live client: scheme protocol logic off decoded wire frames.

The protocol stack is reused unmodified: a decoded cycle becomes a
:class:`~repro.broadcast.program.BroadcastProgram`, installed into the
same :class:`~repro.cohort.channel.CohortChannel` view the cohort
replayer drives, and the unmodified
:class:`~repro.client.machine.BroadcastClient` (invalidation /
multiversion / SGT resync, caches, disconnect models, warmup
accounting) advances through the kernel-exact
:class:`~repro.cohort.engine.Member` scheduling rules.  Time is
*logical*: every control frame carries its cycle's cumulative start
slot, so client behaviour is independent of the wall-clock pace -- a
loopback run with client-side fault pipelines is bit-identical to its
DES twin (the live oracle's exact lanes).

Wire damage (the chaos proxy, or a genuinely bad link) maps onto the
sim's fault semantics at reassembly:

* a corrupt or missing CONTROL frame is a lost control segment --
  ``on_signal_lost`` fires, the cycle is missed;
* a corrupt or missing DATA/OVERFLOW frame marks its slot lost; the
  slot is back-filled with the previous cycle's entry at its offset
  (item positions are cycle-invariant in the flat and overflow
  organizations), and lost slots are never receivable, so stale
  back-fill content can never surface in a read;
* in the clustered organization positions shift every cycle, so any
  lost data slot conservatively degrades to a missed cycle;
* wholly missing cycles (every frame dropped) are signalled lost, in
  order, when the next decodable cycle arrives.

Tuning is selective, as the paper's client's is: once a layout is
known, a changed DATA payload is held raw and parsed only when a read
names one of its items (:meth:`~repro.live.codec.CycleCodec.hear_data`);
a DATA frame heard before its CONTROL stays raw until that header
addresses it.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Union

from repro.broadcast.program import (
    BroadcastProgram,
    Bucket,
    MultiversionOrganization,
)
from repro.client.disconnect import DisconnectionModel
from repro.client.machine import BroadcastClient
from repro.cohort.engine import Member, make_member
from repro.config import ModelParameters
from repro.core.base import Scheme
from repro.core.control import BroadcastRequirements
from repro.experiments.schemes import scheme_factory as lookup_scheme
from repro.faults.models import FaultModel
from repro.live.codec import (
    CONTROL,
    DATA,
    END,
    HELLO,
    OVERFLOW,
    ControlHeader,
    CycleCodec,
    Frame,
    FrameCorrupt,
    FrameError,
    FrameStream,
    HeldPayload,
    WireProfile,
    dataclass_from_wire,
    decode_json_payload,
)
from repro.seeds import ClientSeed, listener_rng
from repro.stats.metrics import (
    FAULT_REPORTS_MISSED,
    FAULT_SLOTS_LOST,
    MetricsRegistry,
)


@dataclass
class LiveClientResult:
    """What one listener brings home from a broadcast."""

    scheme_label: str
    params: ModelParameters
    metrics: MetricsRegistry
    client: BroadcastClient
    cycles_heard: int = 0
    cycles_missed: int = 0
    end_time: float = 0.0
    #: Measured tuning: DATA payloads resolved against their cycle's
    #: CONTROL, and how many of them were parsed (eagerly, or when a read
    #: named one of their items).
    buckets_heard: int = 0
    buckets_parsed: int = 0


@dataclass
class _PendingCycle:
    """Frames of one cycle as they arrive off the stream."""

    cycle: int
    header: Optional[ControlHeader] = None
    control_corrupt: bool = False
    #: A bucket or held payload per slot; a raw frame until the header.
    data: Dict[int, Union[Bucket, HeldPayload, Frame]] = dataclass_field(
        default_factory=dict
    )
    overflow: Dict[int, Bucket] = dataclass_field(default_factory=dict)
    corrupt_slots: set = dataclass_field(default_factory=set)

    def complete(self) -> bool:
        header = self.header
        return (
            header is not None
            and not self.control_corrupt
            and not self.corrupt_slots
            and len(self.data) == header.num_data_buckets
            and len(self.overflow) == header.num_overflow_buckets
        )

    def announced(self, ftype: int, slot: int) -> bool:
        """Whether the CONTROL frame, once heard, has a DATA/OVERFLOW
        frame of this type at ``slot``."""
        header = self.header
        if header is None or ftype == CONTROL:
            return True
        data_start = header.control_slots + header.index_slots
        if ftype == DATA:
            return data_start <= slot < data_start + header.num_data_buckets
        overflow_start = data_start + header.num_data_buckets
        return overflow_start <= slot < header.total_slots


class LiveClient:
    """One listener: connects, decodes, runs the client protocol.

    With ``pipeline`` (client-side fault models, the sim's semantics)
    the wire must be lossless and the run is bit-exact against the DES
    twin; without one, wire damage itself supplies the cycle fates.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        scheme: Union[str, Scheme, None] = None,
        client_id: int = 0,
        rng: Optional[random.Random] = None,
        metrics: Optional[MetricsRegistry] = None,
        pipeline: Optional[Sequence[FaultModel]] = None,
        disconnect: Optional[DisconnectionModel] = None,
        params: Optional[ModelParameters] = None,
        keep_history: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self._scheme_arg = scheme
        self.client_id = client_id
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pipeline = pipeline
        self.disconnect = disconnect
        self._params_override = params
        self._keep_history = keep_history

        self.params: Optional[ModelParameters] = None
        self.scheme_label = ""
        self.codec: Optional[CycleCodec] = None
        self.member: Optional[Member] = None

        self._cur: Optional[_PendingCycle] = None
        self._last_cycle: Optional[int] = None
        self._prev_program: Optional[BroadcastProgram] = None
        self._next_start = 0.0
        self._cycles_heard = 0
        self._cycles_missed = 0
        self._buckets_heard = 0
        self._end_time: Optional[float] = None
        self._done = False

    # -- session setup -------------------------------------------------------

    def _resolve_scheme(self, served_label: object) -> Scheme:
        scheme = self._scheme_arg
        if isinstance(scheme, Scheme):
            return scheme
        if scheme is not None:
            return lookup_scheme(scheme)()
        try:
            return lookup_scheme(served_label or "inval")()
        except (KeyError, TypeError):
            raise FrameError(
                f"malformed HELLO: unknown scheme {served_label!r}"
            ) from None

    def _on_hello(self, payload: bytes) -> None:
        # Bytes off the wire are outside input: whatever is wrong with a
        # well-framed HELLO surfaces as a FrameError.
        hello = decode_json_payload(payload)
        if not isinstance(hello, dict):
            raise FrameError("malformed HELLO: not an object")
        missing = {"profile", "params", "requirements"} - hello.keys()
        if missing:
            raise FrameError(f"malformed HELLO: missing {sorted(missing)}")
        profile = WireProfile.from_wire(hello["profile"])
        self.params = self._params_override or dataclass_from_wire(
            ModelParameters, hello["params"]
        )
        served = dataclass_from_wire(
            BroadcastRequirements, hello["requirements"]
        )
        scheme = self._resolve_scheme(hello.get("scheme"))
        needed = scheme.requirements()
        # The server must already be airing everything this scheme reads
        # (merge itself refuses a conflicting multiversion organization).
        try:
            merged = served.merge(needed)
        except ValueError:
            merged = None
        if merged != served:
            raise FrameError(
                f"scheme {scheme.label!r} needs {needed} but the server "
                f"airs only {served}"
            )
        self.scheme_label = scheme.label
        self.codec = CycleCodec(profile)

        rng = self.rng or listener_rng(self.params.sim.seed, self.client_id)
        seed = ClientSeed(self.client_id, self.disconnect, self.pipeline, rng)
        self.member = make_member(
            seed, scheme, self.params, self.metrics, self._keep_history
        )

    # -- cycle reassembly ----------------------------------------------------

    def _open_cycle(self, cycle: int) -> _PendingCycle:
        if self._cur is not None and self._cur.cycle != cycle:
            self._finalize_cycle()
        if self._cur is None:
            self._cur = _PendingCycle(cycle=cycle)
        return self._cur

    def _signal_missed(self, cycle: int, start: float) -> None:
        assert self.member is not None
        self.metrics.count(FAULT_REPORTS_MISSED)
        self.member.cross(start, cycle)
        self._cycles_missed += 1

    def _finalize_cycle(self) -> None:
        cur, self._cur = self._cur, None
        if cur is None or self.member is None:
            return
        last = self._last_cycle
        if last is not None and cur.cycle > last + 1:
            if self.pipeline is not None:
                raise FrameError(
                    "lossy wire under a client-side fault pipeline; the "
                    "exact lane requires a clean transport"
                )
            # Cycles with not a single frame heard are missed, in order.
            for missing in range(last + 1, cur.cycle):
                self._signal_missed(missing, self._next_start)
        self._last_cycle = cur.cycle

        header = cur.header
        if header is None or cur.control_corrupt:
            if self.pipeline is not None:
                raise FrameError(
                    "lossy wire under a client-side fault pipeline; the "
                    "exact lane requires a clean transport"
                )
            self._signal_missed(cur.cycle, self._next_start)
            return

        start = float(header.start_slot)
        data_start = header.control_slots + header.index_slots
        overflow_start = data_start + header.num_data_buckets
        lost: set = set(cur.corrupt_slots)
        data: List[Union[Bucket, HeldPayload]] = []
        for off in range(header.num_data_buckets):
            slot = data_start + off
            bucket = cur.data.get(slot)
            if bucket is None:
                lost.add(slot)
                bucket = self._backfill_data(header, off)
                if bucket is None:
                    if self.pipeline is not None:
                        raise FrameError(
                            "lossy wire under a client-side fault pipeline"
                        )
                    # No safe position knowledge: the cycle is missed,
                    # anchored at the decoded start slot.
                    self._signal_missed(cur.cycle, start)
                    self._next_start = start + header.total_slots
                    return
            data.append(bucket)
        overflow: List[Bucket] = []
        for off in range(header.num_overflow_buckets):
            slot = overflow_start + off
            bucket = cur.overflow.get(slot)
            if bucket is None:
                lost.add(slot)
                bucket = Bucket(index=off)
            overflow.append(bucket)

        assert self.codec is not None
        program = self.codec.assemble(header, data, overflow)
        if self.pipeline is not None:
            if lost:
                raise FrameError(
                    "lossy wire under a client-side fault pipeline; the "
                    "exact lane requires a clean transport"
                )
            # The sim's fate semantics, bit-exact: the member runs the
            # pipeline at the boundary, exactly like the cohort driver.
            self.member.deliver(start, program)
        else:
            data_lost = sum(1 for slot in lost if slot >= header.control_slots)
            if data_lost:
                self.metrics.count(FAULT_SLOTS_LOST, data_lost)
            self.member.cross(start, cur.cycle, program, frozenset(lost))
        self._cycles_heard += 1
        self._prev_program = program
        self._next_start = start + header.total_slots

    def _backfill_data(
        self, header: ControlHeader, offset: int
    ) -> Optional[Union[Bucket, HeldPayload]]:
        """The previous cycle's entry (bucket or held payload) at a lost
        data bucket's offset: it keeps the items addressable (layout,
        autoprefetch arming), and the lost slot is never receivable, so
        its stale content cannot reach a read.

        Sound in the flat and overflow organizations (item positions are
        cycle-invariant); impossible in the clustered one.
        """
        prev = self._prev_program
        if (
            header.organization is MultiversionOrganization.CLUSTERED
            or prev is None
            or offset >= len(prev.data_buckets)
        ):
            return None
        return prev.data_buckets[offset]

    # -- frame dispatch ------------------------------------------------------

    def _admits(self, frame: Frame) -> bool:
        """Whether a broadcast frame is addressed where it can belong: to
        the cycle being assembled or a later one, and at a slot its
        CONTROL frame announced.  Anything else -- a replayed frame of a
        finished cycle, say -- is dropped before it can reopen a cycle or
        re-address the codec's memory; under a client-side fault pipeline
        it is a :class:`FrameError`, like every other wire anomaly there.
        """
        cycle, cur, last = frame.cycle, self._cur, self._last_cycle
        if (last is None or cycle > last) and (
            cur is None
            or cycle > cur.cycle
            or (cycle == cur.cycle and cur.announced(frame.type, frame.slot))
        ):
            return True
        if self.pipeline is not None:
            raise FrameError(
                f"misaddressed frame (cycle={cycle}, slot={frame.slot}) "
                "under a client-side fault pipeline; the exact lane "
                "requires a clean transport"
            )
        return False

    def _on_event(self, event: Union[Frame, FrameCorrupt]) -> None:
        if isinstance(event, FrameCorrupt):
            frame = event.frame
            if frame.type == HELLO or self.member is None:
                raise event
            if self._admits(frame):
                cur = self._open_cycle(frame.cycle)
                if frame.type == CONTROL:
                    cur.control_corrupt = True
                else:
                    cur.corrupt_slots.add(frame.slot)
            return
        frame = event
        if frame.type == HELLO:
            if self.member is None:
                self._on_hello(frame.payload)
            return
        if self.member is None:
            raise FrameError("broadcast frame before HELLO")
        if frame.type == END:
            blob = decode_json_payload(frame.payload)
            self._finalize_cycle()
            self._end_time = float(blob["end_time"])
            self._done = True
            return
        if not self._admits(frame):
            return
        assert self.codec is not None
        if frame.type == CONTROL:
            cur = self._open_cycle(frame.cycle)
            cur.header = header = self.codec.decode_control(frame)
            # Frames heard before their CONTROL keep only announced slots;
            # the DATA frames among them were kept raw until now.
            for ftype, heard in ((DATA, cur.data), (OVERFLOW, cur.overflow)):
                for slot in [s for s in heard if not cur.announced(ftype, s)]:
                    del heard[slot]
            for slot, early in cur.data.items():
                if type(early) is Frame:
                    cur.data[slot] = self._hear_data(early, header)
        elif frame.type == DATA:
            cur = self._open_cycle(frame.cycle)
            cur.data[frame.slot] = (
                frame
                if cur.header is None
                else self._hear_data(frame, cur.header)
            )
        elif frame.type == OVERFLOW:
            cur = self._open_cycle(frame.cycle)
            cur.overflow[frame.slot] = self.codec.decode_overflow_bucket(
                frame
            )
        if self._cur is not None and self._cur.complete():
            self._finalize_cycle()

    def _hear_data(
        self, frame: Frame, header: ControlHeader
    ) -> Union[Bucket, HeldPayload]:
        assert self.codec is not None
        self._buckets_heard += 1
        return self.codec.hear_data(frame, header)

    # -- the session ---------------------------------------------------------

    async def run(self) -> LiveClientResult:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            stream = FrameStream()
            while not self._done:
                data = await reader.read(1 << 16)
                if not data:
                    break
                for event in stream.feed(data):
                    self._on_event(event)
                    if self._done:
                        break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return self._finish()

    def _finish(self) -> LiveClientResult:
        """Close the session once the stream has ended."""
        if self.member is None:
            raise FrameError("connection closed before HELLO")
        self._finalize_cycle()
        end_time = (
            self._end_time if self._end_time is not None else self._next_start
        )
        member = self.member
        member.finish(end_time)
        assert self.params is not None and self.codec is not None
        result = LiveClientResult(
            scheme_label=self.scheme_label,
            params=self.params,
            metrics=self.metrics,
            client=member.client,
            cycles_heard=self._cycles_heard,
            cycles_missed=self._cycles_missed,
            end_time=end_time,
            buckets_heard=self._buckets_heard,
            buckets_parsed=self.codec.data_parsed,
        )
        # The suspended generator and the channel's listener list hold
        # the client, and the codec's held payloads hold the codec; untie
        # them so the listener is freed by reference counting as it ends.
        member.close()
        self.codec.release_held()
        return result

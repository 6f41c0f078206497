"""The chaos proxy: the sim's fault models lifted to the byte stream.

A TCP man-in-the-middle between the live server and its listeners.
Every downstream connection gets its own upstream connection (so each
listener receives its own HELLO) and its own seeded fault pipeline --
the exact :func:`repro.faults.models.build_pipeline` models the DES and
cohort runs use -- applied at *frame* granularity:

* a ``control_lost`` fate XORs a byte of the CONTROL payload, so the
  frame arrives but fails its CRC32 -- the client walks the same
  checksum-failure path a real corrupted control segment would trigger;
* a lost data/overflow slot drops that slot's frame outright;
* a ``ReportDelay`` fate cannot be expressed at the byte level (clients
  time against the logical clock in the control frame, not against
  arrival instants), so the slots that would have flown before the late
  synchronization are dropped instead -- the same information loss, just
  attributed to the slots rather than the delay;
* the shared storm schedule (:func:`compute_storm_windows`) silences a
  participating connection for whole cycles at a time -- every frame of
  a stormed cycle vanishes, which the client surfaces as missed cycles.

HELLO and END always pass through untouched: the session envelope is
out of band of the air interface the fault models describe.

The fault *schedule* per connection is deterministic in the proxy seed
and the connection's arrival order; it is not the DES per-client stream
(arrival order is an OS property), which is why the oracle's chaos lane
checks liveness and serializability contracts, not registry equality.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.config import FaultParameters
from repro.faults.models import (
    CycleFate,
    build_pipeline,
    compute_storm_windows,
    decide_fate,
)
from repro.live.codec import (
    CONTROL,
    DATA,
    END,
    HELLO,
    OVERFLOW,
    BitReader,
    FrameCorrupt,
    FrameStream,
    encode_frame,
)
from repro.stats.metrics import MetricsRegistry

#: Mixed into the proxy seed so its RNG tree never collides with the
#: injector's (which salts with 0x5EED_FA17) or the workload stream.
_PROXY_SEED_SALT = 0xC4A0_5EED


def control_geometry(payload: bytes) -> Tuple[int, int, int, int, int]:
    """(control_slots, index_slots, org_code, n_data, n_overflow).

    The leading geometry of a CONTROL payload is profile-independent
    (fixed widths), so the proxy can size a :class:`CycleFate` without
    knowing the wire profile.
    """
    r = BitReader(payload)
    r.read(64)  # start_slot -- the proxy never retimes
    control_slots = r.read(16)
    index_slots = r.read(16)
    org_code = r.read(2)
    n_data = r.read(16)
    n_overflow = r.read(16)
    return control_slots, index_slots, org_code, n_data, n_overflow


class _Link:
    """One downstream listener's lossy view of the upstream broadcast."""

    def __init__(
        self,
        faults: FaultParameters,
        rng: random.Random,
        storm_windows: List[Tuple[int, int]],
        metrics: MetricsRegistry,
    ) -> None:
        self.pipeline = build_pipeline(faults, rng)
        self.metrics = metrics
        self.participation = faults.storm_participation
        self.windows = storm_windows
        self._storm_rng = random.Random(rng.getrandbits(64))
        self._storm_hit: Dict[int, bool] = {}
        self._fates: Dict[int, CycleFate] = {}

    def _stormed(self, cycle: int) -> bool:
        for index, (first, last) in enumerate(self.windows):
            if first <= cycle <= last:
                hit = self._storm_hit.get(index)
                if hit is None:
                    hit = self._storm_hit[index] = (
                        self._storm_rng.random() < self.participation
                    )
                return hit
        return False

    def _fate_for_control(self, cycle: int, payload: bytes) -> CycleFate:
        control_slots, index_slots, _org, n_data, n_overflow = (
            control_geometry(payload)
        )
        # A late decode has no byte-level analogue; the fate already
        # counts what flew before synchronization as lost slots.
        total = control_slots + index_slots + n_data + n_overflow
        return decide_fate(self.pipeline, cycle, total, control_slots, self.metrics)

    def transform(self, frame) -> Optional[bytes]:
        """The bytes to forward downstream for one frame, or ``None``."""
        if frame.type in (HELLO, END):
            return encode_frame(frame.type, frame.cycle, frame.slot, frame.payload)
        if self._stormed(frame.cycle):
            return None
        if frame.type == CONTROL:
            fate = self._fate_for_control(frame.cycle, frame.payload)
            # Old cycles' fates are done with; keep the table tiny.
            self._fates = {frame.cycle: fate}
            raw = encode_frame(CONTROL, frame.cycle, frame.slot, frame.payload)
            if fate.control_lost:
                damaged = bytearray(raw)
                # Flip a payload byte: the header (and its CRC claim)
                # stay intact, so the receiver attributes the damage to
                # this (cycle, slot) and counts a lost control segment.
                damaged[-1] ^= 0xFF
                return bytes(damaged)
            return raw
        fate = self._fates.get(frame.cycle)
        if fate is not None and frame.slot in fate.lost_slots:
            return None
        return encode_frame(frame.type, frame.cycle, frame.slot, frame.payload)


class ChaosProxy:
    """Seeded lossy TCP relay in front of a :class:`LiveBroadcastServer`."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        faults: FaultParameters,
        *,
        num_cycles: int,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.faults = faults
        self.host = host
        self.requested_port = port
        self._rng = random.Random(seed ^ _PROXY_SEED_SALT)
        self.storm_windows: List[Tuple[int, int]] = []
        if faults.storm_rate > 0:
            self.storm_windows = compute_storm_windows(
                random.Random(self._rng.getrandbits(64)),
                num_cycles,
                faults.storm_rate,
                faults.storm_length,
            )
        #: What the proxy injected, over all links (``fault.*`` counters).
        self.metrics = MetricsRegistry()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._stopped = False

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.requested_port,
            reuse_address=True,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        link = _Link(
            self.faults,
            random.Random(self._rng.getrandbits(64)),
            self.storm_windows,
            self.metrics,
        )
        up_writer: Optional[asyncio.StreamWriter] = None
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
            stream = FrameStream()
            while True:
                data = await up_reader.read(1 << 16)
                if not data:
                    break
                out = bytearray()
                for event in stream.feed(data):
                    if isinstance(event, FrameCorrupt):
                        # Upstream is loopback-clean; should not happen,
                        # but pass the damage along faithfully if it does.
                        frame = event.frame
                        raw = bytearray(
                            encode_frame(
                                frame.type, frame.cycle, frame.slot,
                                frame.payload,
                            )
                        )
                        raw[-1] ^= 0xFF
                        out += raw
                        continue
                    forwarded = link.transform(event)
                    if forwarded is not None:
                        out += forwarded
                if out:
                    writer.write(bytes(out))
                    await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            for w in (writer, up_writer):
                if w is None:
                    continue
                w.close()
                try:
                    await w.wait_closed()
                except (ConnectionError, OSError, asyncio.CancelledError):
                    pass
            if task is not None:
                self._conn_tasks.discard(task)

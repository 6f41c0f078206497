"""Live serving mode: the broadcast protocol over real sockets.

Everything else in this repository runs the paper's broadcast-push
protocol inside the discrete-event engine (or its cohort replayer).
This package bridges sim -> production (ROADMAP item 2):

* :mod:`repro.live.codec` -- the wire format: one broadcast cycle as a
  sequence of framed, bit-packed buckets whose field widths come from
  the analytic :class:`~repro.server.sizing.SizeModel`;
* :mod:`repro.live.server` -- an asyncio server that drives the
  unmodified ``ProgramBuilder``/``TransactionEngine`` stack on a cycle
  clock and fans encoded cycles out over TCP connections;
* :mod:`repro.live.client` -- a live client that decodes frames back
  into :class:`~repro.broadcast.program.BroadcastProgram` s and runs the
  unmodified :class:`~repro.client.machine.BroadcastClient` protocol
  logic against them;
* :mod:`repro.live.chaos` -- a man-in-the-middle proxy lifting the
  :mod:`repro.faults` models to the byte stream;
* :mod:`repro.live.oracle` -- the sim-vs-live differential oracle
  (``python -m repro.oracle live``).

The determinism seam stays in sim: the server's broadcast schedule is a
pure function of the parameters and the seed (the cohort pre-pass
property), so a live run on loopback with a deterministic cycle clock
must reproduce the discrete-event twin's aggregate registry exactly.
"""

from repro.live.codec import (
    CodecError,
    CycleCodec,
    FrameCorrupt,
    FrameError,
    FrameTruncated,
    WireProfile,
)

__all__ = [
    "CodecError",
    "CycleCodec",
    "FrameCorrupt",
    "FrameError",
    "FrameTruncated",
    "WireProfile",
]

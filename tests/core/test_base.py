"""Tests for the Scheme base class and ReadContext plumbing."""

import ast
from pathlib import Path

import pytest

import repro.core
from repro.broadcast.program import BroadcastProgram, Bucket, ItemRecord
from repro.client.cache import ClientCache
from repro.client.machine import ClientRuntime
from repro.cohort.channel import CohortChannel
from repro.cohort.shim import CohortEnv
from repro.config import ClientParameters
from repro.core.base import ReadAborted, Scheme
from repro.core.control import ControlInfo, InvalidationReport
from repro.core.invalidation import InvalidationOnly
from repro.core.transaction import AbortReason
from repro.shard.scheme import _ShardContext
from repro.stats.metrics import MetricsRegistry


def test_unattached_scheme_rejects_context_access():
    scheme = InvalidationOnly()
    with pytest.raises(RuntimeError, match="not attached"):
        _ = scheme.ctx


def test_read_aborted_carries_reason():
    exc = ReadAborted(AbortReason.VERSION_GONE, "gone")
    assert exc.reason is AbortReason.VERSION_GONE
    assert "gone" in str(exc)


def test_read_aborted_defaults_message_to_reason():
    exc = ReadAborted(AbortReason.CYCLE_DETECTED)
    assert "cycle_detected" in str(exc)


def test_base_scheme_read_is_abstract():
    scheme = Scheme()
    with pytest.raises(NotImplementedError):
        scheme.read(None, 1)


def test_default_label_reflects_cache_flag():
    class Dummy(Scheme):
        name = "dummy"

    assert Dummy(use_cache=False).label == "dummy"
    assert Dummy(use_cache=True).label == "dummy+cache"


def test_default_state_cycle_is_none():
    assert Scheme().state_cycle(None) is None


def test_default_requirements_are_empty():
    reqs = Scheme().requirements()
    assert not reqs.needs_old_versions
    assert not reqs.needs_sgt
    assert not reqs.needs_versions_on_items
    assert reqs.report_window == 0


# -- the shared read path -------------------------------------------------------


def test_no_scheme_reads_the_old_version_pointer():
    """A cache hit hands back the record its entry was installed from,
    ``has_old_versions`` pointer included, where a rebuilt record used to
    carry ``False``.  That is invisible only while no scheme reads it."""
    core = Path(repro.core.__file__).parent
    readers = []
    for path in sorted(core.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = (
                isinstance(node, ast.Attribute) and node.attr == "has_old_versions"
            ) or (
                isinstance(node, ast.Constant) and node.value == "has_old_versions"
            )
            if named:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def _shard_world():
    """One client runtime on shard 0's channel, a scheme attached to
    shard 1's: the two channels air different cycles on different
    clocks, so whichever channel a read consults shows in its answer."""
    env = CohortEnv()
    metrics = MetricsRegistry()
    channels = {}
    for shard, (cycle, start) in enumerate([(3, 0.0), (8, 0.25)]):
        records = [ItemRecord(item, 10 * shard + item, cycle) for item in (1, 2, 3)]
        program = BroadcastProgram(
            cycle=cycle,
            control=ControlInfo(cycle=cycle, invalidation=InvalidationReport(cycle)),
            data_buckets=[
                Bucket(index=i, records=(r,)) for i, r in enumerate(records)
            ][:: 1 if shard == 0 else -1],
        )
        channel = CohortChannel(env, metrics)
        channel.install(program, frozenset(), start)
        channels[shard] = channel
    runtime = ClientRuntime(
        env, channels[0], ClientCache(4), metrics, ClientParameters()
    )
    scheme = InvalidationOnly(use_cache=True)
    scheme.attach(_ShardContext(runtime, channels[1]))
    return env, channels, runtime, scheme


def test_shard_reads_use_their_shards_channel_cached_or_not():
    env, channels, runtime, scheme = _shard_world()
    shard = channels[1]
    # Uncached: the read waits on shard 1's air -- item 1 rides in its
    # last bucket, slot 3, from shard 1's cycle start.
    read = scheme._read_current(1)
    wake = next(read)
    assert wake == shard.delivery_time(3) == 3.75
    env.now = wake
    with pytest.raises(StopIteration) as done:
        read.send(None)
    record, cycle, from_cache = done.value.value
    assert (record.value, cycle, from_cache) == (11, 8, False)
    # Cached: the hit reports shard 1's cycle, not the runtime's channel's.
    read = scheme._read_current(1)
    with pytest.raises(StopIteration) as done:
        next(read)
    hit, cycle, from_cache = done.value.value
    assert hit is record
    assert (cycle, from_cache) == (8, True)
    assert runtime.channel.current_cycle == 3

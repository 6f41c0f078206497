"""Field-level equality of two broadcast programs, the codec's round-trip
invariant: the tests that decode, rebuild or replay a program compare it
with the one the server built through :func:`programs_equal`."""

from __future__ import annotations

from repro.broadcast.program import BroadcastProgram


def programs_equal(a: BroadcastProgram, b: BroadcastProgram) -> bool:
    """Field-level equality of two programs (the round-trip invariant),
    down to every lookup a client makes of them."""
    if not (
        a.cycle == b.cycle
        and a.control == b.control
        and a.control_slots == b.control_slots
        and a.index_slots == b.index_slots
        and a.organization == b.organization
        and a.data_buckets == b.data_buckets
        and a.overflow_buckets == b.overflow_buckets
        and a.items == b.items
        and a.total_old_versions == b.total_old_versions
    ):
        return False
    for item in a.items:
        olds = a.old_versions_of(item)
        if (
            a.record_of(item) != b.record_of(item)
            or a.slots_of(item) != b.slots_of(item)
            or a.page_of(item) != b.page_of(item)
            or olds != b.old_versions_of(item)
            or any(
                a.old_version_at(item, old.version)
                != b.old_version_at(item, old.version)
                for old in olds
            )
        ):
            return False
    return True

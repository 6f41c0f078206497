"""A deliberately unsafe baseline: read whatever flies by, never abort.

This is what a client does with *no* consistency support -- the problem
statement of Section 2.2.  Queries spanning several cycles mix values
from different database states, so their readsets generally correspond to
no consistent snapshot at all.  The baseline exists to make the paper's
motivation measurable: the test suite and the examples count how many of
its committed queries are actually non-serializable, a number every real
scheme drives to zero.
"""

from __future__ import annotations

from typing import Generator

from repro.core.base import Scheme
from repro.core.transaction import ReadOnlyTransaction, ReadResult


class NoConsistency(Scheme):
    """The null protocol: current values, no validation, no aborts."""

    name = "no-consistency"

    def read(
        self, txn: ReadOnlyTransaction, item: int
    ) -> Generator[object, object, ReadResult]:
        record, cycle, from_cache = yield from self._read_current(item)
        return self._result_from_record(record, cycle, from_cache)

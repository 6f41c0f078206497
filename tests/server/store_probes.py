"""Questions only the tests put to the item store.

``ColumnarVersionStore`` keeps what the server loop reads.  These probes
answer the rest -- the inverse of the dense-id map, ownership, the
has-old bit, the retained versions, the best version at a cycle -- with
the bodies the store's own methods had.  All but :func:`item_at` and
:func:`owns` read only ``_retained`` and ``database``, so they ask the
dict reference store (``reference_versions.VersionStore``) the same.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.server.columnar import ColumnarVersionStore, RetainedVersion
from repro.server.database import Version


def item_at(store: ColumnarVersionStore, index: int) -> int:
    """Inverse of :meth:`~ColumnarVersionStore.dense_index`."""
    return store._items[index]


def owns(store: ColumnarVersionStore, item: int) -> bool:
    if store._base is not None:
        return 0 <= item - store._base < len(store._items)
    return item in store._index


def has_old(store, item: int) -> bool:
    return item in store._retained


def all_on_air(store) -> Dict[int, List[RetainedVersion]]:
    """Old versions per item, as copies."""
    return {item: list(rvs) for item, rvs in store._retained.items()}


def best_version_at(store, item: int, cycle: int) -> Optional[Version]:
    """Largest on-air version of ``item`` current at ``cycle``; ``None``
    once the one required has left the air."""
    current = store.database.current(item)
    if current.cycle <= cycle:
        return current
    for rv in reversed(store._retained.get(item, [])):
        if rv.covers(cycle):
            return rv.version
    return None


def total_retained(store) -> int:
    """Number of old versions currently on the air."""
    return sum(len(rvs) for rvs in store._retained.values())

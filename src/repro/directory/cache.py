"""Client-side lookup cache (the read-path scale-out of ROADMAP.md).

A :class:`LookupCache` is a bounded LRU mapping ``(directory object
number, rights, name)`` to the lookup result last returned by a
coherent read. Rights are part of the key because a capability's
column mask changes which capability a lookup sees — two clients (or
one client holding two capabilities) looking up the same row through
different masks can legitimately cache different answers.

The cache stores *values*, not hits: ``None`` ("no such row") is a
perfectly cacheable answer, so entries use a private ``_MISS``
sentinel to distinguish "not cached" from "cached None".

An invalidation record names a row, ``(object, name)``, and drops it
under every rights mask; an index from each row to its cached keys
makes that cost the keys dropped, not a scan of the cache.

Coherence itself — leases, epochs, invalidation acknowledgements —
lives in :mod:`repro.directory.client` (client half) and
:mod:`repro.directory.coherence` (server half); this module is just
the data structure plus its observability counters (cache.hits /
cache.misses / cache.fills / cache.invalidations / cache.flushes,
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from collections import OrderedDict

#: Returned by :meth:`LookupCache.get` when the key is absent.
MISS = object()


class LookupCache:
    """Bounded LRU of lookup answers with per-object invalidation."""

    def __init__(self, capacity: int, registry=None, node: str = ""):
        if capacity <= 0:
            raise ValueError("LookupCache needs a positive capacity")
        self.capacity = capacity
        # key -> (value, server) where *server* is the replica whose
        # lease covers the entry (an entry is only servable while that
        # replica's lease is current — see DirectoryClient).
        self._entries: OrderedDict = OrderedDict()
        #: (object number, name) -> the keys of ``_entries`` for that
        #: row, one per rights mask it was looked up under.
        self._by_row: dict[tuple, set] = {}
        if registry is not None:
            self._c_hits = registry.counter(node, "cache.hits")
            self._c_misses = registry.counter(node, "cache.misses")
            self._c_fills = registry.counter(node, "cache.fills")
            self._c_invalidations = registry.counter(node, "cache.invalidations")
            self._c_flushes = registry.counter(node, "cache.flushes")
        else:  # pragma: no cover - unit-test convenience
            self._c_hits = self._c_misses = self._c_fills = None
            self._c_invalidations = self._c_flushes = None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """``(value, server)`` for *key*, or :data:`MISS`.

        A hit refreshes the entry's LRU position. Counters are *not*
        bumped here — a multi-name lookup is one logical hit or miss,
        so the client accounts at that granularity via
        :meth:`count_hit` / :meth:`count_miss`.
        """
        entry = self._entries.get(key, MISS)
        if entry is not MISS:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value, server) -> None:
        """Fill (or refresh) one entry, evicting the LRU tail."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        else:
            self._by_row.setdefault((key[0], key[2]), set()).add(key)
        entries[key] = (value, server)
        if len(entries) > self.capacity:
            self._unindex(entries.popitem(last=False)[0])
        if self._c_fills is not None:
            self._c_fills.inc()

    def _unindex(self, key) -> None:
        """Take a key that just left ``_entries`` out of the index."""
        row = (key[0], key[2])
        keys = self._by_row[row]
        keys.discard(key)
        if not keys:
            del self._by_row[row]

    def count_hit(self) -> None:
        if self._c_hits is not None:
            self._c_hits.inc()

    def count_miss(self) -> None:
        if self._c_misses is not None:
            self._c_misses.inc()

    def invalidate(self, object_number: int, name) -> int:
        """Drop entries matching an invalidation record.

        ``(obj, name)`` drops that row under every rights mask;
        ``(obj, None)`` drops every entry of the directory. Returns
        the number of entries dropped.
        """
        if name is None:
            # A deleted directory: rare enough to scan for.
            doomed = [k for k in self._entries if k[0] == object_number]
            for key in doomed:
                self._unindex(key)
        else:
            doomed = self._by_row.pop((object_number, name), ())
        for key in doomed:
            del self._entries[key]
        if doomed and self._c_invalidations is not None:
            self._c_invalidations.inc(len(doomed))
        return len(doomed)

    def drop(self, key) -> None:
        """Drop one entry (e.g. its replica's lease expired)."""
        if self._entries.pop(key, MISS) is not MISS:
            self._unindex(key)

    def drop_server(self, server) -> int:
        """Drop every entry filled under *server*'s lease (it lapsed:
        that replica stopped pushing their invalidations). Returns the
        number of entries dropped."""
        doomed = [k for k, (_, s) in self._entries.items() if s == server]
        for key in doomed:
            del self._entries[key]
            self._unindex(key)
        return len(doomed)

    def flush(self) -> int:
        """Drop everything (lease lapse, connection loss). Returns the
        number of entries dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_row.clear()
        if dropped and self._c_flushes is not None:
            self._c_flushes.inc()
        return dropped

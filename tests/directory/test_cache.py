"""LookupCache unit tests: LRU bounds, the MISS sentinel,
invalidation-record matching, and the row index behind it."""

import random

import pytest

from repro.directory.cache import MISS, LookupCache


def k(obj, name, rights=0xFF):
    return (obj, rights, name)


class TestBasics:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            LookupCache(0)

    def test_get_returns_entry_or_miss(self):
        cache = LookupCache(4)
        assert cache.get(k(1, "a")) is MISS
        cache.put(k(1, "a"), "cap-a", "s0")
        assert cache.get(k(1, "a")) == ("cap-a", "s0")

    def test_cached_none_is_not_a_miss(self):
        # "No such row" is a cacheable answer; only the sentinel means
        # the key is absent.
        cache = LookupCache(4)
        cache.put(k(1, "ghost"), None, "s0")
        assert cache.get(k(1, "ghost")) == (None, "s0")
        assert cache.get(k(1, "ghost")) is not MISS

    def test_rights_are_part_of_the_key(self):
        cache = LookupCache(4)
        cache.put(k(1, "a", rights=0x01), "masked", "s0")
        assert cache.get(k(1, "a", rights=0xFF)) is MISS


class TestLru:
    def test_eviction_drops_least_recently_used(self):
        cache = LookupCache(2)
        cache.put(k(1, "a"), 1, "s0")
        cache.put(k(1, "b"), 2, "s0")
        cache.get(k(1, "a"))  # refresh a
        cache.put(k(1, "c"), 3, "s0")  # evicts b
        assert cache.get(k(1, "a")) == (1, "s0")
        assert cache.get(k(1, "b")) is MISS
        assert cache.get(k(1, "c")) == (3, "s0")
        assert len(cache._entries) == 2

    def test_refill_refreshes_instead_of_growing(self):
        cache = LookupCache(2)
        cache.put(k(1, "a"), 1, "s0")
        cache.put(k(1, "a"), 2, "s1")
        assert len(cache._entries) == 1
        assert cache.get(k(1, "a")) == (2, "s1")


class TestInvalidation:
    def test_row_record_drops_all_rights_masks(self):
        cache = LookupCache(8)
        cache.put(k(1, "a", rights=0x01), "m1", "s0")
        cache.put(k(1, "a", rights=0xFF), "m2", "s0")
        cache.put(k(1, "b"), "keep", "s0")
        assert cache.invalidate(1, "a") == 2
        assert cache.get(k(1, "a", rights=0x01)) is MISS
        assert cache.get(k(1, "b")) == ("keep", "s0")

    def test_directory_record_drops_whole_object(self):
        cache = LookupCache(8)
        cache.put(k(1, "a"), 1, "s0")
        cache.put(k(1, "b"), 2, "s0")
        cache.put(k(2, "a"), 3, "s0")
        assert cache.invalidate(1, None) == 2
        assert len(cache._entries) == 1
        assert cache.get(k(2, "a")) == (3, "s0")

    def test_no_match_returns_zero(self):
        cache = LookupCache(8)
        cache.put(k(1, "a"), 1, "s0")
        assert cache.invalidate(9, "a") == 0
        assert cache.invalidate(1, "z") == 0

    def test_drop_and_flush(self):
        """One entry goes, or every entry of one lapsed lease."""
        cache = LookupCache(8)
        cache.put(k(1, "a"), 1, "s0")
        cache.put(k(1, "b"), 2, "s1")
        cache.put(k(2, "c"), 3, "s1")
        cache.drop(k(1, "a"))
        cache.drop(k(1, "never-cached"))  # no-op
        assert cache.get(k(1, "a")) is MISS
        assert cache.drop_server("s1") == 2
        assert len(cache._entries) == 0


class TestRowIndex:
    """``invalidate(obj, name)`` reads a ``(obj, name) -> keys`` index
    instead of scanning the cache; no way an entry leaves or enters may
    leave that index stale."""

    def test_index_matches_a_grouping_after_every_step(self):
        for seed in range(12):
            rng = random.Random(seed)
            cache = LookupCache(rng.choice((1, 4, 16)))

            def key():
                rights = rng.choice((0x01, 0x04, 0xFF))
                return k(rng.randrange(3), rng.choice("abcde"), rights)

            def scan(obj, name):
                return sum(
                    1
                    for key in cache._entries
                    if key[0] == obj and (name is None or key[2] == name)
                )

            for _ in range(300):
                action = rng.choice(
                    ("put", "put", "put", "get", "row", "row", "dir",
                     "drop", "drop_server")
                )
                if action == "put":
                    cache.put(key(), rng.random(), rng.choice(("s0", "s1")))
                elif action == "get":
                    cache.get(key())
                elif action in ("row", "dir"):
                    obj = rng.randrange(3)
                    name = rng.choice("abcde") if action == "row" else None
                    expected = scan(obj, name)
                    assert cache.invalidate(obj, name) == expected
                    assert scan(obj, name) == 0
                elif action == "drop":
                    cache.drop(key())
                else:
                    cache.drop_server(rng.choice(("s0", "s1")))
                grouped = {}
                for entry in cache._entries:
                    grouped.setdefault((entry[0], entry[2]), set()).add(entry)
                assert cache._by_row == grouped

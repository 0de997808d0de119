"""The single-iteration bodies of the paper's three workloads.

Each generator performs ONE iteration against a
:class:`~repro.directory.client.DirectoryClient` (plus, for the
tmp-file test, a file-service client with BulletClient's API) and
returns nothing; :func:`repro.bench.harness.drive` runs them back to
back.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.amoeba.capability import ALL_RIGHTS, Capability, Port

FOUR_BYTES = b"tmp!"


class ZipfianNames:
    """A Zipf(α) distribution over a fixed name list.

    ``pick(rng)`` draws a name with probability ∝ 1/rank^α (rank =
    position in *names*, 1-based), via a precomputed CDF and one
    ``rng.random()`` call — the hot-key generator for cache workloads:
    with α around 1.1 a handful of names absorb most lookups, which is
    what makes a small client cache effective (and what the directory
    trace in the paper's section 4 looks like: 98 % reads, heavily
    skewed toward a few working-set names).
    """

    def __init__(self, names, alpha: float = 1.1):
        self.names = list(names)
        if not self.names:
            raise ValueError("ZipfianNames needs at least one name")
        self.alpha = alpha
        weights = [1.0 / (rank**alpha) for rank in range(1, len(self.names) + 1)]
        total = sum(weights)
        self._cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # close the rounding gap

    def pick(self, rng) -> str:
        """One draw, using a single ``rng.random()`` (bisect on the CDF)."""
        return self.names[bisect_left(self._cdf, rng.random())]


def append_delete_once(client, directory_cap, name: str, target_cap):
    """Append a (name, capability) row and delete it again."""
    yield from client.append_row(directory_cap, name, (target_cap,))
    yield from client.delete_row(directory_cap, name)


def tmp_file_once(client, directory_cap, file_service, name: str):
    """The paper's compiler-temporary scenario.

    Create a 4-byte file, register its capability under *name*, look
    the name up, read the file back, and delete the name.
    """
    file_ref = yield from file_service.create(FOUR_BYTES)
    registered = _as_registrable(file_ref, client)
    yield from client.append_row(directory_cap, name, (registered,))
    yield from client.lookup(directory_cap, name)
    yield from file_service.read(file_ref)
    yield from client.delete_row(directory_cap, name)
    # The file itself would be unlinked by the application later; the
    # paper's measured sequence ends at the name deletion.


def lookup_once(client, directory_cap, name: str):
    """One directory lookup (the 98%-of-traffic operation)."""
    result = yield from client.lookup(directory_cap, name)
    return result


def mixed_once(client, directory_cap, rng, names: list, target_cap,
               read_fraction: float = 0.98, tag: str = "m"):
    """One operation drawn from the production mix (98% reads).

    Returns the kind of operation performed ("read" or "write").
    """
    if names and rng.random() < read_fraction:
        yield from client.lookup(directory_cap, rng.choice(names))
        return "read"
    if names and rng.random() < 0.5:
        name = names.pop(rng.randrange(len(names)))
        yield from client.delete_row(directory_cap, name)
    else:
        # Reserve the name up front so concurrent drivers sharing the
        # pool keep it populated while this append is in flight.
        name = f"{tag}-{rng.randrange(1 << 30)}"
        names.append(name)
        yield from client.append_row(directory_cap, name, (target_cap,))
    return "write"


def _as_registrable(file_ref, client):
    """Bullet returns a Capability; the NFS stand-in returns an int
    handle. Directories store capabilities, so wrap plain handles."""
    if isinstance(file_ref, Capability):
        return file_ref
    return Capability(
        Port.for_service("nfs.file.handle"), int(file_ref) & 0xFFFFFF, ALL_RIGHTS, 1
    )

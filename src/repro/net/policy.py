"""Link-level fault injection: the adversarial failure model.

The base :class:`~repro.net.network.Network` models the paper's polite
assumptions — fail-stop machines, clean partitions. Real networks (and
Jepsen-style chaos testing) also lose frames, and exhibit *asymmetric*
faults: one direction of a link lossy while the other is fine, a
multicast reaching some receivers but not others, duplicated frames,
bounded reordering, and delay spikes. This module supplies a
pluggable per-delivery interceptor chain for exactly those.

A :class:`LinkPolicy` inspects each (src, dst) *delivery* — a multicast
fans out into one delivery per receiver, so per-receiver multicast loss
falls out naturally — and folds its effect into a
:class:`LinkDecision`. ``Network.add_policy`` chains policies on
``Network.link_policies``; every policy draws randomness from its own
named :mod:`repro.sim.randomness` stream (``net.link.<name>``), so
adding or removing one policy never perturbs the draws of another and
runs stay a pure function of the seed.

Concrete policies:

========================  =============================================
:class:`Drop`             drop matching deliveries with a probability
                          (asymmetric loss, per-receiver multicast
                          loss, kind-targeted filters, drop budgets)
:class:`Duplicate`        deliver extra copies of matching frames
:class:`Delay`            add a latency spike (FIFO preserved — the
                          link stalls)
:class:`Reorder`          add a bounded random delay *and* exempt the
                          delivery from per-pair FIFO, so later frames
                          may overtake it (bounded reordering)
========================  =============================================

Filters (:class:`LinkFilter`) match on source, destination, and frame
kind; kinds accept :mod:`fnmatch` wildcards so ``"grp.*.bc"`` targets
every group's sequenced broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Hashable

Address = Hashable


@dataclass(frozen=True)
class LinkContext:
    """One candidate delivery, as shown to the policy chain."""

    src: Address
    dst: Address
    kind: str
    size: int
    multicast: bool
    now: float


@dataclass
class LinkDecision:
    """Accumulated verdict of the policy chain for one delivery."""

    drop: bool = False
    dropped_by: str | None = None  # name of the policy that dropped it
    duplicates: int = 0  # extra copies beyond the original
    extra_delay_ms: float = 0.0
    allow_reorder: bool = False  # exempt from per-pair FIFO clamping


def _matches_endpoint(spec, value) -> bool:
    if spec is None:
        return True
    if callable(spec):
        return bool(spec(value))
    if isinstance(spec, (set, frozenset, list, tuple)):
        return value in spec
    return value == spec


@dataclass(frozen=True)
class LinkFilter:
    """Selects deliveries by src / dst / kind / multicast-ness.

    ``src`` and ``dst`` each accept ``None`` (any), a concrete address,
    a collection of addresses, or a predicate. ``kind`` is ``None`` or
    an :mod:`fnmatch` pattern (``"grp.*.bc"``, ``"rpc.re*"``).
    ``multicast`` restricts to multicast (True) or unicast (False)
    deliveries when set.
    """

    src: Any = None
    dst: Any = None
    kind: str | None = None
    multicast: bool | None = None

    def matches(self, ctx: LinkContext) -> bool:
        if self.multicast is not None and ctx.multicast != self.multicast:
            return False
        if self.kind is not None and not fnmatchcase(ctx.kind, self.kind):
            return False
        return _matches_endpoint(self.src, ctx.src) and _matches_endpoint(
            self.dst, ctx.dst
        )


class LinkPolicy:
    """Base interceptor: subclasses mutate the :class:`LinkDecision`.

    Every policy has a ``name``; its randomness stream is
    ``net.link.<name>``, so give each *instance* in a chain a distinct
    name (the constructors default sensibly, but two anonymous
    ``Drop()`` policies would share a stream — name them).
    """

    def __init__(self, name: str, where: LinkFilter | None = None):
        self.name = name
        self.where = where or LinkFilter()
        self.enabled = True
        self.matched = 0  # deliveries this policy acted on

    @property
    def stream_name(self) -> str:
        return f"net.link.{self.name}"

    def apply(self, ctx: LinkContext, decision: LinkDecision, rng) -> None:
        """Fold this policy's effect into *decision* (chain entry point)."""
        if not self.enabled or not self.where.matches(ctx):
            return
        self._act(ctx, decision, rng)

    def _act(self, ctx, decision, rng) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Drop(LinkPolicy):
    """Drop matching deliveries with *probability*.

    ``max_drops`` bounds the total number of frames eaten (the policy
    then goes inert) — useful for targeted faults like "lose the next
    two ``grp.bc`` frames from the sequencer" without starving the
    protocol forever.
    """

    def __init__(
        self,
        name: str = "drop",
        where: LinkFilter | None = None,
        probability: float = 1.0,
        max_drops: int | None = None,
    ):
        super().__init__(name, where)
        self.probability = probability
        self.max_drops = max_drops
        self.dropped = 0

    def _act(self, ctx, decision, rng) -> None:
        if decision.drop:
            return
        if self.max_drops is not None and self.dropped >= self.max_drops:
            self.enabled = False
            return
        if self.probability < 1.0 and (
            rng.uniform(self.stream_name, 0.0, 1.0) >= self.probability
        ):
            return
        self.matched += 1
        self.dropped += 1
        decision.drop = True
        decision.dropped_by = self.name


class Duplicate(LinkPolicy):
    """Deliver *copies* extra copies of matching frames."""

    def __init__(
        self,
        name: str = "dup",
        where: LinkFilter | None = None,
        probability: float = 1.0,
        copies: int = 1,
    ):
        super().__init__(name, where)
        self.probability = probability
        self.copies = copies

    def _act(self, ctx, decision, rng) -> None:
        if self.probability < 1.0 and (
            rng.uniform(self.stream_name, 0.0, 1.0) >= self.probability
        ):
            return
        self.matched += 1
        decision.duplicates += self.copies


class Delay(LinkPolicy):
    """Add a delay spike of uniform(*min_ms*, *max_ms*) to matching
    deliveries. Per-pair FIFO is preserved: later frames queue behind
    the delayed one, as on a genuinely stalled link."""

    def __init__(
        self,
        name: str = "delay",
        where: LinkFilter | None = None,
        probability: float = 1.0,
        min_ms: float = 0.0,
        max_ms: float = 50.0,
    ):
        super().__init__(name, where)
        self.probability = probability
        self.min_ms = min_ms
        self.max_ms = max_ms

    def _act(self, ctx, decision, rng) -> None:
        if self.probability < 1.0 and (
            rng.uniform(self.stream_name, 0.0, 1.0) >= self.probability
        ):
            return
        self.matched += 1
        decision.extra_delay_ms += rng.uniform(
            self.stream_name, self.min_ms, self.max_ms
        )


class Reorder(LinkPolicy):
    """Bounded reordering: hold a matching delivery back by
    uniform(0, *max_delay_ms*) and let later frames overtake it.

    The bound caps the reordering depth — a frame can fall behind by at
    most *max_delay_ms* of wire traffic, mirroring real switch-queue
    jitter rather than arbitrary adversarial scrambling."""

    def __init__(
        self,
        name: str = "reorder",
        where: LinkFilter | None = None,
        probability: float = 1.0,
        max_delay_ms: float = 20.0,
    ):
        super().__init__(name, where)
        self.probability = probability
        self.max_delay_ms = max_delay_ms

    def _act(self, ctx, decision, rng) -> None:
        if self.probability < 1.0 and (
            rng.uniform(self.stream_name, 0.0, 1.0) >= self.probability
        ):
            return
        self.matched += 1
        decision.extra_delay_ms += rng.uniform(
            self.stream_name, 0.0, self.max_delay_ms
        )
        decision.allow_reorder = True

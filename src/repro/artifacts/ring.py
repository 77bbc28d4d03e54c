"""Consistent hash ring: artifact key → owning node.

The same key always maps to the same node while the node set is stable,
and when a node joins or leaves only ~1/N of the key space remaps (and
every remapped key moves to/from exactly the joining/leaving node — no
unrelated churn).  Nothing in the local runner places keys on nodes
today; the ring is a standalone utility.

Placement is deterministic by construction — SHA-256 over
``"{node}#{replica}"`` for the ring points and over the key for
lookups, so every process computes identical placements with no
dependence on platform hash randomization.  Each
node contributes ``replicas`` virtual points, which is what bounds the
per-node share variance (the distribution tests pin the bound).
"""

from __future__ import annotations

import bisect
import hashlib

DEFAULT_REPLICAS = 64


def _point(material: str) -> int:
    """Stable 64-bit ring coordinate for a string."""
    return int.from_bytes(
        hashlib.sha256(material.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Deterministic consistent hash ring over named nodes."""

    def __init__(
        self, nodes: list[str] | tuple[str, ...] = (), replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._nodes: set[str] = set()
        #: Sorted virtual points; two parallel lists for bisect lookups.
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add(node)

    # ----------------------------------------------------------- membership

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        """Join one node (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = _point(f"{node}#{replica}")
            index = bisect.bisect_left(self._points, point)
            # SHA-256 point collisions between distinct vnode labels are
            # negligible; ties break toward the lexically smaller node so
            # placement stays deterministic even then.
            if (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] <= node
            ):
                continue
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Leave one node (idempotent); its key range remaps to successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    # -------------------------------------------------------------- lookup

    def owner(self, key: str) -> str | None:
        """The node owning ``key``, or None on an empty ring."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, _point(key))
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._owners[index]

    def distribution(self, keys: list[str]) -> dict[str, int]:
        """Keys-per-node histogram."""
        counts: dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            node = self.owner(key)
            if node is not None:
                counts[node] += 1
        return counts

"""Consistent-hash ring properties: determinism, balance, bounded remap."""

from repro.artifacts.ring import DEFAULT_REPLICAS, HashRing

KEYS = [f"cell:w{i % 40}:cfg{i % 7}:None:{i}" for i in range(2000)]


def _nodes(n: int) -> list[str]:
    return [f"10.0.0.{i}:9400" for i in range(1, n + 1)]


def test_placement_is_deterministic():
    a = HashRing(_nodes(5))
    b = HashRing(_nodes(5))
    assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]


def test_placement_independent_of_insertion_order():
    nodes = _nodes(5)
    forward = HashRing(nodes)
    backward = HashRing(list(reversed(nodes)))
    assert [forward.owner(k) for k in KEYS] == [backward.owner(k) for k in KEYS]


def test_distribution_balanced_for_2_to_8_nodes():
    for n in range(2, 9):
        ring = HashRing(_nodes(n))
        counts = ring.distribution(KEYS)
        assert len(counts) == n
        # With 64 virtual nodes per node the spread is imperfect but
        # every node must carry a meaningful share: within [1/3, 3]x of
        # the fair 1/n fraction.
        fair = len(KEYS) / n
        for node, count in counts.items():
            assert fair / 3 <= count <= fair * 3, (n, node, count)


def test_join_moves_keys_only_to_new_node():
    for n in (2, 4, 7):
        before = HashRing(_nodes(n))
        after = HashRing(_nodes(n))
        joiner = "10.0.1.99:9400"
        after.add(joiner)
        moved = 0
        for key in KEYS:
            old, new = before.owner(key), after.owner(key)
            if old != new:
                moved += 1
                # Every reassignment lands on the joining node.
                assert new == joiner, (key, old, new)
        fraction = moved / len(KEYS)
        # Expect ~1/(n+1); allow generous slack for hash variance, but
        # well below the 1/2 a naive modulo scheme would shuffle.
        assert 0 < fraction <= 2.5 / (n + 1), (n, fraction)


def test_leave_moves_only_departed_keys():
    for n in (3, 5, 8):
        nodes = _nodes(n)
        before = HashRing(nodes)
        after = HashRing(nodes)
        leaver = nodes[0]
        after.remove(leaver)
        for key in KEYS:
            old, new = before.owner(key), after.owner(key)
            if old == leaver:
                assert new != leaver
            else:
                # Keys not owned by the departed node never move.
                assert new == old, (key, old, new)


def test_join_then_leave_roundtrips():
    ring = HashRing(_nodes(4))
    baseline = [ring.owner(k) for k in KEYS]
    ring.add("10.0.1.99:9400")
    ring.remove("10.0.1.99:9400")
    assert [ring.owner(k) for k in KEYS] == baseline


def test_membership_and_len():
    ring = HashRing(_nodes(3), replicas=DEFAULT_REPLICAS)
    assert len(ring) == 3
    assert "10.0.0.1:9400" in ring
    ring.remove("10.0.0.1:9400")
    assert "10.0.0.1:9400" not in ring
    assert len(ring) == 2


def test_single_node_owns_everything():
    ring = HashRing(["solo:1"])
    assert all(ring.owner(k) == "solo:1" for k in KEYS[:50])


def test_empty_ring_has_no_owner():
    ring = HashRing([])
    assert ring.owner("anything") is None
    assert ring.nodes == []

"""Property tests: incremental indexes equal their brute-force definitions.

The heartbeat engine resolves record relevance through the overlay's cached
leaf-adjacency index (``is_neighbor``, ``neighbor_set``) and counts broken links through
per-node caches keyed by neighborhood stamps.  Both must stay extensionally
equal to the quantities they replaced: pairwise geometric abutment of the
ground-truth zones, and a full rescan of believed tables against live
ground-truth neighbors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.geometry import any_abuts
from repro.can.heartbeat import (
    HeartbeatProtocol,
    HeartbeatScheme,
    ProtocolConfig,
)
from repro.can.overlay import CanOverlay, OverlayError
from repro.can.space import ResourceSpace


def _coord(rng, dims):
    return tuple(rng.random(dims) * 0.998 + 0.001)


def _churn_and_check_adjacency(seed: int, gpu_slots: int) -> None:
    """Random churn (including deferred take-overs); after every step the
    cached ``neighbor_set`` of every member — alive or dead-but-unclaimed —
    matches a fresh adjacency walk, brute-force zone abutment and
    ``is_neighbor`` for every member pair."""
    rng = np.random.default_rng(seed)
    space = ResourceSpace(gpu_slots=gpu_slots)
    overlay = CanOverlay(space)
    next_id = 0
    alive: list = []
    pending: list = []
    for _ in range(30):
        roll = rng.random()
        if not alive or len(alive) < 3 or roll < 0.5:
            try:
                overlay.add_node(next_id, _coord(rng, space.dims))
            except OverlayError:
                continue
            alive.append(next_id)
            next_id += 1
        elif roll < 0.7:
            overlay.graceful_leave(
                alive.pop(int(rng.integers(len(alive))))
            )
        elif roll < 0.9 or not pending:
            victim = alive.pop(int(rng.integers(len(alive))))
            overlay.fail(victim)
            pending.append(victim)
        else:
            overlay.claim_zones(
                pending.pop(int(rng.integers(len(pending))))
            )
        members = list(overlay.members)
        zones = {nid: overlay.zones_of(nid) for nid in members}
        for r in members:
            nset = overlay.neighbor_set(r)
            assert nset == overlay.neighbors(r)  # cache vs fresh walk
            brute = {
                s
                for s in members
                if s != r and any_abuts(zones[s], zones[r])
            }
            assert nset == brute
            for s in members:
                assert overlay.is_neighbor(r, s) == (s in nset)


class TestAdjacencyIndex:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_neighbor_set_equals_geometric_abutment(self, seed):
        _churn_and_check_adjacency(seed, gpu_slots=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_neighbor_set_equals_geometric_abutment_11d(self, seed):
        """The benchmark's 11-d space, where zones have the most neighbors."""
        _churn_and_check_adjacency(seed, gpu_slots=2)


def _brute_broken_links(proto: HeartbeatProtocol) -> int:
    """The pre-optimisation definition: full rescan, no caches."""
    overlay = proto.overlay
    total = 0
    for node_id, pnode in proto.nodes.items():
        if not overlay.is_alive(node_id):
            continue
        believed = pnode.table.ids()
        for nid in overlay.neighbors(node_id):
            if nid not in believed and overlay.is_alive(nid):
                total += 1
    return total


class TestBrokenLinkCount:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(
            [HeartbeatScheme.VANILLA, HeartbeatScheme.ADAPTIVE]
        ),
    )
    def test_count_matches_brute_force_under_churn(self, seed, scheme):
        rng = np.random.default_rng(seed)
        space = ResourceSpace(gpu_slots=0)
        overlay = CanOverlay(space)
        proto = HeartbeatProtocol(overlay, ProtocolConfig(scheme=scheme))
        proto.bootstrap(0, _coord(rng, space.dims))
        alive = [0]
        next_id = 1
        for _ in range(12):
            if proto.join(next_id, _coord(rng, space.dims), 0.0):
                alive.append(next_id)
            next_id += 1
        now = 0.0
        for _ in range(8):
            now += 60.0
            roll = rng.random()
            if roll < 0.4:
                if proto.join(next_id, _coord(rng, space.dims), now):
                    alive.append(next_id)
                next_id += 1
            elif roll < 0.7 and len(alive) > 4:
                proto.graceful_leave(
                    alive.pop(int(rng.integers(len(alive)))), now
                )
            elif len(alive) > 4:
                proto.fail(alive.pop(int(rng.integers(len(alive)))), now)
            proto.run_round(now)
            assert proto.count_broken_links() == _brute_broken_links(proto)
            # second call exercises the fully-cached path
            assert proto.count_broken_links() == _brute_broken_links(proto)

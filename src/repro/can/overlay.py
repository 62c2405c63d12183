"""Authoritative CAN state: membership, zones, adjacency, join/leave/claim.

The overlay is the simulator's ground truth.  It maintains the split tree,
the leaf-level adjacency graph (incrementally — splits and merges only touch
local edges), and per-member zone ownership.  The messaging layer
(:mod:`repro.can.heartbeat`) maintains each node's *believed* neighbor table
separately; a believed table missing a ground-truth neighbor is precisely a
*broken link* (paper, Section IV-A).

Failure handling is split in two: :meth:`fail` marks a member dead (its
zones linger, as in reality, until neighbors time the node out), and
:meth:`claim_zones` performs the predetermined take-over transfers — the
protocol layer calls it when the failure is detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..overlay.base import SubstrateError
from .geometry import Zone, split_abutment
from .space import ResourceSpace
from .split_tree import Leaf, SplitTree

__all__ = ["CanOverlay", "JoinResult", "Transfer", "OverlayError"]


class OverlayError(SubstrateError):
    """Structural CAN violation (bad join, unknown member, ...)."""


@dataclass(frozen=True)
class JoinResult:
    """What happened during a join: who split, and the resulting leaves."""

    node_id: int
    splitter_id: Optional[int]  # None for the bootstrap node
    new_leaf_id: Optional[int]
    split_dim: Optional[int]
    split_position: Optional[float]


@dataclass(frozen=True)
class Transfer:
    """One zone hand-off produced by a leave or a post-failure claim."""

    leaf_id: int
    zone: Zone
    from_node: int
    to_node: int


@dataclass
class Member:
    node_id: int
    coord: Tuple[float, ...]
    alive: bool = True


class CanOverlay:
    """Ground-truth CAN: split tree + adjacency + membership."""

    def __init__(self, space: ResourceSpace):
        self.space = space
        self.tree: Optional[SplitTree] = None
        self.members: Dict[int, Member] = {}
        self._owner_leaves: Dict[int, Set[int]] = {}
        self._adj: Dict[int, Set[int]] = {}  # leaf_id -> adjacent leaf_ids
        #: bumped on every structural change; caches key off it
        self.topology_version: int = 0
        # lazy per-node directional adjacency: node -> {(dim, dir): owners}
        self._dir_cache_version: int = -1
        self._dir_cache: Dict[int, Dict[Tuple[int, int], Set[int]]] = {}
        #: per-node neighborhood stamps: ``_nbr_stamp[n]`` advances whenever
        #: node n's ground-truth neighborhood (or a neighbor's liveness) can
        #: have changed.  Unlike ``topology_version`` this is *local*: a
        #: split on the far side of the space leaves most stamps — and
        #: therefore most per-node caches — intact.
        self._nbr_tick: int = 0
        self._nbr_stamp: Dict[int, int] = {}
        self._nbr_sets: Dict[int, Tuple[int, frozenset]] = {}
        #: incremental neighbor-pair counters: ``_nbr_counts[a][b]`` is the
        #: number of adjacent leaf pairs whose owners are (a, b), a != b.
        #: A pure function of (leaf adjacency, owner map), maintained at the
        #: same sites that mutate ``_adj`` / leaf ownership, so
        #: :meth:`neighbors` is O(degree) instead of a leaf-set rebuild.
        self._nbr_counts: Dict[int, Dict[int, int]] = {}

    # ------------------------------------------------------------------ queries --
    @property
    def size(self) -> int:
        """Number of members, dead-but-unclaimed included."""
        return len(self.members)

    def alive_ids(self) -> List[int]:
        return [m.node_id for m in self.members.values() if m.alive]

    def coordinate(self, node_id: int) -> Tuple[float, ...]:
        return self._member(node_id).coord

    def leaves_of(self, node_id: int) -> List[Leaf]:
        assert self.tree is not None
        return [self.tree.leaves[lid] for lid in self._owner_leaves.get(node_id, ())]

    def zones_of(self, node_id: int) -> List[Zone]:
        return [leaf.zone for leaf in self.leaves_of(node_id)]

    def neighbors(self, node_id: int) -> Set[int]:
        """Ground-truth neighbor ids: owners of leaves abutting any owned leaf."""
        self._member(node_id)
        row = self._nbr_counts.get(node_id)
        return set(row) if row else set()

    def is_neighbor(self, a: int, b: int) -> bool:
        """Is ``b`` a ground-truth neighbor of ``a``?  O(1), builds no set."""
        row = self._nbr_counts.get(a)
        return row is not None and b in row

    def neighborhood_stamp(self, node_id: int) -> int:
        """Monotone counter advancing when this node's neighborhood changes.

        Covers adjacency changes (splits, merges, transfers, drops) *and*
        liveness flips of adjacent owners, so any value derived from
        :meth:`neighbor_set` plus member liveness can be cached against it.
        """
        return self._nbr_stamp.get(node_id, 0)

    def neighbor_set(self, node_id: int) -> frozenset:
        """:meth:`neighbors` as a frozenset, cached per neighborhood stamp.

        The believed-table layer resolves record relevance against this set
        (membership test) instead of pairwise zone abutment scans.
        """
        stamp = self._nbr_stamp.get(node_id, 0)
        cached = self._nbr_sets.get(node_id)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        nset = frozenset(self.neighbors(node_id))
        self._nbr_sets[node_id] = (stamp, nset)
        return nset

    def _touch_nodes(self, node_ids: Iterable[int]) -> None:
        """Advance the neighborhood stamp of every listed node."""
        self._nbr_tick += 1
        tick = self._nbr_tick
        stamp = self._nbr_stamp
        for nid in node_ids:
            stamp[nid] = tick

    def neighbors_along(self, node_id: int, dim: int, direction: int) -> Set[int]:
        """Neighbors reached by crossing a face along ``dim`` toward ``direction``."""
        if direction not in (-1, +1):
            raise ValueError("direction must be +1 or -1")
        return self._directional(node_id).get((dim, direction), set())

    def _directional(self, node_id: int) -> Dict[Tuple[int, int], Set[int]]:
        """Per-node (dim, direction) -> neighbor owners, cached per topology.

        Matchmaking probes every dimension at every push hop and the
        aggregation engine rebuilds its CSR from the same queries; computing
        the shared-face axis once per adjacent leaf pair (instead of once
        per query) is what keeps full-scale runs fast.
        """
        self._member(node_id)
        if self._dir_cache_version != self.topology_version:
            self._dir_cache_version = self.topology_version
            self._dir_cache = {}
        cached = self._dir_cache.get(node_id)
        if cached is not None:
            return cached
        assert self.tree is not None
        out: Dict[Tuple[int, int], Set[int]] = {}
        for lid in self._owner_leaves.get(node_id, ()):
            mine = self.tree.leaves[lid].zone
            for adj_lid in self._adj[lid]:
                other = self.tree.leaves[adj_lid]
                if other.owner == node_id:
                    continue
                key = mine.touch(other.zone)
                out.setdefault(key, set()).add(other.owner)
        self._dir_cache[node_id] = out
        return out

    def locate_leaf(self, point: Sequence[float]) -> Leaf:
        if self.tree is None:
            raise OverlayError("overlay is empty")
        return self.tree.locate(tuple(point))

    def locate_owner(self, point: Sequence[float]) -> int:
        return self.locate_leaf(point).owner

    def is_alive(self, node_id: int) -> bool:
        member = self.members.get(node_id)
        return member is not None and member.alive

    def dead_ids(self) -> Set[int]:
        """Members still holding zones but no longer alive."""
        return {m.node_id for m in self.members.values() if not m.alive}

    def takeover_targets(
        self, node_id: int, dead: Optional[Set[int]] = None
    ) -> Set[int]:
        """Who would claim this node's zones if it vanished right now.

        This is what each node can compute locally from its split history;
        compact heartbeats send full state only to these nodes.  Callers
        sweeping many nodes pass :meth:`dead_ids` once via ``dead`` instead
        of paying the member scan per call.
        """
        assert self.tree is not None
        dead_now = self.dead_ids() if dead is None else dead
        excluded = dead_now | {node_id}
        targets: Set[int] = set()
        for leaf in self.leaves_of(node_id):
            claimant = self.tree.takeover_leaf(leaf, excluded)
            if claimant is not None:
                targets.add(claimant.owner)
        return targets

    # ------------------------------------------------------------------ mutation --
    def add_node(self, node_id: int, coord: Sequence[float]) -> JoinResult:
        """Bootstrap (first member) or join by splitting the containing leaf."""
        coord = tuple(float(c) for c in coord)
        if len(coord) != self.space.dims:
            raise OverlayError(
                f"coordinate has {len(coord)} dims, space has {self.space.dims}"
            )
        if node_id in self.members:
            raise OverlayError(f"node {node_id} already present")
        if self.tree is None:
            self.tree = SplitTree(self.space.full_zone(), node_id)
            root_leaf = next(self.tree.iter_leaves())
            self.members[node_id] = Member(node_id, coord)
            self._owner_leaves[node_id] = {root_leaf.leaf_id}
            self._adj[root_leaf.leaf_id] = set()
            self.topology_version += 1
            self._touch_nodes((node_id,))
            return JoinResult(node_id, None, root_leaf.leaf_id, None, None)

        target = self.tree.locate(coord)
        owner_id = target.owner
        owner = self._member(owner_id)
        if not owner.alive:
            raise OverlayError(
                f"join target leaf owned by dead node {owner_id}; "
                "retry after the zone is claimed"
            )
        owner_coord = owner.coord if target.zone.contains(owner.coord) else None
        dim, at, new_high = self._choose_split(target.zone, coord, owner_coord)
        low_owner, high_owner = (
            (owner_id, node_id) if new_high else (node_id, owner_id)
        )
        low, high = self.tree.split_leaf(target, dim, at, low_owner, high_owner)
        self._split_adjacency(target.leaf_id, owner_id, low, high)
        self._owner_leaves[owner_id].discard(target.leaf_id)
        owner_leaf = low if new_high else high
        self._owner_leaves[owner_id].add(owner_leaf.leaf_id)
        self.members[node_id] = Member(node_id, coord)
        new_leaf = high if new_high else low
        self._owner_leaves[node_id] = {new_leaf.leaf_id}
        self.topology_version += 1
        return JoinResult(node_id, owner_id, new_leaf.leaf_id, dim, at)

    def graceful_leave(self, node_id: int) -> List[Transfer]:
        """Voluntary departure: zones hand off to the take-over nodes at once."""
        member = self._member(node_id)
        if not member.alive:
            raise OverlayError(f"node {node_id} already failed")
        transfers = self._transfer_all(node_id)
        del self.members[node_id]
        self._forget_member(node_id)
        return transfers

    def fail(self, node_id: int) -> None:
        """Silent crash: zones stay registered to the ghost until claimed."""
        member = self._member(node_id)
        if not member.alive:
            raise OverlayError(f"node {node_id} already failed")
        member.alive = False
        self.topology_version += 1
        # liveness is part of what neighbors cache about their neighborhood
        self._touch_nodes({node_id} | self.neighbors(node_id))

    def claim_zones(self, dead_id: int) -> List[Transfer]:
        """Execute the predetermined take-over for a detected failure."""
        member = self._member(dead_id)
        if member.alive:
            raise OverlayError(f"node {dead_id} has not failed")
        transfers = self._transfer_all(dead_id)
        del self.members[dead_id]
        self._forget_member(dead_id)
        return transfers

    def _forget_member(self, node_id: int) -> None:
        """Drop per-node cache state of a departed member (ids never recur)."""
        self._nbr_stamp.pop(node_id, None)
        self._nbr_sets.pop(node_id, None)
        self._nbr_counts.pop(node_id, None)

    def _pair_inc(self, a: int, b: int) -> None:
        """One more adjacent leaf pair owned by (a, b)."""
        if a == b:
            return
        counts = self._nbr_counts
        row = counts.setdefault(a, {})
        row[b] = row.get(b, 0) + 1
        row = counts.setdefault(b, {})
        row[a] = row.get(a, 0) + 1

    def _pair_dec(self, a: int, b: int) -> None:
        """One fewer adjacent leaf pair owned by (a, b)."""
        if a == b:
            return
        counts = self._nbr_counts
        for x, y in ((a, b), (b, a)):
            row = counts[x]
            remaining = row[y] - 1
            if remaining:
                row[y] = remaining
            else:
                del row[y]

    # ------------------------------------------------------------------ internals --
    def _transfer_all(self, node_id: int) -> List[Transfer]:
        assert self.tree is not None
        dead_now = {m.node_id for m in self.members.values() if not m.alive}
        excluded = dead_now | {node_id}
        transfers: List[Transfer] = []
        for lid in list(self._owner_leaves.get(node_id, ())):
            leaf = self.tree.leaves.get(lid)
            if leaf is None or leaf.owner != node_id:
                continue  # already merged away by an earlier transfer
            claimant = self.tree.takeover_leaf(leaf, excluded)
            if claimant is None:
                # Last member standing: the zone simply disappears with it.
                self._drop_leaf(lid)
                continue
            new_owner = claimant.owner
            transfers.append(Transfer(lid, leaf.zone, node_id, new_owner))
            adj_owners = [self.tree.leaves[a].owner for a in self._adj[lid]]
            for adj_owner in adj_owners:
                if adj_owner != node_id:
                    self._pair_dec(node_id, adj_owner)
            self.tree.transfer(leaf, new_owner)
            for adj_owner in adj_owners:
                if adj_owner != new_owner:
                    self._pair_inc(new_owner, adj_owner)
            self._owner_leaves[node_id].discard(lid)
            self._owner_leaves.setdefault(new_owner, set()).add(lid)
            self._touch_nodes(
                {self.tree.leaves[a].owner for a in self._adj[lid]}
                | {node_id, new_owner}
            )
            self._cascade_merges(leaf)
        self._owner_leaves.pop(node_id, None)
        self.topology_version += 1
        return transfers

    def _cascade_merges(self, leaf: Leaf) -> None:
        """Fuse sibling leaves with one owner, repeatedly."""
        assert self.tree is not None
        current = leaf
        while True:
            merged = self.tree.try_merge(current)
            if merged is None:
                return
            removed_a, removed_b, new_leaf = merged
            self._merge_adjacency(removed_a, removed_b, new_leaf)
            owner_set = self._owner_leaves[new_leaf.owner]
            owner_set.discard(removed_a.leaf_id)
            owner_set.discard(removed_b.leaf_id)
            owner_set.add(new_leaf.leaf_id)
            current = new_leaf

    def _drop_leaf(self, leaf_id: int) -> None:
        assert self.tree is not None
        adj = self._adj.pop(leaf_id, set())
        self._touch_nodes({self.tree.leaves[a].owner for a in adj})
        owner = self.tree.leaves[leaf_id].owner
        for a in adj:
            self._adj[a].discard(leaf_id)
            self._pair_dec(owner, self.tree.leaves[a].owner)
        self.tree.leaves.pop(leaf_id, None)

    def _split_adjacency(
        self, old_id: int, old_owner: int, low: Leaf, high: Leaf
    ) -> None:
        """Re-home the split leaf's adjacency onto its two halves.

        Every old neighbor abuts the split leaf, so only the split axis
        needs re-classifying (:func:`split_abutment`).
        """
        assert self.tree is not None
        old_adj = self._adj.pop(old_id)
        low_adj: Set[int] = set()
        high_adj: Set[int] = set()
        split = low.parent
        assert split is not None
        dim, old_zone, cut = split.dim, split.zone, low.zone.hi[split.dim]
        for other_id in old_adj:
            self._adj[other_id].discard(old_id)
            other = self.tree.leaves[other_id]
            self._pair_dec(old_owner, other.owner)
            low_abuts, high_abuts = split_abutment(
                old_zone, dim, cut, other.zone
            )
            if low_abuts:
                low_adj.add(other_id)
                self._adj[other_id].add(low.leaf_id)
                self._pair_inc(low.owner, other.owner)
            if high_abuts:
                high_adj.add(other_id)
                self._adj[other_id].add(high.leaf_id)
                self._pair_inc(high.owner, other.owner)
        low_adj.add(high.leaf_id)
        high_adj.add(low.leaf_id)
        self._pair_inc(low.owner, high.owner)
        self._adj[low.leaf_id] = low_adj
        self._adj[high.leaf_id] = high_adj
        leaves = self.tree.leaves
        self._touch_nodes(
            {leaves[oid].owner for oid in old_adj} | {low.owner, high.owner}
        )

    def _merge_adjacency(self, a: Leaf, b: Leaf, merged: Leaf) -> None:
        assert self.tree is not None
        leaves = self.tree.leaves
        adj_a = self._adj.pop(a.leaf_id)
        adj_b = self._adj.pop(b.leaf_id)
        for other_id in adj_a:
            if other_id != b.leaf_id:
                self._pair_dec(a.owner, leaves[other_id].owner)
        for other_id in adj_b:
            if other_id != a.leaf_id:
                self._pair_dec(b.owner, leaves[other_id].owner)
        adj = (adj_a | adj_b) - {a.leaf_id, b.leaf_id}
        for other_id in adj:
            self._adj[other_id].discard(a.leaf_id)
            self._adj[other_id].discard(b.leaf_id)
            self._adj[other_id].add(merged.leaf_id)
            self._pair_inc(merged.owner, leaves[other_id].owner)
        self._adj[merged.leaf_id] = adj
        self._touch_nodes(
            {leaves[oid].owner for oid in adj} | {merged.owner}
        )

    @staticmethod
    def _choose_split(
        zone: Zone,
        new_coord: Tuple[float, ...],
        owner_coord: Optional[Tuple[float, ...]],
    ) -> Tuple[int, float, bool]:
        """Pick (dim, position, newcomer-takes-high-half) for a join split.

        When the zone contains the current owner's coordinate (the usual
        case) the split must separate the two coordinates; the virtual
        dimension guarantees some separating dimension exists.  When the
        zone is a secondary zone (owner's coordinate elsewhere) any split
        works; we halve the longest axis.
        """
        if owner_coord is not None:
            separable = [
                d
                for d in range(zone.dims)
                if owner_coord[d] != new_coord[d]
            ]
            if not separable:
                raise OverlayError(
                    "cannot split: joining node's coordinate equals the "
                    "owner's in every dimension (resample the virtual "
                    "coordinate)"
                )
            dim = max(separable, key=zone.extent)
            lo_c = min(owner_coord[dim], new_coord[dim])
            hi_c = max(owner_coord[dim], new_coord[dim])
            mid = (zone.lo[dim] + zone.hi[dim]) / 2.0
            at = mid if lo_c < mid <= hi_c else (lo_c + hi_c) / 2.0
            new_high = new_coord[dim] >= at
            return dim, at, new_high

        dim = max(range(zone.dims), key=zone.extent)
        at = (zone.lo[dim] + zone.hi[dim]) / 2.0
        if new_coord[dim] == at:
            at = (zone.lo[dim] + at) / 2.0
        return dim, at, new_coord[dim] >= at

    def _member(self, node_id: int) -> Member:
        member = self.members.get(node_id)
        if member is None:
            raise OverlayError(f"unknown node {node_id}")
        return member

    # ------------------------------------------------------------------ invariants --
    def check_invariants(self) -> None:
        """Partitioning + adjacency symmetry + ownership consistency.

        Used by tests and property-based checks; O(leaves * avg-degree).
        """
        if self.tree is None:
            return
        self.tree.check_partition()
        for lid, adj in self._adj.items():
            leaf = self.tree.leaves[lid]
            for other_id in adj:
                other = self.tree.leaves[other_id]
                if not leaf.zone.abuts(other.zone):
                    raise AssertionError(
                        f"adjacency lists non-abutting leaves {lid},{other_id}"
                    )
                if lid not in self._adj[other_id]:
                    raise AssertionError(f"asymmetric adjacency {lid}->{other_id}")
        for node_id, lids in self._owner_leaves.items():
            for lid in lids:
                if self.tree.leaves[lid].owner != node_id:
                    raise AssertionError(
                        f"owner map desync: leaf {lid} not owned by {node_id}"
                    )
        owned = {lid for lids in self._owner_leaves.values() for lid in lids}
        if owned != set(self.tree.leaves):
            raise AssertionError("owner map does not cover all leaves")
        expect: Dict[int, Dict[int, int]] = {}
        for lid, adj in self._adj.items():
            owner = self.tree.leaves[lid].owner
            for other_id in adj:
                other_owner = self.tree.leaves[other_id].owner
                if other_owner != owner:
                    row = expect.setdefault(owner, {})
                    row[other_owner] = row.get(other_owner, 0) + 1
        counts = {k: v for k, v in self._nbr_counts.items() if v}
        if counts != expect:
            raise AssertionError("neighbor-pair counters desynced from adjacency")

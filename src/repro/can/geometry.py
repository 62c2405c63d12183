"""Hyper-rectangular zone geometry for the CAN.

A zone is an axis-aligned box ``[lo, hi)`` in d-dimensional space.  Zones
owned by live nodes partition the whole space: they never overlap and their
union covers everything.  Two zones are *neighbors* when they share a
(d-1)-dimensional face — they touch along exactly one axis and overlap with
positive measure along every other axis (corner contact does not count,
matching the original CAN definition).

Unlike the original CAN, this space is **not** a torus: coordinates encode
resource magnitudes, so "wrapping around" from the largest machines to the
smallest would be meaningless.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = ["Zone", "axis_contact", "split_abutment"]

_EPS = 1e-12


class Zone:
    """Immutable axis-aligned box ``[lo, hi)``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(float(x) for x in lo)
        hi = tuple(float(x) for x in hi)
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have the same dimensionality")
        if not lo:
            raise ValueError("zone must have at least one dimension")
        for d, (a, b) in enumerate(zip(lo, hi)):
            if not a < b:
                raise ValueError(f"empty extent along dim {d}: [{a}, {b})")
        self.lo = lo
        self.hi = hi

    # -- basic properties ---------------------------------------------------------
    @property
    def dims(self) -> int:
        return len(self.lo)

    def extent(self, dim: int) -> float:
        return self.hi[dim] - self.lo[dim]

    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def center(self) -> Tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    # -- point / zone relations -----------------------------------------------------
    def contains(self, point: Sequence[float]) -> bool:
        """Half-open containment: ``lo <= p < hi`` along every axis."""
        if len(point) != self.dims:
            raise ValueError("point dimensionality mismatch")
        return all(a <= p < b for p, a, b in zip(point, self.lo, self.hi))

    def contains_closed(self, point: Sequence[float]) -> bool:
        """Closed containment, for points on the outer boundary of the space."""
        if len(point) != self.dims:
            raise ValueError("point dimensionality mismatch")
        return all(a <= p <= b for p, a, b in zip(point, self.lo, self.hi))

    def overlaps(self, other: "Zone") -> bool:
        """Positive-measure intersection along every axis."""
        self._check(other)
        return all(
            min(h1, h2) - max(l1, l2) > _EPS
            for l1, h1, l2, h2 in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def abuts(self, other: "Zone") -> bool:
        """Do the zones share a (d-1)-dimensional face?

        Exactly one axis where they touch end-to-start; positive overlap on
        all the others.
        """
        self._check(other)
        touching = 0
        for l1, h1, l2, h2 in zip(self.lo, self.hi, other.lo, other.hi):
            gap_lo = abs(h1 - l2)
            gap_hi = abs(h2 - l1)
            if gap_lo <= _EPS or gap_hi <= _EPS:
                touching += 1
                if touching > 1:
                    return False
            elif min(h1, h2) - max(l1, l2) > _EPS:
                continue  # positive overlap on this axis
            else:
                return False  # separated along this axis
        return touching == 1

    def touch_dimension(self, other: "Zone") -> int:
        """Axis along which two abutting zones touch.

        Verifies abutment and finds the touch axis in one pass over the
        axes (the same classification :meth:`abuts` performs, without a
        second rescan).  Raises ``ValueError`` when the zones do not abut.
        """
        self._check(other)
        touch_dim = -1
        for d, (l1, h1, l2, h2) in enumerate(
            zip(self.lo, self.hi, other.lo, other.hi)
        ):
            if abs(h1 - l2) <= _EPS or abs(h2 - l1) <= _EPS:
                if touch_dim >= 0:
                    raise ValueError("zones do not abut")
                touch_dim = d
            elif min(h1, h2) - max(l1, l2) > _EPS:
                continue  # positive overlap on this axis
            else:
                raise ValueError("zones do not abut")
        if touch_dim < 0:
            raise ValueError("zones do not abut")
        return touch_dim

    def touch(self, other: "Zone") -> Tuple[int, int]:
        """(dimension, direction) of the shared face of two ABUTTING zones.

        Fast path used by adjacency caches: assumes the zones abut (as
        guaranteed by the overlay's adjacency graph) and therefore skips
        the full abutment re-verification of :meth:`touch_dimension`.
        Direction is +1 when ``other`` lies on this zone's high side.
        """
        for d, (l1, h1, l2, h2) in enumerate(
            zip(self.lo, self.hi, other.lo, other.hi)
        ):
            if abs(h1 - l2) <= _EPS:
                return d, +1
            if abs(h2 - l1) <= _EPS:
                return d, -1
        raise ValueError("zones do not touch along any axis")

    def direction_of(self, other: "Zone", dim: int) -> int:
        """+1 when ``other`` lies on the high side of this zone along ``dim``.

        Only meaningful for abutting zones along their touch dimension.
        """
        if abs(self.hi[dim] - other.lo[dim]) <= _EPS:
            return +1
        if abs(other.hi[dim] - self.lo[dim]) <= _EPS:
            return -1
        raise ValueError(f"zones do not touch along dim {dim}")

    # -- surgery ---------------------------------------------------------------------
    def split(self, dim: int, at: float) -> Tuple["Zone", "Zone"]:
        """Cut into (low, high) halves along ``dim`` at position ``at``."""
        if not 0 <= dim < self.dims:
            raise ValueError(f"dim {dim} out of range")
        if not self.lo[dim] < at < self.hi[dim]:
            raise ValueError(
                f"split position {at} outside ({self.lo[dim]}, {self.hi[dim]})"
            )
        lo_hi = list(self.hi)
        lo_hi[dim] = at
        hi_lo = list(self.lo)
        hi_lo[dim] = at
        return Zone(self.lo, lo_hi), Zone(hi_lo, self.hi)

    def merge(self, other: "Zone") -> "Zone":
        """Union of two zones forming a box (they must share a full face)."""
        self._check(other)
        diff_dim = None
        for d in range(self.dims):
            same = (
                abs(self.lo[d] - other.lo[d]) <= _EPS
                and abs(self.hi[d] - other.hi[d]) <= _EPS
            )
            if not same:
                if diff_dim is not None:
                    raise ValueError("zones differ along more than one axis")
                diff_dim = d
        if diff_dim is None:
            raise ValueError("zones are identical")
        d = diff_dim
        if abs(self.hi[d] - other.lo[d]) <= _EPS:
            lo, hi = list(self.lo), list(other.hi)
        elif abs(other.hi[d] - self.lo[d]) <= _EPS:
            lo, hi = list(other.lo), list(self.hi)
        else:
            raise ValueError("zones are not adjacent along the differing axis")
        return Zone(lo, hi)

    # -- plumbing --------------------------------------------------------------------
    def _check(self, other: "Zone") -> None:
        if self.dims != other.dims:
            raise ValueError("zone dimensionality mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Zone):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(
            f"[{a:.3g},{b:.3g})" for a, b in zip(self.lo, self.hi)
        )
        return f"Zone({spans})"


def axis_contact(l1: float, h1: float, l2: float, h2: float) -> int:
    """One axis of two boxes, classified as :meth:`Zone.abuts` does.

    1 when they touch end-to-start, 0 when they overlap with positive
    measure, -1 when they are separated.  ``Zone.abuts`` inlines the same
    test for speed; :func:`split_abutment` is exact only while they agree.
    """
    if abs(h1 - l2) <= _EPS or abs(h2 - l1) <= _EPS:
        return 1
    if min(h1, h2) - max(l1, l2) > _EPS:
        return 0
    return -1


def split_abutment(
    zone: Zone, dim: int, cut: float, other: Zone
) -> Tuple[bool, bool]:
    """(low half abuts ``other``, high half abuts ``other``) for a split.

    ``zone`` is cut along ``dim`` at ``cut`` and must abut ``other``.  The
    halves keep every other axis of ``zone``, so those axes stay free of
    separation and hold ``1 - c`` touching axes, where ``c`` is
    ``axis_contact`` of ``zone`` on ``dim``.  A half therefore abuts
    ``other`` exactly when its own contact on ``dim`` equals ``c``: the
    verdict of :meth:`Zone.abuts` on the same floats, in O(1) instead of
    O(d).
    """
    lo, hi = zone.lo[dim], zone.hi[dim]
    olo, ohi = other.lo[dim], other.hi[dim]
    c = axis_contact(lo, hi, olo, ohi)
    return (
        axis_contact(lo, cut, olo, ohi) == c,
        axis_contact(cut, hi, olo, ohi) == c,
    )


def any_abuts(zones_a: Iterable[Zone], zones_b: Iterable[Zone]) -> bool:
    """True when some zone of A shares a face with some zone of B."""
    zones_b = list(zones_b)
    return any(za.abuts(zb) for za in zones_a for zb in zones_b)

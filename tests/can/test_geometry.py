"""Unit + property tests for zone geometry."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.can.geometry import Zone, axis_contact, split_abutment


def unit_zone(d=2):
    return Zone([0.0] * d, [1.0] * d)


class TestZoneBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Zone([0, 0], [1])
        with pytest.raises(ValueError):
            Zone([], [])
        with pytest.raises(ValueError):
            Zone([0, 1], [1, 1])  # empty extent

    def test_contains_half_open(self):
        z = unit_zone()
        assert z.contains((0.0, 0.0))
        assert z.contains((0.5, 0.999))
        assert not z.contains((1.0, 0.5))
        assert z.contains_closed((1.0, 1.0))

    def test_volume_and_extent(self):
        z = Zone([0, 0], [2, 3])
        assert z.volume() == 6.0
        assert z.extent(0) == 2.0
        assert z.extent(1) == 3.0
        assert z.center() == (1.0, 1.5)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            unit_zone(2).contains((0.5,))
        with pytest.raises(ValueError):
            unit_zone(2).abuts(unit_zone(3))


class TestAbutment:
    def test_face_sharing(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([1, 0], [2, 1])
        assert a.abuts(b)
        assert b.abuts(a)
        assert a.touch_dimension(b) == 0
        assert a.direction_of(b, 0) == +1
        assert b.direction_of(a, 0) == -1

    def test_partial_face_overlap_counts(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([1, 0.5], [2, 2])
        assert a.abuts(b)

    def test_corner_contact_does_not_count(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([1, 1], [2, 2])
        assert not a.abuts(b)

    def test_separated_zones(self):
        a = Zone([0, 0], [1, 1])
        b = Zone([2, 0], [3, 1])
        assert not a.abuts(b)

    def test_overlapping_zones_do_not_abut(self):
        a = Zone([0, 0], [2, 2])
        b = Zone([1, 0], [3, 2])
        assert not a.abuts(b)
        assert a.overlaps(b)

    def test_touch_dimension_requires_abutment(self):
        a = Zone([0, 0], [1, 1])
        with pytest.raises(ValueError):
            a.touch_dimension(Zone([5, 5], [6, 6]))


class TestSplitMerge:
    def test_split_tiles_zone(self):
        z = Zone([0, 0], [2, 2])
        lo, hi = z.split(0, 0.5)
        assert lo == Zone([0, 0], [0.5, 2])
        assert hi == Zone([0.5, 0], [2, 2])
        assert lo.volume() + hi.volume() == pytest.approx(z.volume())
        assert lo.abuts(hi)

    def test_split_position_validation(self):
        z = unit_zone()
        with pytest.raises(ValueError):
            z.split(0, 0.0)
        with pytest.raises(ValueError):
            z.split(0, 1.0)
        with pytest.raises(ValueError):
            z.split(5, 0.5)

    def test_merge_restores_split(self):
        z = Zone([0, 1], [4, 3])
        lo, hi = z.split(1, 2.0)
        assert lo.merge(hi) == z
        assert hi.merge(lo) == z

    def test_merge_rejects_non_adjacent(self):
        a = Zone([0, 0], [1, 1])
        with pytest.raises(ValueError):
            a.merge(Zone([2, 0], [3, 1]))
        with pytest.raises(ValueError):
            a.merge(Zone([1, 1], [2, 2]))  # differs along two axes
        with pytest.raises(ValueError):
            a.merge(Zone([0, 0], [1, 1]))  # identical

    def test_hash_eq(self):
        assert unit_zone() == unit_zone()
        assert hash(unit_zone()) == hash(unit_zone())
        assert unit_zone() != Zone([0, 0], [1, 2])


# -- property-based -----------------------------------------------------------------

coords = st.floats(0.001, 0.999)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(0, 3),
    at=coords,
    point=st.tuples(coords, coords, coords, coords),
)
def test_split_preserves_containment(dim, at, point):
    """Any point of the parent lands in exactly one half."""
    z = Zone([0.0] * 4, [1.0] * 4)
    lo, hi = z.split(dim, at)
    assert lo.contains(point) != hi.contains(point)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(0, 2),
    at=coords,
)
def test_split_merge_roundtrip(dim, at):
    z = Zone([0.0] * 3, [1.0] * 3)
    lo, hi = z.split(dim, at)
    assert lo.merge(hi) == z
    assert lo.abuts(hi)
    assert lo.touch_dimension(hi) == dim


@settings(max_examples=100, deadline=None)
@given(
    a_lo=st.tuples(coords, coords),
    b_lo=st.tuples(coords, coords),
    ext=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
)
def test_abuts_is_symmetric(a_lo, b_lo, ext):
    a = Zone(a_lo, [x + e for x, e in zip(a_lo, ext)])
    b = Zone(b_lo, [x + e for x, e in zip(b_lo, ext)])
    assert a.abuts(b) == b.abuts(a)


class TestSplitAbutment:
    """``split_abutment`` re-classifies only the split axis; its verdicts
    must be those of a full :meth:`Zone.abuts` scan of each half."""

    def _check(self, zone, dim, cut, other):
        low, high = zone.split(dim, cut)
        verdict = split_abutment(zone, dim, cut, other)
        assert verdict == (low.abuts(other), high.abuts(other))
        return verdict

    def test_face_on_split_plane_is_corner_contact(self):
        zone = Zone([0.0, 0.0], [1.0, 1.0])
        other = Zone([1.0, 0.5], [2.0, 1.5])  # touches along x
        assert self._check(zone, 1, 0.5, other) == (False, True)

    def test_sliver_within_eps_of_split_is_contact(self):
        zone = Zone([0.0, 0.0], [1.0, 1.0])
        other = Zone([1.0, 0.5 + 1e-13], [2.0, 1.5])
        assert self._check(zone, 1, 0.5, other) == (False, True)
        other = Zone([1.0, -0.5], [2.0, 0.5 - 1e-13])
        assert self._check(zone, 1, 0.5, other) == (True, False)

    def test_touch_axis_split_keeps_the_touching_half(self):
        zone = Zone([0.0, 0.0], [1.0, 1.0])
        other = Zone([1.0, 0.0], [2.0, 1.0])
        assert self._check(zone, 0, 0.5, other) == (False, True)
        other = Zone([1.0 + 1e-13, 0.0], [2.0, 1.0])  # a sliver apart
        assert self._check(zone, 0, 0.5, other) == (False, True)

    def test_axis_contact(self):
        assert axis_contact(0.0, 1.0, 1.0, 2.0) == 1
        assert axis_contact(0.0, 1.0, 1.0 + 1e-13, 2.0) == 1
        assert axis_contact(0.0, 1.0, 0.5, 2.0) == 0
        assert axis_contact(0.0, 1.0, 1.5, 2.0) == -1


_SLIVER = 1e-13


@st.composite
def _split_cases(draw):
    """(zone, split dim, cut, a neighbor abutting the zone).

    Neighbor endpoints along the split axis are biased onto the cut, a
    sliver either side of it, and the zone's own bounds, and the face may
    sit a sliver off the zone's: where the classification is most
    delicate.
    """
    dims = draw(st.integers(1, 4))
    lo = [draw(st.floats(0.1, 0.4)) for _ in range(dims)]
    hi = [draw(st.floats(0.6, 0.9)) for _ in range(dims)]
    zone = Zone(lo, hi)
    dim = draw(st.integers(0, dims - 1))
    cut = draw(st.floats(lo[dim] + 0.01, hi[dim] - 0.01))
    touch = draw(st.integers(0, dims - 1))
    width = draw(st.floats(0.01, 0.1))
    gap = draw(st.sampled_from([0.0, _SLIVER, -_SLIVER]))
    o_lo, o_hi = [], []
    for d in range(dims):
        if d == touch:
            if draw(st.booleans()):
                a, b = hi[d] + gap, hi[d] + width
            else:
                a, b = lo[d] - width, lo[d] + gap
        else:
            special = [lo[d], hi[d]]
            if d == dim:
                special += [cut, cut - _SLIVER, cut + _SLIVER]
            endpoint = st.sampled_from(special) | st.floats(0.0, 1.0)
            a, b = sorted((draw(endpoint), draw(endpoint)))
            assume(b > a)
        o_lo.append(a)
        o_hi.append(b)
    other = Zone(o_lo, o_hi)
    assume(zone.abuts(other))
    return zone, dim, cut, other


@settings(max_examples=400, deadline=None)
@given(case=_split_cases())
def test_split_abutment_matches_abuts(case):
    zone, dim, cut, other = case
    low, high = zone.split(dim, cut)
    assert split_abutment(zone, dim, cut, other) == (
        low.abuts(other),
        high.abuts(other),
    )

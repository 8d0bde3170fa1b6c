"""Unit tests for announcements and communities."""

from dataclasses import replace

import pytest

from repro.bgp import Announcement, Community, DEFAULT_LOCAL_PREF
from repro.topology import Prefix

PFX = Prefix("10.0.0.0/24")


class TestCommunity:
    def test_parse(self):
        community = Community.parse("100:2")
        assert community == Community(100, 2)
        assert str(community) == "100:2"

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            Community.parse("100")
        with pytest.raises(ValueError):
            Community.parse("a:b")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Community(-1, 2)

    def test_ordering(self):
        assert Community(100, 1) < Community(100, 2) < Community(200, 0)


class TestAnnouncement:
    def test_originate(self):
        ann = Announcement.originate(PFX, "A")
        assert ann.origin == "A"
        assert ann.holder == "A"
        assert ann.next_hop == "A"
        assert ann.local_pref == DEFAULT_LOCAL_PREF
        assert ann.path_length == 1

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Announcement(prefix=PFX, path=(), next_hop="A")

    def test_looping_path_rejected(self):
        with pytest.raises(ValueError):
            Announcement(prefix=PFX, path=("A", "B", "A"), next_hop="B")

    def test_negative_local_pref_rejected(self):
        with pytest.raises(ValueError):
            Announcement(prefix=PFX, path=("A",), next_hop="A", local_pref=-1)

    def test_extended_to(self):
        ann = Announcement.originate(PFX, "A").with_local_pref(300)
        extended = ann.extended_to("B")
        assert extended is not None
        assert extended.path == ("A", "B")
        # The next hop is managed by the simulator (next-hop-self
        # before export policy), not by the hop extension itself.
        assert extended.next_hop == "A"
        # Local pref is not carried across sessions.
        assert extended.local_pref == DEFAULT_LOCAL_PREF

    def test_extended_to_loop_returns_none(self):
        ann = Announcement.originate(PFX, "A").extended_to("B")
        assert ann is not None
        assert ann.extended_to("A") is None

    def test_attribute_setters_are_pure(self):
        ann = Announcement.originate(PFX, "A")
        modified = ann.with_local_pref(200).with_med(5).with_next_hop("X")
        assert ann.local_pref == DEFAULT_LOCAL_PREF
        assert modified.local_pref == 200
        assert modified.med == 5
        assert modified.next_hop == "X"

    def test_communities(self):
        ann = Announcement.originate(PFX, "A")
        tagged = ann.with_community(Community(100, 2)).with_community(Community(100, 3))
        assert Community(100, 2) in tagged.communities
        assert len(tagged.communities) == 2
        assert tagged.without_communities().communities == frozenset()
        assert ann.communities == frozenset()

    def test_traffic_path_is_reversed(self):
        ann = Announcement.originate(PFX, "A").extended_to("B").extended_to("C")
        assert ann.traffic_path() == ("C", "B", "A")

    def test_str(self):
        ann = Announcement.originate(PFX, "A").with_community(Community(100, 2))
        text = str(ann)
        assert "10.0.0.0/24" in text
        assert "100:2" in text


class TestBuildersMatchReplace:
    """The builders construct directly; each must return exactly what
    ``dataclasses.replace`` with the same field changes returned."""

    @staticmethod
    def _rich():
        return Announcement(
            prefix=PFX,
            path=("A", "B"),
            next_hop="B",
            local_pref=150,
            med=7,
            communities=frozenset({Community(100, 1)}),
        )

    def test_every_builder_matches_replace(self):
        ann = self._rich()
        community = Community(100, 2)
        pairs = [
            (
                ann.extended_to("C"),
                replace(ann, path=("A", "B", "C"), local_pref=DEFAULT_LOCAL_PREF),
            ),
            (
                ann.extended_to("C", reset_local_pref=False),
                replace(ann, path=("A", "B", "C")),
            ),
            (ann.with_local_pref(40), replace(ann, local_pref=40)),
            (ann.with_med(3), replace(ann, med=3)),
            (ann.with_next_hop("X"), replace(ann, next_hop="X")),
            (
                ann.with_community(community),
                replace(ann, communities=ann.communities | {community}),
            ),
            (ann.without_communities(), replace(ann, communities=frozenset())),
        ]
        for built, expected in pairs:
            assert type(built) is Announcement
            assert built == expected
            assert hash(built) == hash(expected)
            assert built.to_dict() == expected.to_dict()

    def test_builders_leave_the_original_untouched(self):
        ann = self._rich()
        before = ann.to_dict()
        ann.extended_to("C")
        ann.with_local_pref(1).with_med(2).with_next_hop("Y")
        ann.with_community(Community(1, 1)).without_communities()
        assert ann.to_dict() == before

    def test_negative_local_pref_still_rejected(self):
        with pytest.raises(ValueError):
            self._rich().with_local_pref(-1)

    def test_looping_path_still_rejected(self):
        with pytest.raises(ValueError):
            Announcement(prefix=PFX, path=("A", "B", "A"), next_hop="A")
        # A builder never produces a loop: extending onto a router
        # already on the path is refused instead.
        assert self._rich().extended_to("A") is None

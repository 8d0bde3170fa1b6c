"""Unit tests for IPv4 prefix handling."""

import ipaddress
import pickle

import pytest

from repro.topology import Prefix, PrefixError


class TestParsing:
    def test_valid(self):
        prefix = Prefix("123.0.1.0/24")
        assert prefix.length == 24
        assert prefix.network_address == "123.0.1.0"
        assert str(prefix) == "123.0.1.0/24"

    def test_copy_constructor(self):
        prefix = Prefix("10.0.0.0/8")
        assert Prefix(prefix) == prefix

    def test_invalid_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix("10.0.0.1/8")

    def test_invalid_text(self):
        with pytest.raises(PrefixError):
            Prefix("not-a-prefix")

    def test_invalid_mask(self):
        with pytest.raises(PrefixError):
            Prefix("10.0.0.0/33")


class TestRelations:
    def test_subnet(self):
        assert Prefix("10.1.0.0/16").is_subnet_of(Prefix("10.0.0.0/8"))
        assert not Prefix("11.0.0.0/16").is_subnet_of(Prefix("10.0.0.0/8"))

    def test_supernet(self):
        assert Prefix("10.0.0.0/8").is_supernet_of(Prefix("10.1.0.0/16"))

    def test_overlap(self):
        assert Prefix("10.0.0.0/8").overlaps(Prefix("10.1.0.0/16"))
        assert not Prefix("10.0.0.0/8").overlaps(Prefix("11.0.0.0/8"))

    def test_contains_address(self):
        prefix = Prefix("123.0.1.0/24")
        assert prefix.contains_address("123.0.1.77")
        assert not prefix.contains_address("123.0.2.1")
        with pytest.raises(PrefixError):
            prefix.contains_address("garbage")


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert Prefix("10.0.0.0/8") == Prefix("10.0.0.0/8")
        assert hash(Prefix("10.0.0.0/8")) == hash(Prefix("10.0.0.0/8"))
        assert Prefix("10.0.0.0/8") != Prefix("10.0.0.0/9")

    def test_ordering(self):
        prefixes = [Prefix("11.0.0.0/8"), Prefix("10.0.0.0/8"), Prefix("10.0.0.0/16")]
        ordered = sorted(prefixes)
        assert [str(p) for p in ordered] == ["10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"]

    def test_repr(self):
        assert repr(Prefix("10.0.0.0/8")) == "Prefix('10.0.0.0/8')"

    def test_text_is_canonical_for_every_constructor(self):
        network = ipaddress.IPv4Network("10.0.0.0/8")
        for prefix in (Prefix("10.0.0.0/8"), Prefix(network), Prefix(Prefix("10.0.0.0/8"))):
            assert str(prefix) == "10.0.0.0/8"
            assert repr(prefix) == "Prefix('10.0.0.0/8')"
            assert prefix == Prefix("10.0.0.0/8")
            assert hash(prefix) == hash(network)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        """Worker pools and the fleet ship configurations by pickle."""
        prefixes = [Prefix("11.0.0.0/8"), Prefix("10.0.0.0/16"), Prefix("10.0.0.0/8")]
        copies = pickle.loads(pickle.dumps(prefixes, protocol=protocol))
        for original, copy in zip(prefixes, copies):
            assert copy == original
            assert hash(copy) == hash(original)
            assert str(copy) == str(original)
            assert repr(copy) == repr(original)
            assert copy.length == original.length
        assert sorted(copies) == sorted(prefixes)
        assert [str(p) for p in sorted(copies)] == ["10.0.0.0/8", "10.0.0.0/16", "11.0.0.0/8"]


class TestCachedHash:
    """A prefix stores its hash at construction; the value must stay
    ``hash(IPv4Network)`` so set and dict orders keyed on prefixes do
    not move."""

    TEXTS = ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "192.168.7.0/24", "203.0.113.9/32"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_hash_is_the_network_hash_for_every_constructor(self, text):
        network = ipaddress.IPv4Network(text)
        for prefix in (
            Prefix(text),
            Prefix(network),
            Prefix(Prefix(text)),
            Prefix(Prefix(network)),
        ):
            assert hash(prefix) == hash(network)
            assert hash(prefix) == hash(ipaddress.IPv4Network(str(prefix)))

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_hash_survives_pickle(self, protocol):
        prefixes = [Prefix(text) for text in self.TEXTS]
        copies = pickle.loads(pickle.dumps(prefixes, protocol=protocol))
        for text, copy in zip(self.TEXTS, copies):
            assert hash(copy) == hash(ipaddress.IPv4Network(text))
            # A copy built from the unpickled prefix keeps the value too.
            assert hash(Prefix(copy)) == hash(ipaddress.IPv4Network(text))

    def test_set_order_matches_the_networks(self):
        texts = [f"10.{a}.{b}.0/24" for a in range(8) for b in range(0, 256, 37)]
        networks = [ipaddress.IPv4Network(text) for text in texts]
        prefixes = [Prefix(text) for text in texts]
        assert [str(p) for p in set(prefixes)] == [str(n) for n in set(networks)]

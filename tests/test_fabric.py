import random

import pytest

from bamsim import (
    BcConfig,
    CapacityViolation,
    Fabric,
    FlowMatch,
    FlowRule,
    Lsp,
    LspRequest,
    LspState,
    Model,
    NetworkState,
    RuleConflict,
    Topology,
    TrafficClass,
    UnknownSwitch,
    commit,
    release,
    scenario,
)
from bamsim.controller import Classifier


def line_topology() -> Topology:
    topo = Topology()
    for h in ("HS1", "HS2", "HS3", "DST"):
        topo.add_host(h)
    for s in ("S1", "S2", "S3"):
        topo.add_switch(s)
    topo.add_link("L1", "HS1", "S1", 500000)
    topo.add_link("L2", "HS2", "S2", 500000)
    topo.add_link("L3", "HS3", "S3", 500000)
    topo.add_link("L4", "S1", "S2", 500000)
    topo.add_link("L5", "S2", "S3", 500000)
    topo.add_link("L6", "S3", "DST", 500000)
    topo.freeze()
    return topo


MATCH = FlowMatch("10.0.0.1", "10.0.0.4", 20001, 30001)


def lsp_on(owner: int, path, src: str, demand: int = 5000) -> Lsp:
    """An LSP for ``install_path``, which programs the interior switches of
    its path; a path may end at a switch."""
    return Lsp(owner, 0, demand, tuple(path), src, 0.0)


def test_match_key_encodes_protocol_and_endpoints():
    assert MATCH.key() == "tcp/10.0.0.1:20001->10.0.0.4:30001"
    udp = FlowMatch("10.0.0.1", "10.0.0.4", 1, 2, protocol="udp")
    assert udp.key().startswith("udp/")


@pytest.mark.parametrize("record,attr,value", [
    (MATCH, "dst_port", 1),
    (MATCH, "extra", 1),
    (FlowRule("S1", MATCH, 2, 5000, owner=1), "owner", 2),
    (FlowRule("S1", MATCH, 2, 5000, owner=1), "extra", 2),
], ids=["match_field", "match_new", "rule_field", "rule_new"])
def test_match_and_rule_are_immutable(record, attr, value):
    with pytest.raises(AttributeError):
        setattr(record, attr, value)


class TestInstallLookup:
    def test_install_then_lookup(self):
        fabric = Fabric(line_topology())
        assert fabric.install_path(lsp_on(1, ("L1", "L4"), "HS1"), MATCH) == 1  # S1 only
        rule = FlowRule("S1", MATCH, 2, 5000, owner=1)
        assert fabric.lookup("S1", MATCH) == rule and fabric.owner_rules(1) == [rule]
        assert fabric.lookup("S2", MATCH) is None
        assert fabric.rule_count() == 1

    def test_lookup_miss_returns_none(self):
        fabric = Fabric(line_topology())
        assert fabric.lookup("S1", MATCH) is None

    def test_unknown_switch_rejected_everywhere(self):
        fabric = Fabric(line_topology())
        with pytest.raises(UnknownSwitch):
            fabric.lookup("HS1", MATCH)  # hosts have no tables
        with pytest.raises(UnknownSwitch):
            fabric.rules_on("S9")

    def test_conflicting_match_rejected(self):
        fabric = Fabric(line_topology())
        fabric.install_path(lsp_on(1, ("L1", "L4"), "HS1"), MATCH)  # S1
        with pytest.raises(RuleConflict):
            fabric.install_path(lsp_on(2, ("L1", "L4", "L2"), "HS1"), MATCH)  # S1, S2
        # a match has one owner, on any switch
        with pytest.raises(RuleConflict):
            fabric.install_path(lsp_on(3, ("L2", "L5"), "HS2"), MATCH)  # S2
        assert fabric.rule_count() == 1
        fabric.remove_by_owner(1)
        assert fabric.install_path(lsp_on(3, ("L2", "L5"), "HS2"), MATCH) == 1


class TestInstallPath:
    def lsp(self, topo: Topology) -> Lsp:
        path = topo.shortest_path("HS1", "DST")
        return Lsp(id=7, class_index=0, demand_kbps=5000, path=path,
                   src_host="HS1", admit_time=0.0)

    def test_one_rule_per_interior_switch(self):
        topo = line_topology()
        fabric = Fabric(topo)
        assert fabric.install_path(self.lsp(topo), MATCH) == 3
        rules = fabric.owner_rules(7)
        assert [r.switch_id for r in rules] == ["S1", "S2", "S3"]
        # each hop forwards onto the next link of the path
        assert rules[0].out_port == topo.port_of("S1", "L4")
        assert rules[1].out_port == topo.port_of("S2", "L5")
        assert rules[2].out_port == topo.port_of("S3", "L6")
        assert all(r.owner == 7 and r.rate_kbps == 5000 for r in rules)
        assert fabric.rule_count() == 3

    def test_install_path_is_all_or_nothing(self):
        topo = line_topology()
        fabric = Fabric(topo)
        # Occupy the slot on the LAST switch of the path, then try the path.
        fabric.install_path(lsp_on(99, ("L3", "L6"), "HS3", 1000), MATCH)  # S3 only
        with pytest.raises(RuleConflict):
            fabric.install_path(self.lsp(topo), MATCH)
        assert fabric.lookup("S1", MATCH) is None
        assert fabric.lookup("S2", MATCH) is None
        assert fabric.rule_count() == 1

    def test_an_lsp_without_an_id_is_rejected_and_writes_nothing(self):
        topo = line_topology()
        fabric = Fabric(topo)
        with pytest.raises(ValueError, match="forward rules must carry an owner LSP"):
            fabric.install_path(self.lsp(topo)._replace(id=None), MATCH)
        assert fabric.rule_count() == 0 and fabric._records == fabric._holders == {}

    def test_remove_by_owner(self):
        topo = line_topology()
        fabric = Fabric(topo)
        fabric.install_path(self.lsp(topo), MATCH)
        assert fabric.remove_by_owner(7) == 3
        assert fabric.rule_count() == 0
        assert fabric.remove_by_owner(7) == 0  # idempotent


class TestDerivedRuleCount:
    """A teardown derives its rule count from the LSP's route: n >= 1 links
    program n - 1 rules, and the empty route none, not -1."""

    @pytest.mark.parametrize("path", [("L0",), ()], ids=["host_to_host", "empty"])
    def test_a_route_without_a_switch_installs_and_removes_no_rule(self, path):
        topo = Topology()
        for h in ("HA", "HB", "HC"):
            topo.add_host(h)
        topo.add_switch("S1")
        topo.add_link("L0", "HA", "HB", 1000)  # no switch between the hosts
        topo.add_link("L1", "HA", "S1", 1000)
        topo.add_link("L2", "S1", "HC", 1000)
        topo.freeze()
        fabric = Fabric(topo)

        def lines():
            return len(fabric.dump().splitlines())

        other = FlowMatch("10.0.0.1", "10.0.0.3", 20001, 30001)
        assert fabric.install_path(Lsp(1, 0, 500, ("L1", "L2"), "HA", 0.0), other) == 1
        for _use in range(2):  # the second use reads the route cache
            installed = fabric.install_path(Lsp(2, 0, 500, path, "HA", 0.0), MATCH)
            assert installed == 0 and fabric.rule_count() == lines() == 1
            assert fabric.remove_by_owner(2) == installed
            assert fabric.rule_count() == lines() == 1
        assert fabric.remove_by_owner(1) == 1
        assert fabric.rule_count() == lines() == 0


class TestRuleConflict:
    """A conflict is another active owner holding the same match, whatever
    either route; a refused install writes nothing."""

    @pytest.mark.parametrize("path, src", [
        (("L1", "L4", "L5", "L6"), "HS1"),  # S1, S2, S3: overlapping, forward
        (("L6", "L5", "L4", "L1"), "DST"),  # S3, S2, S1: overlapping, backward
        (("L1", "L4"), "HS1"),  # S1: disjoint
        (("L3",), "HS3"),  # no switch: ends at S3
    ], ids=["overlapping_forward", "overlapping_backward", "disjoint", "switchless"])
    def test_the_same_match_on_any_route_names_its_owner(self, path, src):
        topo = line_topology()
        fabric = Fabric(topo)
        fabric.install_path(lsp_on(1, ("L2", "L5", "L6"), "HS2"), MATCH)  # S2, S3
        other = FlowMatch("10.0.0.2", "10.0.0.4", 20002, 30002)
        fabric.install_path(lsp_on(2, ("L1", "L4", "L5", "L6"), "HS1"), other)  # S1, S2, S3
        before = snapshot(topo, fabric)
        for _attempt in range(2):
            with pytest.raises(RuleConflict) as err:
                fabric.install_path(lsp_on(3, path, src), MATCH)
            assert str(err.value) == "LSP 1 already has a rule for %s" % MATCH.key()
            assert snapshot(topo, fabric) == before
        assert fabric.remove_by_owner(1) == 2
        assert fabric.install_path(lsp_on(3, path, src), MATCH) == len(path) - 1  # retired: free again
        assert fabric._holders == {other: 2, MATCH: 3}

    def test_reinstalling_an_active_owner_raises_and_writes_nothing(self):
        topo = line_topology()
        fabric = Fabric(topo)
        fabric.install_path(lsp_on(1, ("L1", "L4"), "HS1"), MATCH)  # S1
        before = snapshot(topo, fabric)
        other = FlowMatch("10.0.0.3", "10.0.0.4", 20003, 30003)
        for path, src, match in [(("L1", "L4"), "HS1", MATCH), (("L3", "L6"), "HS3", other)]:
            with pytest.raises(RuleConflict, match="LSP 1 already holds rules"):
                fabric.install_path(lsp_on(1, path, src), match)
            assert snapshot(topo, fabric) == before
        fabric.remove_by_owner(1)
        assert fabric.install_path(lsp_on(1, ("L3", "L6"), "HS3"), other) == 1  # retired: free again
        assert fabric.owner_rules(1) == [FlowRule("S3", other, topo.port_of("S3", "L6"), 5000, 1)]


def test_drops_are_ephemeral():
    fabric = Fabric(line_topology())
    request = LspRequest(42, 3.5, "10.0.0.1", "10.0.0.4", 20001, 30001)
    fabric.record_drop(request.id)
    assert fabric.rule_count() == 0
    assert fabric.drops == [42] and fabric.drops[0] is request.id  # the id, not the request


def test_dump_is_stable_and_tab_separated():
    topo = line_topology()
    fabric = Fabric(topo)
    other = FlowMatch("10.0.0.2", "10.0.0.4", 20002, 31001)
    fabric.install_path(lsp_on(2, ("L2", "L5"), "HS2", 10000), other)  # S2, port 3
    fabric.install_path(lsp_on(1, ("L1", "L4"), "HS1"), MATCH)  # S1, port 2
    lines = fabric.dump().splitlines()
    assert lines == [
        "S1\ttcp/10.0.0.1:20001->10.0.0.4:30001\tfwd:2\t5\t1",
        "S2\ttcp/10.0.0.2:20002->10.0.0.4:31001\tfwd:3\t10\t2",
    ]


class TestOwnerIndex:
    """The owner index must answer exactly what a scan of the table would."""

    MATCHES = [FlowMatch("10.0.0.%d" % (i % 3 + 1), "10.0.0.4", 20000 + i, 30000 + i)
               for i in range(12)]

    @staticmethod
    def tables(fabric: Fabric):
        """Each switch's rules, by switch in sorted order."""
        return {sw: fabric.rules_on(sw) for sw in sorted(fabric.topology.switches)}

    @staticmethod
    def scan(tables, owner: int):
        """Rules of one owner by a full scan of the tables, in (switch,
        match key) order."""
        return [r for rules in tables.values() for r in rules if r.owner == owner]

    def test_random_installs_and_removals_agree_with_a_scan(self):
        # An owner is installed once, so each install takes a fresh id and
        # each removal any id used so far, retired ones included.  A model
        # of the active owners' matches says when an install must raise:
        # exactly when another active owner holds its match.
        rng = random.Random(4127)
        topo = line_topology()
        hosts = sorted(topo.hosts)
        routes = [(topo.shortest_path(a, b), a) for a in hosts for b in hosts if a != b]
        refused = 0
        for _trial in range(30):
            fabric = Fabric(topo)
            owners = [1]
            held = {}  # active owner -> its match
            for _step in range(60):
                if rng.random() < 0.7:
                    owner = owners[-1]
                    owners.append(owner + 1)
                    path, src = rng.choice(routes)
                    match = rng.choice(self.MATCHES)
                    holders = [other for other, taken in held.items() if taken == match]
                    try:
                        fabric.install_path(lsp_on(owner, path, src, 1000), match)
                    except RuleConflict as err:
                        assert str(err) == "LSP %d already has a rule for %s" % (holders[0], match.key())
                        refused += 1
                    else:
                        assert holders == []
                        held[owner] = match
                else:
                    owner = rng.choice(owners)
                    expected = len(self.scan(self.tables(fabric), owner))
                    assert fabric.remove_by_owner(owner) == expected
                    assert self.scan(self.tables(fabric), owner) == []
                    assert fabric.remove_by_owner(owner) == 0  # idempotent
                    held.pop(owner, None)
                tables = self.tables(fabric)
                for o in owners:
                    assert fabric.owner_rules(o) == self.scan(tables, o)
                assert fabric.rule_count() == sum(map(len, tables.values()))
                assert fabric._holders == {match: owner for owner, match in held.items()}
        assert refused > 300, refused


def ring_with_chords() -> Topology:
    """Six switches in a ring, chords S1-S4 and S2-S5, a host on each: many
    host pairs have parallel min-hop paths, so the tie-break picks routes
    that cross ports on either side of a switch."""
    topo = Topology()
    for i in range(1, 7):
        topo.add_host("H%d" % i)
        topo.add_switch("S%d" % i)
    for i in range(1, 7):
        topo.add_link("A%d" % i, "H%d" % i, "S%d" % i, 100000)
        topo.add_link("R%d" % i, "S%d" % i, "S%d" % (i % 6 + 1), 100000)
    topo.add_link("C1", "S1", "S4", 100000)
    topo.add_link("C2", "S2", "S5", 100000)
    topo.freeze()
    return topo


def walk(topo: Topology, path, src):
    """(switch, out port) per interior node, walked without the caches."""
    nodes = topo.nodes_on(path, src)
    return tuple((node, topo.port_of(node, path[i])) for i, node in enumerate(nodes[1:-1], start=1))


def routes(state: NetworkState):
    """Every route a classifier holds, plus each one walked back from its
    destination, so a route is keyed by its source as well as its path."""
    for path, src, dst in Classifier.for_state(state, [])._routes.values():
        yield path, src
        yield path[::-1], dst


def named_state(name: str) -> NetworkState:
    """The built state of a bundled scenario, or a one-class state on the
    ring; a topology backs one state only."""
    if name == "ring_with_chords":
        return NetworkState(ring_with_chords(), [TrafficClass(1000)], BcConfig(Model.MAM, values_kbps=(1000,)))
    return scenario.build(scenario.load_bundled(name))[0]


def snapshot(topo: Topology, fabric: Fabric):
    return (dict(fabric._records), dict(fabric._holders),
            fabric.rule_count(), fabric.dump(), {lid: list(link.alloc) for lid, link in topo.links.items()})


class TestRouteCaches:
    @pytest.mark.parametrize("name", scenario.bundled_names() + ["ring_with_chords"])
    def test_cached_hops_and_rules_match_an_uncached_walk(self, name):
        state = named_state(name)
        topo = state.topology
        fabric = Fabric(topo)
        checked = 0
        for n, (path, src) in enumerate(routes(state), start=1):
            expected = walk(topo, path, src)
            match = FlowMatch("10.0.0.1", "10.0.0.2", n, n)
            lsp = Lsp(n, 0, 1000, path, src, 0.0)
            for _use in range(2):  # the second use reads the cache
                assert topo.route_hops[path, src] == expected
                assert fabric.install_path(lsp, match) == len(expected)
                rules = fabric.owner_rules(n)
                assert [(r.switch_id, r.out_port) for r in rules] == sorted(expected)
                assert all(type(r) is FlowRule and r.match == match and r.rate_kbps == 1000
                           and r.owner == n for r in rules)
                assert fabric.remove_by_owner(n) == len(expected)
            assert topo.path_links[path] == tuple(topo.links[lid] for lid in path)
            checked += 1
        assert checked > 0 and fabric.rule_count() == 0

    def test_conflict_on_a_cached_route_names_the_holder_and_writes_nothing(self):
        topo = line_topology()
        fabric = Fabric(topo)
        first = TestInstallPath().lsp(topo)
        fabric.install_path(first, MATCH)
        fabric.remove_by_owner(first.id)
        fabric.install_path(lsp_on(98, ("L3", "L6"), "HS3", 1000), MATCH)  # S3
        fabric.install_path(lsp_on(99, ("L2", "L5"), "HS2", 1000), FlowMatch("10.0.0.2", "10.0.0.4", 1, 2))  # S2
        before = snapshot(topo, fabric)
        for _attempt in range(2):
            with pytest.raises(RuleConflict) as err:
                fabric.install_path(first, MATCH)
            assert str(err.value) == "LSP 98 already has a rule for tcp/10.0.0.1:20001->10.0.0.4:30001"
            assert snapshot(topo, fabric) == before

    def test_failing_routes_raise_every_time_and_are_not_cached(self):
        topo = Topology()
        for h in ("HA", "HB", "HC"):
            topo.add_host(h)
        topo.add_switch("S1")
        topo.add_link("L1", "HA", "HB", 1000)  # HB is a host on the way
        topo.add_link("L2", "HB", "S1", 1000)
        topo.add_link("L3", "S1", "HC", 1000)
        topo.freeze()
        topo.add_link("L4", "S1", "HA", 1000)  # after freeze: S1 has no port for it
        fabric = Fabric(topo)
        fabric.install_path(Lsp(1, 0, 500, ("L2", "L3"), "HB", 0.0), MATCH)
        fabric.remove_by_owner(1)  # cached from HB, which is not the route from HA
        cases = [
            (("L1", "L2", "L3"), "HA", UnknownSwitch, "HB"),
            (("L3", "L4"), "HC", ValueError, "no port for link L4 on switch S1"),
            (("L2", "L3"), "HA", ValueError, "node 'HA' is not an endpoint of link L2"),
        ]
        before = snapshot(topo, fabric)
        for path, src, error, message in cases:
            lsp = Lsp(1, 0, 500, path, src, 0.0)
            for _attempt in range(2):
                with pytest.raises(error) as err:
                    fabric.install_path(lsp, MATCH)
                assert str(err.value) == message
                assert (path, lsp.src_host) not in topo.route_hops
                assert snapshot(topo, fabric) == before

    def test_capacity_violation_on_a_cached_path_changes_nothing(self):
        topo = line_topology()
        state = NetworkState(topo, [TrafficClass(400000)], BcConfig(Model.MAM, values_kbps=(500000,)))
        path = topo.shortest_path("HS1", "DST")
        commit(state, Lsp(1, 0, 400000, path, "HS1", 0.0))
        release(state, 1, LspState.COMPLETED)  # the path is cached now
        commit(state, Lsp(2, 0, 400000, ("L5",), "S2", 0.0))
        fabric = Fabric(topo)
        before = snapshot(topo, fabric)
        for _attempt in range(2):
            with pytest.raises(CapacityViolation) as err:
                commit(state, Lsp(3, 0, 400000, path, "HS1", 0.0))
            assert str(err.value) == "link L5: 400000 + 400000 exceeds capacity 500000"
            assert snapshot(topo, fabric) == before
            assert sorted(state.active_lsps) == [2]

    def test_a_second_freeze_drops_the_cached_routes(self):
        topo = line_topology()
        path = topo.shortest_path("HS1", "DST")
        assert topo.route_hops[path, "HS1"] == (("S1", 2), ("S2", 3), ("S3", 3))
        assert topo.path_links[path]
        topo.add_link("L0", "S2", "HS2", 500000)  # sorts first on S2: its ports shift
        topo.freeze()
        assert not topo.route_hops and not topo.path_links
        assert topo.route_hops[path, "HS1"] == walk(topo, path, "HS1") == (("S1", 2), ("S2", 4), ("S3", 3))

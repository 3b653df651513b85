import random

import pytest

from bamsim import (
    Fabric,
    FlowMatch,
    FlowRule,
    Lsp,
    LspRequest,
    RuleConflict,
    Topology,
    UnknownSwitch,
)


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
    topo.freeze(3)
    return topo


MATCH = FlowMatch("10.0.0.1", "10.0.0.4", 20001, 30001)


def test_match_key_encodes_protocol_and_endpoints():
    assert MATCH.key() == "tcp/10.0.0.1:20001->10.0.0.4:30001"
    udp = FlowMatch("10.0.0.1", "10.0.0.4", 1, 2, protocol="udp")
    assert udp.key().startswith("udp/")


def test_rule_action_strings():
    fwd = FlowRule("S1", MATCH, 2, 5000, owner=1)
    drop = FlowRule("S1", MATCH, None, 0, owner=None)
    assert fwd.action == "fwd:2"
    assert drop.action == "drop"
    with pytest.raises(ValueError):
        FlowRule("S1", MATCH, 2, 5000, owner=None)  # forward needs an owner


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
        rule = FlowRule("S1", MATCH, 2, 5000, owner=1)
        fabric.install(rule)
        assert fabric.lookup("S1", MATCH) is rule
        assert fabric.rule_count() == 1

    def test_lookup_miss_returns_none(self):
        fabric = Fabric(line_topology())
        assert fabric.lookup("S1", MATCH) is None

    def test_unknown_switch_rejected_everywhere(self):
        fabric = Fabric(line_topology())
        with pytest.raises(UnknownSwitch):
            fabric.install(FlowRule("S9", MATCH, 1, 5000, owner=1))
        with pytest.raises(UnknownSwitch):
            fabric.lookup("HS1", MATCH)  # hosts have no tables
        with pytest.raises(UnknownSwitch):
            fabric.rules_on("S9")

    def test_conflicting_slot_rejected(self):
        fabric = Fabric(line_topology())
        fabric.install(FlowRule("S1", MATCH, 2, 5000, owner=1))
        with pytest.raises(RuleConflict):
            fabric.install(FlowRule("S1", MATCH, 3, 5000, owner=2))
        # same match on another switch is a different slot
        fabric.install(FlowRule("S2", MATCH, 3, 5000, owner=1))
        assert fabric.rule_count() == 2


class TestInstallPath:
    def lsp(self, topo: Topology) -> Lsp:
        path = topo.shortest_path("HS1", "DST")
        return Lsp(id=7, class_index=0, demand_kbps=5000, path=path,
                   src_host="HS1", dst_host="DST", admit_time=0.0)

    def test_one_rule_per_interior_switch(self):
        topo = line_topology()
        fabric = Fabric(topo)
        rules = fabric.install_path(self.lsp(topo), MATCH)
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
        fabric.install(FlowRule("S3", MATCH, 1, 1000, owner=99))
        with pytest.raises(RuleConflict):
            fabric.install_path(self.lsp(topo), MATCH)
        assert fabric.lookup("S1", MATCH) is None
        assert fabric.lookup("S2", MATCH) is None
        assert fabric.rule_count() == 1

    def test_remove_by_owner(self):
        topo = line_topology()
        fabric = Fabric(topo)
        fabric.install_path(self.lsp(topo), MATCH)
        assert fabric.remove_by_owner(7) == 3
        assert fabric.rule_count() == 0
        assert fabric.remove_by_owner(7) == 0  # idempotent


def test_drops_are_ephemeral():
    fabric = Fabric(line_topology())
    request = LspRequest(42, 3.5, "10.0.0.1", "10.0.0.4", 20001, 30001)
    fabric.record_drop(request)
    assert fabric.rule_count() == 0
    assert fabric.drops == [request] and fabric.drops[0] is request


def test_dump_is_stable_and_tab_separated():
    topo = line_topology()
    fabric = Fabric(topo)
    other = FlowMatch("10.0.0.2", "10.0.0.4", 20002, 31001)
    fabric.install(FlowRule("S2", other, 3, 10000, owner=2))
    fabric.install(FlowRule("S1", MATCH, 2, 5000, owner=1))
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
    def scan(fabric: Fabric, owner: int):
        """Rules of one owner by a full scan, in (switch, match key) order."""
        return [r for sw in sorted(fabric.topology.switches)
                for r in fabric.rules_on(sw) if r.owner == owner]

    def test_random_installs_and_removals_agree_with_a_scan(self):
        rng = random.Random(4127)
        topo = line_topology()
        switches = sorted(topo.switches)
        for _trial in range(30):
            fabric = Fabric(topo)
            owners = range(1, 7)
            for _step in range(60):
                owner = rng.choice(owners)
                if rng.random() < 0.7:
                    rule = FlowRule(rng.choice(switches), rng.choice(self.MATCHES),
                                    1, 1000, owner=owner)
                    try:
                        fabric.install(rule)
                    except RuleConflict:
                        pass
                else:
                    expected = len(self.scan(fabric, owner))
                    assert fabric.remove_by_owner(owner) == expected
                    assert self.scan(fabric, owner) == []
                    assert fabric.remove_by_owner(owner) == 0  # idempotent
                for o in owners:
                    assert fabric.owner_rules(o) == self.scan(fabric, o)
                total = sum(len(fabric.rules_on(sw)) for sw in switches)
                assert fabric.rule_count() == total

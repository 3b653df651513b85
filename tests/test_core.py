import random

import pytest

from bamsim import bam
from bamsim import (
    BcConfig,
    CapacityViolation,
    InvalidBc,
    Lsp,
    LspState,
    Model,
    NetworkState,
    NoRoute,
    Topology,
    TrafficClass,
    UnknownLsp,
    commit,
    kbps,
    mbps,
    release,
)
from bamsim.checks import check_state

from helpers import admit, mam_admission_caps, oracle_route, replace_lsp, single_link_state


def test_unit_conversion_round_trip():
    assert kbps(5) == 5000
    assert kbps(2.5) == 2500
    assert mbps(250000) == 250.0
    for value in (1, 5, 10, 20, 100, 250, 500):
        assert mbps(kbps(value)) == value


def test_traffic_class_rejects_bad_values():
    with pytest.raises(ValueError):
        TrafficClass(0)


class TestBcConfig:
    def test_requires_exactly_one_value_form(self):
        with pytest.raises(InvalidBc):
            BcConfig(Model.MAM)
        with pytest.raises(InvalidBc):
            BcConfig(Model.MAM, values_kbps=(1,), percents=(50.0,))

    def test_rejects_empty_and_negative(self):
        with pytest.raises(InvalidBc):
            BcConfig(Model.MAM, values_kbps=())
        with pytest.raises(InvalidBc):
            BcConfig(Model.MAM, values_kbps=(100, -1))
        with pytest.raises(InvalidBc):
            BcConfig(Model.MAM, percents=(50.0, 120.0))

    def test_rdm_vector_must_be_non_increasing(self):
        BcConfig(Model.RDM, values_kbps=(500, 250, 100))  # fine
        BcConfig(Model.RDM, values_kbps=(500, 500, 500))  # ties are fine
        with pytest.raises(InvalidBc):
            BcConfig(Model.RDM, values_kbps=(500, 250, 300))
        # MAM has no ordering requirement
        BcConfig(Model.MAM, values_kbps=(100, 250, 300))

    def test_percent_values_resolve_per_link(self):
        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_link("L1", "A", "B", 400000)
        topo.freeze()
        config = BcConfig(Model.MAM, percents=(50.0, 25.0))
        assert config.bc_for(topo.links["L1"]) == (200000, 100000)

    def test_scope_limits_governed_links(self):
        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_host("C")
        topo.add_link("L1", "A", "B", 1000)
        topo.add_link("L2", "B", "C", 1000)
        topo.freeze()
        config = BcConfig(Model.MAM, values_kbps=(500,), applies_to=frozenset(["L1"]))
        assert config.governs("L1")
        assert not config.governs("L2")
        assert config.bc_for(topo.links["L2"]) is None

    def test_check_config_rejects_what_the_state_cannot_take(self):
        topo = Topology()
        for host in ("A", "B", "C"):
            topo.add_host(host)
        topo.add_link("L1", "A", "B", 1000)
        topo.add_link("L2", "B", "C", 2000)
        topo.freeze()
        classes = [TrafficClass(1), TrafficClass(1)]
        state = NetworkState(topo, classes, BcConfig(Model.MAM, values_kbps=(1000, 1000)))
        state.check_config(BcConfig(Model.MAM, values_kbps=(0, 1000)))
        with pytest.raises(InvalidBc, match=r"^reconfiguration cannot change the allocation model$"):
            state.check_config(BcConfig(Model.RDM, values_kbps=(1000, 0)))
        with pytest.raises(InvalidBc, match=r"^constraint vector length must match class count$"):
            state.check_config(BcConfig(Model.MAM, values_kbps=(1000,)))
        over = BcConfig(Model.MAM, values_kbps=(0, 1001))
        with pytest.raises(InvalidBc, match=r"^constraint 1 \(1001 kbps\) exceeds capacity of link L1$"):
            state.check_config(over)
        with pytest.raises(InvalidBc, match=r"^constraint 1 \(1001 kbps\) exceeds capacity of link L1$"):
            NetworkState(topo, classes, over)  # the initial config passes the same check
        # Only the governed links count, and a percentage resolves per link:
        # 2000 kbps fits L2 alone, and 100% is 1000 kbps on L1, 2000 on L2.
        state.check_config(BcConfig(Model.MAM, values_kbps=(2000, 0), applies_to=frozenset(["L2"])))
        state.check_config(BcConfig(Model.MAM, percents=(100.0, 50.0)))
        with pytest.raises(InvalidBc, match=r"^constraint 0 \(2000 kbps\) exceeds capacity of link L1$"):
            state.check_config(BcConfig(Model.MAM, values_kbps=(2000, 1000)))


class TestTopology:
    def line(self):
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

    def test_rejects_duplicates_and_unknown_endpoints(self):
        topo = Topology()
        topo.add_host("A")
        with pytest.raises(ValueError):
            topo.add_host("A")
        with pytest.raises(ValueError):
            topo.add_switch("A")
        with pytest.raises(ValueError):
            topo.add_link("L1", "A", "NOPE", 100)
        topo.add_host("B")
        topo.add_link("L1", "A", "B", 100)
        with pytest.raises(ValueError):
            topo.add_link("L1", "A", "B", 100)

    def test_host_ips_follow_insertion_order(self):
        topo = self.line()
        assert topo.hosts["HS1"] == "10.0.0.1"
        assert topo.hosts["HS2"] == "10.0.0.2"
        assert topo.hosts["DST"] == "10.0.0.4"

    def test_switch_ports_numbered_by_sorted_link_id(self):
        topo = self.line()
        # S2 touches L2, L4, L5; sorted ids get ports 1, 2, 3
        assert topo.port_of("S2", "L2") == 1
        assert topo.port_of("S2", "L4") == 2
        assert topo.port_of("S2", "L5") == 3
        with pytest.raises(ValueError):
            topo.port_of("S2", "L6")

    def test_route_on_line_topology(self):
        topo = self.line()
        assert topo.shortest_path("HS1", "DST") == ("L1", "L4", "L5", "L6")
        assert topo.shortest_path("HS3", "DST") == ("L3", "L6")
        assert topo.shortest_path("HS1", "HS1") == ()

    def test_nodes_and_switches_on_path(self):
        topo = self.line()
        path = topo.shortest_path("HS1", "DST")
        assert topo.nodes_on(path, "HS1") == ["HS1", "S1", "S2", "S3", "DST"]
        assert [switch for switch, _port in topo.route_hops[path, "HS1"]] == ["S1", "S2", "S3"]
        assert [switch for switch, _port in topo.route_hops[("L3", "L6"), "HS3"]] == ["S3"]

    def test_no_route_between_components(self):
        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_host("C")
        topo.add_host("D")
        topo.add_link("L1", "A", "B", 100)
        topo.add_link("L2", "C", "D", 100)
        topo.freeze()
        with pytest.raises(NoRoute):
            topo.shortest_path("A", "C")

    def test_tie_break_prefers_smaller_link_ids(self):
        # Diamond: two 2-hop routes A-X-B; La/Lb vs Lc/Ld
        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_switch("X")
        topo.add_switch("Y")
        topo.add_link("L1", "A", "X", 100)
        topo.add_link("L2", "X", "B", 100)
        topo.add_link("L3", "A", "Y", 100)
        topo.add_link("L4", "Y", "B", 100)
        topo.freeze()
        assert topo.shortest_path("A", "B") == ("L1", "L2")

    def test_routes_match_exhaustive_search(self):
        rng = random.Random(4711)
        for trial in range(60):
            topo = Topology()
            n_nodes = rng.randint(3, 7)
            names = ["N%d" % i for i in range(n_nodes)]
            for name in names:
                topo.add_host(name)
            n_links = rng.randint(n_nodes - 1, min(10, n_nodes * (n_nodes - 1) // 2))
            seen = set()
            lid = 0
            while len(seen) < n_links:
                a, b = rng.sample(names, 2)
                key = tuple(sorted((a, b)))
                if key in seen:
                    continue
                seen.add(key)
                topo.add_link("L%02d" % lid, a, b, 100)
                lid += 1
            topo.freeze()
            src, dst = rng.sample(names, 2)
            expected = oracle_route(topo, src, dst)
            if expected is None:
                with pytest.raises(NoRoute):
                    topo.shortest_path(src, dst)
            else:
                assert topo.shortest_path(src, dst) == expected, (
                    "trial %d: %s -> %s" % (trial, src, dst)
                )


class TestCommitRelease:
    def test_commit_reserves_on_every_path_link(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        lsp = admit(state, 1, 1, 0.0)
        assert state.topology.links["L1"].alloc == [0, 10, 0]
        assert state.counters.admitted == [0, 1, 0]
        assert state.active_lsps[1] is lsp  # active: in the registry

    def test_commit_requires_requested_state_and_fresh_id(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        lsp = admit(state, 1, 0, 0.0)
        with pytest.raises(ValueError, match="already active"):
            commit(state, lsp)
        clone = Lsp(id=1, class_index=0, demand_kbps=5, path=("L1",),
                    src_host="A", admit_time=1.0)
        with pytest.raises(ValueError, match="already active"):
            commit(state, clone)
        assert state.active_lsps == {1: lsp}
        assert state.topology.links["L1"].alloc == [5, 0, 0]

    def test_commit_over_capacity_is_atomic(self):
        # Two links; second one is full, so the first must stay untouched.
        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_host("C")
        topo.add_link("L1", "A", "B", 100)
        topo.add_link("L2", "B", "C", 10)
        topo.freeze()
        state = NetworkState(topo, [TrafficClass(8)], BcConfig(Model.MAM, values_kbps=(10,)))
        first = Lsp(id=1, class_index=0, demand_kbps=8, path=("L2",), src_host="B", admit_time=0.0)
        commit(state, first)
        second = Lsp(id=2, class_index=0, demand_kbps=8, path=("L1", "L2"), src_host="A", admit_time=1.0)
        with pytest.raises(CapacityViolation):
            commit(state, second)
        assert topo.links["L1"].alloc == [0]
        assert topo.links["L2"].alloc == [8]
        assert 2 not in state.active_lsps
        assert state.active_by_class == [{1: first}]

    def test_commit_with_an_admit_time_that_does_not_compare_changes_nothing(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        first = admit(state, 1, 0, 0.0)
        odd = Lsp(id=2, class_index=0, demand_kbps=5, path=("L1",), src_host="A", admit_time=None)
        with pytest.raises(TypeError):
            commit(state, odd)  # (None, 2) against (0.0, 1)
        assert state.active_lsps == {1: first}
        assert list(state.active_by_class[0].items()) == [(1, first)]
        assert state.topology.links["L1"].alloc == [5, 0, 0]
        assert state.counters.admitted == [1, 0, 0]

    def test_an_older_commit_whose_re_sort_cannot_compare_changes_nothing(self):
        # An LSP older than its class's newest re-sorts the class dict, and
        # the sort runs before anything changes.
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        admit(state, 1, 0, 0.0)
        newest = admit(state, 2, 0, 5.0)
        odd = replace_lsp(state, 1, admit_time=None)
        older = Lsp(id=3, class_index=0, demand_kbps=5, path=("L1",), src_host="A", admit_time=1.0)
        with pytest.raises(TypeError):
            commit(state, older)  # (1.0, 3) sorts against (None, 1)
        assert state.active_lsps == {1: odd, 2: newest}
        assert list(state.active_by_class[0].items()) == [(1, odd), (2, newest)]
        assert state.topology.links["L1"].alloc == [10, 0, 0]
        assert state.counters.admitted == [2, 0, 0]

    def test_release_is_exact_inverse(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        admit(state, 1, 0, 0.0)
        admit(state, 2, 2, 1.0)
        before = list(state.topology.links["L1"].alloc)
        admit(state, 3, 1, 2.0)
        release(state, 3, LspState.COMPLETED)
        assert state.topology.links["L1"].alloc == before
        assert state.counters.completed == [0, 1, 0]
        assert 3 not in state.active_lsps

    def test_release_reason_routes_to_the_right_counter(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        first = admit(state, 1, 0, 0.0)
        second = admit(state, 2, 0, 1.0)
        assert release(state, 1, LspState.COMPLETED) is first
        assert release(state, 2, LspState.PREEMPTED) is second
        assert state.active_lsps == {}
        assert state.counters.completed[0] == 1
        assert state.counters.preempted[0] == 1

    def test_release_rejects_bad_reasons_and_unknown_ids(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        admit(state, 1, 0, 0.0)
        with pytest.raises(ValueError):
            release(state, 1, "Completed")
        assert 1 in state.active_lsps
        with pytest.raises(UnknownLsp):
            release(state, 99, LspState.COMPLETED)
        release(state, 1, LspState.COMPLETED)
        with pytest.raises(UnknownLsp):
            release(state, 1, LspState.COMPLETED)

    def test_random_admit_release_keeps_ledger_consistent(self):
        rng = random.Random(99)
        # Constraints equal to capacity: the helper bypasses admission
        # control, so only the physical capacity may bound the ledger here.
        state = single_link_state(Model.RDM, [500, 500, 500], 500, [3, 7, 11])
        next_id = 1
        live = []
        for step in range(400):
            if live and rng.random() < 0.45:
                victim = live.pop(rng.randrange(len(live)))
                reason = LspState.COMPLETED if rng.random() < 0.7 else LspState.PREEMPTED
                release(state, victim, reason)
            else:
                c = rng.randrange(3)
                demand = state.classes[c].max_lsp_kbps
                link = state.topology.links["L1"]
                if sum(link.alloc) + demand > link.capacity_kbps:
                    continue
                admit(state, next_id, c, float(step))
                live.append(next_id)
                next_id += 1
            check_state(state)
        for lsp_id in list(live):
            release(state, lsp_id, LspState.COMPLETED)
        assert state.topology.links["L1"].alloc == [0, 0, 0]
        check_state(state)


def test_shortest_path_uses_topology_routing():
    state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
    assert state.topology.shortest_path("A", "B") == ("L1",)


def test_state_is_built_from_topology_classes_and_config_alone():
    topo = Topology()
    topo.add_host("A")
    topo.add_host("B")
    topo.add_link("L1", "A", "B", 100)
    topo.freeze()
    config = BcConfig(Model.RDM, values_kbps=(100, 50, 20))
    state = NetworkState(topo, [TrafficClass(5)] * 3, config)
    assert topo.links["L1"].alloc == [0, 0, 0]  # one counter per class, set by the state
    assert (state.active_lsps, state.pending_soft_bc) == ({}, None)
    assert state.counters.requested == state.counters.completed == [0, 0, 0]
    assert bam.decide(state, ("L1",), 2, 5) == bam.AdmissionDecision(bam.Verdict.GRANT)
    for name, value in (("counters", None), ("active_lsps", {}), ("pending_soft_bc", config)):
        with pytest.raises(TypeError):
            NetworkState(topo, [TrafficClass(5)] * 3, config, **{name: value})


def test_state_refuses_a_topology_that_already_backs_a_state():
    # The ledger lives on the topology's links, which the first state's
    # cached plans read live: a second state must not rebind it.
    topo = Topology()
    topo.add_host("A")
    topo.add_host("B")
    topo.add_link("L1", "A", "B", 10)
    topo.freeze()
    config = BcConfig(Model.MAM, values_kbps=(10,))
    s1 = NetworkState(topo, [TrafficClass(10)], config)
    ledger = topo.links["L1"].alloc
    assert bam.decide(s1, ("L1",), 0, 10).verdict is bam.Verdict.GRANT
    with pytest.raises(ValueError, match="already backs a NetworkState"):
        NetworkState(topo, [TrafficClass(10)], config)
    assert topo.links["L1"].alloc is ledger
    commit(s1, Lsp(1, 0, 10, ("L1",), "A", 0.0))
    assert bam.decide(s1, ("L1",), 0, 10).verdict is bam.Verdict.DENY
    with pytest.raises(CapacityViolation):
        commit(s1, Lsp(2, 0, 10, ("L1",), "A", 1.0))
    assert ledger == [10] and list(s1.active_lsps) == [1]
    # A config the state cannot take is still reported as such.
    with pytest.raises(InvalidBc):
        NetworkState(topo, [TrafficClass(10)] * 2, config)


def test_state_rejects_mismatched_vector_length():
    topo = Topology()
    topo.add_host("A")
    topo.add_host("B")
    topo.add_link("L1", "A", "B", 100)
    topo.freeze()
    classes = [TrafficClass(1), TrafficClass(1)]
    with pytest.raises(InvalidBc):
        NetworkState(topo, classes, BcConfig(Model.MAM, values_kbps=(50,)))


def test_admission_bc_is_min_of_current_and_pending():
    state = single_link_state(Model.MAM, [350, 50, 100], 500, [5, 10, 20])
    assert mam_admission_caps(state) == (350, 50, 100)
    state.pending_soft_bc = BcConfig(Model.MAM, values_kbps=(250, 150, 100))
    assert mam_admission_caps(state) == (250, 50, 100)
    state.pending_soft_bc = None
    assert mam_admission_caps(state) == (350, 50, 100)

"""The checkers must actually fire: corrupt a healthy state one way at a
time and expect the matching violation."""

from types import SimpleNamespace

import pytest

from bamsim import BcConfig, Lsp, LspState, Model, ReconfigMode, commit, reconfigure, release, scenario
from bamsim.checks import (
    InvariantViolation,
    _check_fabric_in_full,
    _check_state_in_full,
    check_all,
    check_fabric,
    check_state,
)
from bamsim.controller import Classifier, Controller, LspRequest
from bamsim.fabric import Fabric, FlowMatch, FlowRule

from helpers import admit, plant, put_in_place, replace_lsp, single_link_state


def healthy():
    state = single_link_state(
        Model.MAM, bc=(40000, 40000), capacity=100000, demands=(5000, 10000)
    )
    admit(state, 1, 0, when=1.0)
    admit(state, 2, 1, when=2.0)
    return state


def _keep_entry_of_released(state, lsp_id):
    entries = state.active_by_class[state.active_lsps[lsp_id].class_index]
    retired = {lsp_id: release(state, lsp_id, LspState.COMPLETED)}
    _refile(entries, {**retired, **entries})  # where it stood, first


def _refile(entries, items):
    """Make the class dict ``entries`` hold ``items``, in their order."""
    items = dict(items)
    entries.clear()
    entries.update(items)


class TestStateChecks:
    def test_healthy_state_passes(self):
        check_state(healthy())

    def test_ledger_divergence(self):
        state = healthy()
        state.topology.links["L1"].alloc[0] += 1
        with pytest.raises(InvariantViolation, match="ledger"):
            check_state(state)

    def test_negative_allocation(self):
        state = healthy()
        link = state.topology.links["L1"]
        link.alloc[0] -= 6000
        replace_lsp(state, 1, demand_kbps=-1000)
        with pytest.raises(InvariantViolation):
            check_state(state)

    def test_capacity_breach(self):
        state = healthy()
        # force both the ledger and the registry past capacity coherently
        replace_lsp(state, 2, demand_kbps=96000)
        state.topology.links["L1"].alloc[1] = 96000
        state.bc_config = BcConfig(Model.MAM, values_kbps=(101000, 101000))
        with pytest.raises(InvariantViolation, match="capacity"):
            check_state(state)

    def test_mam_class_over_constraint(self):
        state = healthy()
        state.bc_config = BcConfig(Model.MAM, values_kbps=(4000, 40000))
        with pytest.raises(InvariantViolation, match="class 0"):
            check_state(state)

    def test_rdm_nested_sum_over_constraint(self):
        state = single_link_state(
            Model.RDM, bc=(50000, 20000), capacity=50000, demands=(5000, 10000)
        )
        admit(state, 1, 1, when=1.0)
        check_state(state)
        state.bc_config = BcConfig(Model.RDM, values_kbps=(50000, 9000))
        with pytest.raises(InvariantViolation, match="nested"):
            check_state(state)

    def test_pending_soft_config_widens_the_cap(self):
        # alloc legal against the outgoing config but not the pending one:
        # tolerated while draining.
        state = healthy()
        state.pending_soft_bc = BcConfig(Model.MAM, values_kbps=(1000, 1000))
        check_state(state)
        # but not against the current one
        state.bc_config = BcConfig(Model.MAM, values_kbps=(1000, 40000))
        with pytest.raises(InvariantViolation):
            check_state(state)

    def test_a_pending_config_never_raises_the_current_cap(self):
        # Admission under a pending config takes the tighter value, so a
        # ledger over the current cap is a fault whatever is pending.
        state = healthy()
        state.bc_config = BcConfig(Model.MAM, values_kbps=(4000, 40000))
        state.pending_soft_bc = BcConfig(Model.MAM, values_kbps=(40000, 40000))
        with pytest.raises(InvariantViolation, match="class 0 over constraint: 5000 > 4000"):
            check_state(state)

    def test_soft_drain_on_a_link_only_the_pending_config_governs(self):
        # The current config governs L1 alone; a soft cut to 20 Mbps on L2
        # alone leaves the 50 Mbps LSP on L2 draining.  Soft mode never
        # preempts, so this is legal: the ledger must satisfy only the
        # current config.
        from bamsim.core import NetworkState, Topology, TrafficClass

        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_switch("S1")
        topo.add_link("L1", "A", "S1", 100000)
        topo.add_link("L2", "S1", "B", 100000)
        topo.freeze()
        current = BcConfig(Model.MAM, values_kbps=(100000,), applies_to=frozenset({"L1"}))
        state = NetworkState(topo, [TrafficClass(50000)], current)
        admit(state, 1, 0, when=1.0, path=("L1", "L2"))
        cut = BcConfig(Model.MAM, values_kbps=(20000,), applies_to=frozenset({"L2"}))
        assert reconfigure(state, cut, ReconfigMode.SOFT) == []
        assert state.pending_soft_bc is cut
        check_state(state)

    @pytest.mark.parametrize("corrupt", [
        lambda s: s.active_by_class[1].clear(),
        lambda s: s.active_by_class[0].__setitem__(4, s.active_lsps[3]),
        lambda s: _refile(s.active_by_class[0], [(4, s.active_lsps[3]), (1, s.active_lsps[1])]),
        lambda s: s.active_by_class[0].__setitem__(2, s.active_by_class[1].pop(2)),
        lambda s: _refile(s.active_by_class[0], reversed(s.active_by_class[0].items())),
        lambda s: replace_lsp(s, 3, admit_time=9.0),  # moved, not re-sorted
        lambda s: _keep_entry_of_released(s, 3),
    ], ids=["missing", "twice", "other_id", "wrong_class", "out_of_order", "stale_key", "retired"])
    def test_class_list_divergence(self, corrupt):
        state = healthy()
        admit(state, 3, 0, when=0.5)  # older than LSP 1, so it sorts first
        check_state(state)
        corrupt(state)
        with pytest.raises(InvariantViolation, match="class lists disagree"):
            check_state(state)

    def test_counter_identities(self):
        state = healthy()
        state.counters.requested[0] += 1
        with pytest.raises(InvariantViolation, match="requested"):
            check_state(state)
        state = healthy()
        state.counters.completed[1] += 1
        with pytest.raises(InvariantViolation, match="admitted"):
            check_state(state)


def controller_pair():
    from bamsim.core import NetworkState, Topology, TrafficClass

    topo = Topology()
    topo.add_host("A")
    topo.add_host("B")
    topo.add_switch("S1")
    topo.add_link("L1", "A", "S1", 100000)
    topo.add_link("L2", "S1", "B", 100000)
    topo.freeze()
    state = NetworkState(topo, [TrafficClass(5000)], BcConfig(Model.MAM, values_kbps=(50000,)))
    fabric = Fabric(topo)
    classifier = Classifier.for_state(state, [(30000, 30999, 0)])
    controller = Controller(state, fabric, classifier)
    controller.handle_request(LspRequest(1, 0.5, "10.0.0.1", "10.0.0.2", 20001, 30001))
    return state, fabric


def two_route_pair(requests):
    """Routes A -> B over S1 and S2, and C -> B over S2 alone; one admitted
    LSP per (source host, id) in ``requests``, in that order."""
    from bamsim.core import NetworkState, Topology, TrafficClass

    topo = Topology()
    for host in ("A", "B", "C"):
        topo.add_host(host)
    topo.add_switch("S1")
    topo.add_switch("S2")
    topo.add_link("L1", "A", "S1", 100000)
    topo.add_link("L2", "S1", "S2", 100000)
    topo.add_link("L3", "S2", "B", 100000)
    topo.add_link("L4", "C", "S2", 100000)
    topo.freeze()
    state = NetworkState(topo, [TrafficClass(5000)], BcConfig(Model.MAM, values_kbps=(50000,)))
    fabric = Fabric(topo)
    controller = Controller(state, fabric, Classifier.for_state(state, [(30000, 30999, 0)]))
    for src, lsp_id in requests:
        controller.handle_request(LspRequest(
            lsp_id, float(lsp_id), topo.hosts[src], topo.hosts["B"], 20000 + lsp_id, 30000 + lsp_id))
    return state, fabric


class TestFabricChecks:
    def test_controller_output_is_coherent(self):
        state, fabric = controller_pair()
        check_all(state, fabric)

    def test_orphan_rule_detected(self):
        state, fabric = controller_pair()
        lsp = state.active_lsps[1]
        del state.active_lsps[1]
        state.topology.links["L1"].alloc[0] = 0
        state.topology.links["L2"].alloc[0] = 0
        state.counters.completed[0] += 1
        with pytest.raises(InvariantViolation, match="not an active LSP"):
            check_fabric(state, fabric)
        state.active_lsps[1] = lsp  # quiet the linter; state is scratch

    def test_ownerless_rule_is_a_violation_naming_its_switch(self):
        # install_path writes only owned rules, so an ownerless one can only
        # be planted, as a corrupted table would hold it.
        state, fabric, _events = scenario.build(scenario.load("exp1_rdm"))
        match = FlowMatch("10.0.0.1", "10.0.0.4", 20001, 30001)
        plant(fabric, FlowRule("S1", match, None, 0, owner=None))
        with pytest.raises(InvariantViolation, match="switch S1 holds a rule with no owner LSP"):
            check_fabric(state, fabric)

    def test_missing_rule_detected(self):
        state, fabric = controller_pair()
        fabric.remove_by_owner(1)
        with pytest.raises(InvariantViolation, match="holds 0 rules"):
            check_fabric(state, fabric)

    @pytest.mark.parametrize("corrupt", [
        lambda f: f._by_owner[1].pop(),
        lambda f: f._by_owner[1].append(f._by_owner[1][0]),
        lambda f: f._by_owner.__setitem__(2, f._by_owner.pop(1)),
        lambda f: f._rules.pop(f._by_owner[1][0]),
    ], ids=["slot_missing", "slot_twice", "wrong_owner", "rule_gone"])
    def test_owner_index_divergence(self, corrupt):
        state, fabric = controller_pair()
        corrupt(fabric)
        with pytest.raises(InvariantViolation, match="owner index"):
            check_fabric(state, fabric)

    def test_second_lsp_on_a_route_is_counted_from_the_topology(self):
        # LSP 1 fills the route's switch count first; LSP 2 on the same
        # route must still be held to the topology's two switches.
        state, fabric = two_route_pair([("A", 1), ("A", 2)])
        check_fabric(state, fabric)
        del fabric._rules[fabric._by_owner[2].pop()]
        with pytest.raises(InvariantViolation, match="LSP 2 holds 1 rules, path has 2 switches"):
            check_fabric(state, fabric)

    @pytest.mark.parametrize("order", [("A", "C"), ("C", "A")], ids=["long_first", "short_first"])
    def test_each_route_keeps_its_own_switch_count(self, order):
        # A -> B crosses S1 and S2, C -> B only S2.
        state, fabric = two_route_pair([(order[0], 1), (order[1], 2)])
        check_fabric(state, fabric)
        short = 1 if order[0] == "C" else 2
        match = fabric.owner_rules(short)[0].match
        plant(fabric, FlowRule("S1", match, 1, 5000, short))
        with pytest.raises(InvariantViolation, match="LSP %d holds 2 rules, path has 1 switches" % short):
            check_fabric(state, fabric)
        fabric.remove_by_owner(short)
        with pytest.raises(InvariantViolation, match="LSP %d holds 0 rules, path has 1 switches" % short):
            check_fabric(state, fabric)

    def test_check_all_without_fabric_skips_rule_checks(self):
        state, fabric = controller_pair()
        fabric.remove_by_owner(1)
        check_all(state)

    def test_a_call_without_the_fabric_leaves_no_fabric_copies_behind(self):
        # The fabric copies stand where the last call with the fabric left
        # them, so a later call with it must not take them as current.
        state, fabric = two_route_pair([("A", 1)])
        check_all(state, fabric)
        controller = Controller(state, fabric, Classifier.for_state(state, [(30000, 30999, 0)]))
        hosts = state.topology.hosts
        controller.handle_request(LspRequest(2, 2.0, hosts["C"], hosts["B"], 20002, 30002))
        fabric.remove_by_owner(2)
        check_all(state)
        with pytest.raises(InvariantViolation, match="LSP 2 holds 0 rules, path has 1 switches"):
            check_all(state, fabric)


def verdict(check, *args):
    try:
        check(*args)
    except Exception as exc:  # a route the topology cannot walk raises ValueError
        return "%s: %s" % (type(exc).__name__, exc)
    return "pass"


def healthy_alone():
    return healthy(), None


def older_first_alone():
    """``healthy`` with LSP 3 admitted before LSP 1, so first in class 0."""
    state = healthy()
    admit(state, 3, 0, when=0.5)
    return state, None


def rdm_alone():
    state = single_link_state(
        Model.RDM, bc=(50000, 20000), capacity=50000, demands=(5000, 10000)
    )
    admit(state, 1, 1, when=1.0)
    return state, None


def _ledger_plus_one(state, _fabric):
    state.topology.links["L1"].alloc[0] += 1


def _drain_into_negative(state, _fabric):
    state.topology.links["L1"].alloc[0] -= 6000
    replace_lsp(state, 1, demand_kbps=-1000)


def _breach_capacity(state, _fabric):
    replace_lsp(state, 2, demand_kbps=96000)
    state.topology.links["L1"].alloc[1] = 96000
    state.bc_config = BcConfig(Model.MAM, values_kbps=(101000, 101000))


def _unrequested(state, _fabric):
    state.counters.requested[0] += 1


def _uncompleted(state, _fabric):
    state.counters.completed[1] += 1


def _negative_counter(state, _fabric):
    state.counters.blocked[0] -= 1
    state.counters.requested[0] -= 1


def _more_demand(state, _fabric):
    replace_lsp(state, 1, demand_kbps=state.active_lsps[1].demand_kbps + 1)


def test_a_legal_release_of_a_float_demand_raises_as_the_recount_does():
    # Float sums depend on their order: the ledger, built up and drained,
    # drifts from the recount, and check_all must say so as the full check does.
    state = single_link_state(Model.MAM, bc=(40000, 40000), capacity=100000, demands=(0.1, 10000))
    for lsp_id in (1, 2, 3):
        admit(state, lsp_id, 0, when=float(lsp_id))
    check_all(state)
    release(state, 2, LspState.COMPLETED)
    expected = verdict(check_state, state)
    assert expected.startswith("InvariantViolation: link L1 ledger")
    assert verdict(check_all, state) == expected


@pytest.mark.parametrize("field, value", [("demand_kbps", 5001), ("admit_time", 1.5)])
def test_an_equal_copy_in_a_class_list_changed_after_a_passing_call_raises_as_in_full(field, value):
    # The walk takes an equal copy for the registry's LSP, so the first call
    # passes; once the copy is replaced by a changed one, the lists disagree
    # with the registry.
    state = healthy()
    entries = state.active_by_class[0]
    entries[1] = entries[1]._replace()
    check_all(state)
    entries[1] = entries[1]._replace(**{field: value})
    expected = verdict(_check_state_in_full, state)
    assert expected == "InvariantViolation: class lists disagree with the active registry"
    assert verdict(check_all, state) == expected


def test_a_list_path_changed_after_a_passing_call_raises_as_in_full():
    # A record holding a list path is still its recorded self once the path
    # changes, so no delta may be taken from it.
    state = healthy()
    admit(state, 3, 0, when=3.0)
    replace_lsp(state, 3, path=["L1"])  # commit takes tuples; the full check takes this
    check_all(state)
    state.active_lsps[3].path.clear()
    expected = verdict(_check_state_in_full, state)
    assert expected.startswith("InvariantViolation: link L1 ledger")
    assert verdict(check_all, state) == expected


# (build, corrupt): the hand corruptions above, and LSP records replaced in
# place, under their keys, by changed copies.
SHADOWED = {
    "ledger_plus_one": (healthy_alone, _ledger_plus_one),
    "negative_allocation": (healthy_alone, _drain_into_negative),
    "capacity_breach": (healthy_alone, _breach_capacity),
    "tighter_mam": (healthy_alone, lambda s, f: setattr(
        s, "bc_config", BcConfig(Model.MAM, values_kbps=(4000, 40000)))),
    "tighter_rdm": (rdm_alone, lambda s, f: setattr(
        s, "bc_config", BcConfig(Model.RDM, values_kbps=(50000, 9000)))),
    "requested_identity": (healthy_alone, _unrequested),
    "admitted_identity": (healthy_alone, _uncompleted),
    "negative_counter": (healthy_alone, _negative_counter),
    "slot_missing": (controller_pair, lambda s, f: f._by_owner[1].pop()),
    "slot_twice": (controller_pair, lambda s, f: f._by_owner[1].append(f._by_owner[1][0])),
    "wrong_owner": (controller_pair, lambda s, f: f._by_owner.__setitem__(2, f._by_owner.pop(1))),
    "rule_gone": (controller_pair, lambda s, f: f._rules.pop(f._by_owner[1][0])),
    "missing_rule": (controller_pair, lambda s, f: f.remove_by_owner(1)),
    "demand_in_place": (healthy_alone, _more_demand),
    "path_in_place": (controller_pair, lambda s, f: replace_lsp(s, 1, path=("L1",))),
    "src_host_in_place": (controller_pair, lambda s, f: replace_lsp(s, 1, src_host="B")),
    "class_in_place": (healthy_alone, lambda s, f: replace_lsp(s, 2, class_index=0)),
    "class_dict_reordered": (older_first_alone, lambda s, f: _refile(
        s.active_by_class[0], reversed(s.active_by_class[0].items()))),
    # Moved past LSP 1 in time, but not in its class dict.
    "admit_time_in_place": (older_first_alone, lambda s, f: replace_lsp(s, 3, admit_time=3.0)),
    # The state holds, and the fabric check cannot walk the new route from C;
    # the full check names the owner index, which it reads first.
    "route_not_walkable": (lambda: two_route_pair([("A", 1)]), lambda s, f: (
        _commit(s, Lsp(7, 0, 5000, ("L1", "L2", "L3"), "C", 7.0)), f._by_owner[1].pop())),
}


@pytest.mark.parametrize("build, corrupt", SHADOWED.values(), ids=list(SHADOWED))
def test_a_corruption_after_a_passing_call_raises_as_on_a_fresh_state(build, corrupt):
    """The first call on a state runs the full check; a later call meets the
    corruption through the shadow of the passing call, and must raise the
    same exception with the same message."""
    state, fabric = build()
    corrupt(state, fabric)
    expected = verdict(check_all, state, fabric)
    assert expected != "pass"
    state, fabric = build()
    check_all(state, fabric)
    corrupt(state, fabric)
    assert verdict(check_all, state, fabric) == expected


def _check_all_in_full(state, fabric):
    expected = verdict(_check_state_in_full, state)
    if expected == "pass" and fabric is not None:
        return verdict(_check_fabric_in_full, state, fabric)
    return expected


def _commit_from_c(state, fabric, lsp_id, demand):
    """A class 0 LSP from host C over L4 and L3; L4 carries no other LSP."""
    lsp = Lsp(lsp_id, 0, demand, ("L4", "L3"), "C", float(lsp_id))
    _commit(state, lsp)
    if fabric is not None:
        hosts = state.topology.hosts
        fabric.install_path(lsp, FlowMatch(hosts["C"], hosts["B"], 20000 + lsp_id, 30000 + lsp_id))


def _commit(state, lsp):
    state.counters.requested[lsp.class_index] += 1
    commit(state, lsp)


def _register(lsp):
    return lambda state, fabric: state.active_lsps.__setitem__(lsp.id, lsp)


_A_TO_B = ("L1", "L2", "L3")


def _tuple_in_place(state, fabric):
    state.active_lsps[3] = tuple(state.active_lsps[3])


def _mutable_in_place(state, fabric):
    # A mutable object with an Lsp's fields, as an Lsp was before records.
    put_in_place(state, 3, SimpleNamespace(**state.active_lsps[3]._asdict()))


def _more_demand_in_place(state, fabric):
    state.active_lsps[3].demand_kbps += 1


def _list_path(state, fabric):
    replace_lsp(state, 3, path=list(state.active_lsps[3].path))


def _shorten_list_path(state, fabric):
    state.active_lsps[3].path.pop()


def _float_demands(state, fabric):
    for lsp_id in (4, 5, 6):
        _commit_from_c(state, fabric, lsp_id, 0.1)


def _release_a_float_demand(state, fabric):
    # 0.1 + 0.1 + 0.1 - 0.1 is not 0.1 + 0.1: the ledger drifts from the recount.
    release(state, 5, LspState.COMPLETED)
    if fabric is not None:
        fabric.remove_by_owner(5)


# (put in after a passing call, then changed, the last full verdict): values
# in the registry that the shadow must not adopt, then records it adopts and
# must hand to the full check, or apply as the full check would.
UNADOPTED = {
    "tuple_in_place": (_tuple_in_place, lambda s, f: None,
                       "AttributeError: 'tuple' object has no attribute 'class_index'"),
    "mutable_in_place": (_mutable_in_place, _more_demand_in_place, "InvariantViolation: link L1 ledger"),
    "list_path": (_list_path, _shorten_list_path, "InvariantViolation: link L3 ledger"),
    "float_demand": (_float_demands, _release_a_float_demand, "InvariantViolation: link L4 ledger"),
    "none_admit_time": (_register(Lsp(7, 0, 5000, _A_TO_B, "A", None)), lambda s, f: None,
                        "InvariantViolation: link L1 ledger"),
    # Adopted, but the shadow cannot apply them, so the full check decides.
    "class_above_range": (_register(Lsp(7, 1, 5000, _A_TO_B, "A", 7.0)), lambda s, f: None,
                          "InvariantViolation: LSP 7 has class 1, outside 0..0"),
    "class_below_range": (_register(Lsp(7, -1, 5000, _A_TO_B, "A", 7.0)), lambda s, f: None,
                          "InvariantViolation: LSP 7 has class -1, outside 0..0"),
    "unknown_link": (_register(Lsp(7, 0, 5000, ("L9",), "A", 7.0)), lambda s, f: None,
                     "InvariantViolation: LSP 7 path names unknown link 'L9'"),
    "nan_admit_time": (lambda s, f: _commit(s, Lsp(7, 0, 5000, _A_TO_B, "A", float("nan"))), lambda s, f: None,
                       "InvariantViolation: class lists disagree"),
    "key_at_the_walk_start": (lambda s, f: _commit(s, Lsp(0, 0, 5000, _A_TO_B, "A", float("-inf"))),
                              lambda s, f: None, "InvariantViolation: class lists disagree"),
    # A route that ends at a switch has no interior switch, so the LSP needs
    # no rule and no entry in the owner index.
    "no_interior_switch": (lambda s, f: _commit(s, Lsp(7, 0, 5000, ("L4",), "C", 7.0)), lambda s, f: None, "pass"),
}


@pytest.mark.parametrize("with_fabric", [False, True], ids=["state", "fabric"])
@pytest.mark.parametrize("put, change, last", UNADOPTED.values(), ids=list(UNADOPTED))
def test_a_record_put_in_after_a_passing_call_checks_as_in_full(put, change, last, with_fabric):
    state, fabric = two_route_pair([("A", 1), ("A", 2), ("A", 3)])
    fabric = fabric if with_fabric else None
    check_all(state, fabric)
    for step in (put, change):
        step(state, fabric)
        expected = _check_all_in_full(state, fabric)
        assert verdict(check_all, state, fabric) == expected, step.__name__
    assert expected.startswith(last)

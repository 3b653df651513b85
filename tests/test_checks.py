"""The checkers must actually fire: corrupt a healthy state one way at a
time and expect the matching violation."""

from types import SimpleNamespace

import pytest

from bamsim import BcConfig, Lsp, LspState, Model, ReconfigMode, checks, commit, reconfigure, release, scenario
from bamsim.checks import (
    InvariantViolation,
    _check_fabric_in_full,
    _check_state_in_full,
    check_all,
    check_fabric,
    check_state,
)
from bamsim.controller import Classifier, Controller, LspRequest
from bamsim.fabric import Fabric, FlowMatch, RuleConflict

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


def _hold(fabric, owner, lsp):
    """Make ``owner``'s fabric record hold ``lsp``."""
    fabric._records[owner] = lsp, fabric._records[owner][1]


def _share(fabric, owner, holder):
    """Move ``owner``'s record onto ``holder``'s match, and its index entry
    with it."""
    lsp, match = fabric._records[owner]
    held = fabric._records[holder][1]
    fabric._records[owner] = lsp, held
    fabric._holders[held] = fabric._holders.pop(match)


def _matches(fabric):
    return [record[1] for record in fabric._records.values()]


_INDEX = "fabric conflict index disagrees with the records"
_LSP_2 = Lsp(2, 0, 5000, ("L4", "L3"), "C", 2.0)

# (corrupt, message) on ``two_route_pair([("A", 1), ("C", 2)])``: the
# records and the conflict index, one fault at a time.
FABRIC_CORRUPTIONS = {
    "record_missing": (lambda s, f: f._records.pop(1), "LSP 1 holds no fabric record"),
    "record_retired": (lambda s, f: release(s, 2, LspState.COMPLETED), "fabric record owner 2 is not an active LSP"),
    "record_unowned": (lambda s, f: plant(f, 9, *f._records[1]), "fabric record owner 9 is not an active LSP"),
    "record_holds_another_lsp": (lambda s, f: _hold(f, 1, s.active_lsps[2]),
                                 "LSP 1 fabric record holds another LSP %r" % (_LSP_2,)),
    "record_holds_a_rerouted_copy": (lambda s, f: _hold(f, 2, _LSP_2._replace(path=("L4",))),
                                     "LSP 2 fabric record holds another LSP %r" % (_LSP_2._replace(path=("L4",)),)),
    "record_holds_a_copy_from_another_source": (
        lambda s, f: _hold(f, 2, _LSP_2._replace(src_host="B")),
        "LSP 2 fabric record holds another LSP %r" % (_LSP_2._replace(src_host="B"),)),
    "record_holds_a_rerated_copy": (lambda s, f: _hold(f, 2, _LSP_2._replace(demand_kbps=5001)),
                                    "LSP 2 fabric record holds another LSP %r" % (_LSP_2._replace(demand_kbps=5001),)),
    "rule_count_drift": (lambda s, f: setattr(f, "_count", f._count + 1), "fabric rule count 4 != 3 rules in the records"),
    # As a teardown that subtracted LSP 1's two rules twice would leave it.
    "rule_count_short_by_a_record": (lambda s, f: setattr(f, "_count", f._count - 2),
                                     "fabric rule count 1 != 3 rules in the records"),
    "entry_missing": (lambda s, f: f._holders.pop(_matches(f)[0]), _INDEX),
    "entry_extra": (lambda s, f: f._holders.__setitem__(FlowMatch("10.0.0.9", "10.0.0.2", 1, 2), 9), _INDEX),
    "entry_twice": (lambda s, f: f._holders.__setitem__(FlowMatch("10.0.0.9", "10.0.0.2", 1, 2), 2), _INDEX),
    "entry_under_another_owner": (lambda s, f: f._holders.__setitem__(_matches(f)[0], 2), _INDEX),
    "entry_under_another_match": (lambda s, f: f._holders.__setitem__(
        FlowMatch("10.0.0.9", "10.0.0.2", 1, 2), f._holders.pop(_matches(f)[0])), _INDEX),
    "shared_match_filed_under_the_later": (lambda s, f: _share(f, 2, 1),
                                           "LSP 2 fabric record shares its match with LSP 1"),
    "shared_match_filed_under_the_earlier": (lambda s, f: (_share(f, 2, 1), f._holders.__setitem__(_matches(f)[0], 1)),
                                             "LSP 2 fabric record shares its match with LSP 1"),
}


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

    def test_ownerless_record_is_a_violation(self):
        # install_path refuses an LSP without an id, so an ownerless record
        # can only be planted, as a corrupted fabric would hold it.
        state, fabric, _events = scenario.build(scenario.load("exp1_rdm"))
        match = FlowMatch("10.0.0.1", "10.0.0.4", 20001, 30001)
        plant(fabric, None, Lsp(None, 0, 0, ("L1", "L4"), "HS1", 0.0), match)
        with pytest.raises(InvariantViolation, match="fabric record owner None is not an active LSP"):
            check_fabric(state, fabric)

    def test_missing_rule_detected(self):
        state, fabric = controller_pair()
        fabric.remove_by_owner(1)
        with pytest.raises(InvariantViolation, match="LSP 1 holds no fabric record"):
            check_fabric(state, fabric)

    @pytest.mark.parametrize("corrupt, message", FABRIC_CORRUPTIONS.values(), ids=list(FABRIC_CORRUPTIONS))
    def test_record_and_index_divergence(self, corrupt, message):
        state, fabric = two_route_pair([("A", 1), ("C", 2)])
        check_fabric(state, fabric)
        corrupt(state, fabric)
        with pytest.raises(InvariantViolation) as err:
            check_fabric(state, fabric)
        assert str(err.value) == message

    def test_second_lsp_on_a_route_is_held_to_its_own_record(self):
        # LSP 1's record is right first; LSP 2 on the same route, with the
        # same demand, must still hold itself, not LSP 1 or a changed copy.
        state, fabric = two_route_pair([("A", 1), ("A", 2)])
        check_fabric(state, fabric)
        lsp = state.active_lsps[2]
        for other in (state.active_lsps[1], lsp._replace(demand_kbps=2500)):
            _hold(fabric, 2, other)
            with pytest.raises(InvariantViolation) as err:
                check_fabric(state, fabric)
            assert str(err.value) == "LSP 2 fabric record holds another LSP %r" % (other,)
        _hold(fabric, 2, lsp._replace())  # an equal copy is its LSP
        check_fabric(state, fabric)

    @pytest.mark.parametrize("order", [("A", "C"), ("C", "A")], ids=["long_first", "short_first"])
    def test_each_record_keeps_its_own_route(self, order):
        # A -> B crosses S1 and S2, C -> B only S2.  Records swapped between
        # the two LSPs fail at the first record, whichever route it holds; a
        # record dropped fails at its LSP.
        state, fabric = two_route_pair([(order[0], 1), (order[1], 2)])
        check_fabric(state, fabric)
        records = fabric._records
        first, second = records[1], records[2]
        records[1], records[2] = second, first
        with pytest.raises(InvariantViolation, match=r"LSP 1 fabric record holds another LSP Lsp\(id=2, "):
            check_fabric(state, fabric)
        records[1], records[2] = first, second
        short = 1 if order[0] == "C" else 2
        fabric.remove_by_owner(short)
        with pytest.raises(InvariantViolation, match="LSP %d holds no fabric record" % short):
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
        with pytest.raises(InvariantViolation, match="LSP 2 holds no fabric record"):
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


def _more_registry_demand(state, lsp_id):
    lsp = state.active_lsps[lsp_id]
    state.active_lsps[lsp_id] = lsp._replace(demand_kbps=lsp.demand_kbps + 1)


def test_a_shared_match_is_refused_on_install_and_fails_the_check_when_planted(monkeypatch):
    # Routes that end at a switch program no rule, yet a match has one owner
    # whatever the routes: the second install raises and writes nothing.  A
    # record planted on the held match, as a corrupted fabric could hold it,
    # is one the shadow of a passing call may not adopt: the full check
    # decides, with the message it gives on a fresh state.
    from bamsim import checks

    state, fabric = two_route_pair([("A", 1)])
    check_all(state, fabric)
    entered = []
    real = checks._check_fabric_in_full
    monkeypatch.setattr(checks, "_check_fabric_in_full", lambda *args: (entered.append(1), real(*args))[1])
    first, second = Lsp(7, 0, 5000, ("L4",), "C", 7.0), Lsp(8, 0, 5000, ("L1",), "A", 8.0)
    match = FlowMatch("10.0.0.9", "10.0.0.2", 20007, 30007)
    for lsp in (first, second):
        _commit(state, lsp)
    assert fabric.install_path(first, match) == 0
    before = dict(fabric._records), dict(fabric._holders), fabric.rule_count()
    with pytest.raises(RuleConflict) as err:
        fabric.install_path(second, match)
    assert str(err.value) == "LSP 7 already has a rule for tcp/10.0.0.9:20007->10.0.0.2:30007"
    assert (dict(fabric._records), dict(fabric._holders), fabric.rule_count()) == before
    plant(fabric, 8, second, match)
    expected = verdict(_check_fabric_in_full, state, fabric)
    assert expected == "InvariantViolation: LSP 8 fabric record shares its match with LSP 7"
    entered.clear()
    assert verdict(check_all, state, fabric) == expected and entered == [1]


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
    **{name: (lambda: two_route_pair([("A", 1), ("C", 2)]), corrupt)
       for name, (corrupt, _message) in FABRIC_CORRUPTIONS.items()},
    "missing_rule": (controller_pair, lambda s, f: f.remove_by_owner(1)),
    "demand_in_place": (healthy_alone, _more_demand),
    "path_in_place": (controller_pair, lambda s, f: replace_lsp(s, 1, path=("L1",))),
    "src_host_in_place": (controller_pair, lambda s, f: replace_lsp(s, 1, src_host="B")),
    "class_in_place": (healthy_alone, lambda s, f: replace_lsp(s, 2, class_index=0)),
    "class_dict_reordered": (older_first_alone, lambda s, f: _refile(
        s.active_by_class[0], reversed(s.active_by_class[0].items()))),
    # Moved past LSP 1 in time, but not in its class dict.
    "admit_time_in_place": (older_first_alone, lambda s, f: replace_lsp(s, 3, admit_time=3.0)),
    # Changed under its key in the registry alone, so that only the record's
    # identity shows it, on the same step as one of the event loop's two
    # common moves: one commit at the tail, one expiry at the head.
    "registry_demand_with_a_commit": (lambda: two_route_pair([("A", 1), ("A", 2)]), lambda s, f: (
        _more_registry_demand(s, 1), _commit_from_c(s, f, 7, 5000))),
    "registry_demand_with_an_expiry": (lambda: two_route_pair([("A", 1), ("A", 2)]), lambda s, f: (
        _more_registry_demand(s, 2), _retire(1)(s, f))),
    # An LSP added since the passing call, with its record changed after
    # install_path wrote it: the shadow must check each field it adopts.
    "added_record_rerouted": (lambda: two_route_pair([("A", 1)]), lambda s, f: _readmit_from_c(
        s, f, lambda lsp, match: (lsp._replace(path=("L4",)), match))),
    "added_record_rerated": (lambda: two_route_pair([("A", 1)]), lambda s, f: _readmit_from_c(
        s, f, lambda lsp, match: (lsp._replace(demand_kbps=lsp.demand_kbps + 1), match))),
    "added_record_with_a_drifted_count": (lambda: two_route_pair([("A", 1)]), lambda s, f: (
        _commit_from_c(s, f, 7, 5000), setattr(f, "_count", f._count + 1))),
    "added_record_on_a_held_match": (lambda: two_route_pair([("A", 1)]), lambda s, f: _readmit_from_c(
        s, f, lambda lsp, match: (lsp, f._records[1][1]))),
    # The state holds, and the new route cannot be walked from C.  No
    # fabric check walks a route, so the record's LSP, planted with another
    # demand, is what fails.
    "route_not_walkable": (lambda: two_route_pair([("A", 1)]), lambda s, f: (
        _commit(s, Lsp(7, 0, 5000, ("L1", "L2", "L3"), "C", 7.0)),
        plant(f, 7, Lsp(7, 0, 1, ("L1", "L2", "L3"), "C", 7.0), FlowMatch("10.0.0.3", "10.0.0.2", 20007, 30007)))),
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
    _admit(state, fabric, Lsp(lsp_id, 0, demand, ("L4", "L3"), "C", float(lsp_id)))


def _readmit_from_c(state, fabric, change):
    """Admit LSP 7 from C, then rewrite its fabric record by ``change``."""
    _commit_from_c(state, fabric, 7, 5000)
    fabric._records[7] = change(*fabric._records[7])


def _admit(state, fabric, lsp):
    """Commit ``lsp`` and, with a fabric, install it as the controller would."""
    _commit(state, lsp)
    if fabric is not None:
        hosts = state.topology.hosts
        fabric.install_path(lsp, FlowMatch(hosts[lsp.src_host], hosts["B"], 20000 + lsp.id, 30000 + lsp.id))


def _commit(state, lsp):
    state.counters.requested[lsp.class_index] += 1
    commit(state, lsp)


def _admit_with_an_equal_copy(state, fabric):
    """Admit LSP 7 from C; its fabric record holds an equal copy of it."""
    _commit_from_c(state, fabric, 7, 5000)
    if fabric is not None:
        _hold(fabric, 7, state.active_lsps[7]._replace())


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


def _retire(lsp_id):
    """Release ``lsp_id`` as an expiry does."""
    def retire(state, fabric):
        release(state, lsp_id, LspState.COMPLETED)
        if fabric is not None:
            fabric.remove_by_owner(lsp_id)
    return retire


def _tighten(state, fabric):
    # Under it, three LSPs on L1, 15000 kbps, breach; two, 10000, do not.
    state.bc_config = BcConfig(Model.MAM, values_kbps=(12000,))


# (put in after a passing call, then changed, the last full verdict): values
# in the registry that the shadow must not adopt, then records it adopts and
# must hand to the full check, or apply as the full check would; last, moves
# of the ledger and of the constraint table that a verdict the rows passed
# before must not hide.
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
    # A record that holds an equal copy, not the registry's LSP itself.
    "equal_copy_in_a_record": (_admit_with_an_equal_copy, lambda s, f: None, "pass"),
    # A route that ends at a switch has no interior switch, so the LSP's
    # record programs no rule.
    "no_interior_switch": (lambda s, f: _admit(s, f, Lsp(7, 0, 5000, ("L4",), "C", 7.0)), lambda s, f: None, "pass"),
    # The vector the first call passed breaches the tighter table, and still
    # does on the next call.
    "tighter_config_twice": (_tighten, lambda s, f: None,
                             "InvariantViolation: link L1 class 0 over constraint: 15000 > 12000"),
    "ledger_drift_twice": (_ledger_plus_one, lambda s, f: None, "InvariantViolation: link L1 ledger [15001] != "),
    # Away from the vector the first call passed, under a table that the
    # vector now breaches, and back to it.
    "back_to_a_vector_the_tighter_config_breaches": (
        lambda s, f: (_retire(1)(s, f), _tighten(s, f)), lambda s, f: _admit(s, f, Lsp(7, 0, 5000, _A_TO_B, "A", 7.0)),
        "InvariantViolation: link L1 class 0 over constraint: 15000 > 12000"),
    "ledger_back_to_a_vector_that_passed": (_retire(3), lambda s, f: s.topology.links["L1"].alloc.__setitem__(0, 15000),
                                            "InvariantViolation: link L1 ledger [15000] != registry recount [10000]"),
    "release_in_the_middle": (_retire(2), _ledger_plus_one, "InvariantViolation: link L1 ledger [10001] != "),
}


@pytest.mark.parametrize("with_fabric", [False, True], ids=["state", "fabric"])
@pytest.mark.parametrize("put, change, last", UNADOPTED.values(), ids=list(UNADOPTED))
def test_a_record_put_in_after_a_passing_call_checks_as_in_full(put, change, last, with_fabric):
    state, fabric = two_route_pair([("A", 1), ("A", 2), ("A", 3)])
    fabric = fabric if with_fabric else None
    check_all(state, fabric)
    check_all(state, fabric)  # through the shadow, which keeps the row verdicts it passed
    for step in (put, change):
        step(state, fabric)
        expected = _check_all_in_full(state, fabric)
        assert verdict(check_all, state, fabric) == expected, step.__name__
    assert expected.startswith(last)


def test_a_link_at_the_vector_cap_runs_its_rows_again_and_still_raises(monkeypatch):
    """A link that holds ``_PASSED_CAP`` passed vectors forgets them on its
    next miss: a vector that passed before the clear runs the rows again,
    and a breach under the same rows raises as the full check does."""
    monkeypatch.setattr(checks, "_PASSED_CAP", 2)
    state, fabric = two_route_pair([("A", 1), ("A", 2), ("A", 3)])
    table = state.tables().current.table
    tested = []

    def spy(held):
        return lambda alloc: tested.append(tuple(alloc)) or held(alloc)

    table["L1"] = tuple((spy(held), *rest) for held, *rest in table["L1"])
    rows = len(table["L1"])
    check_all(state, fabric)  # in full, which keeps no verdict
    check_all(state, fabric)  # through the shadow: (15000,) passes and is kept
    check_all(state, fabric)  # kept, so its rows do not run
    _retire(3)(state, fabric)  # (10000,): two kept, the cap
    check_all(state, fabric)
    _retire(2)(state, fabric)  # (5000,) clears them
    check_all(state, fabric)
    assert state._check_shadow.passed["L1"][1] == {(5000,)}
    _admit(state, fabric, Lsp(7, 0, 5000, _A_TO_B, "A", 7.0))  # (10000,) again, forgotten
    check_all(state, fabric)
    assert tested == [vector for vector in [(15000,), (15000,), (10000,), (5000,), (10000,)] for _ in range(rows)]
    assert state._check_shadow.passed["L1"][1] == {(5000,), (10000,)}
    _admit(state, fabric, Lsp(8, 0, 45000, _A_TO_B, "A", 8.0))  # (55000,) breaches the 50000 cap
    expected = _check_all_in_full(state, fabric)
    assert expected == "InvariantViolation: link L1 class 0 over constraint: 55000 > 50000"
    assert verdict(check_all, state, fabric) == expected

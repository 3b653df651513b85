import itertools
import random
from collections import Counter

import pytest

from bamsim import (
    AdmissionDecision,
    BcConfig,
    InvalidBc,
    LspState,
    Model,
    ReconfigEvent,
    ReconfigMode,
    Verdict,
    commit,
    decide,
    promote_pending_if_clear,
    reconfigure,
    release,
    select_victims,
)
from bamsim.bam import Infeasible, _choose_victims, _deficit_rows
from bamsim.checks import (
    InvariantViolation,
    _check_class_lists,
    _check_fabric_in_full,
    _check_state_in_full,
    check_all,
    check_fabric,
    check_state,
)
from bamsim.controller import Classifier, Controller, LspRequest
from bamsim.core import Plans, constraint_table
from bamsim.fabric import Fabric, FlowRule

from helpers import (
    admission_vector,
    admit,
    eviction_clears,
    fill,
    mam_admission_caps,
    oracle_constraint_verdict,
    oracle_rdm_verdict,
    plant,
    rdm_fits_direct,
    replace_lsp,
    single_link_state,
)

PATH = ("L1",)


def admission_rows(state, path, class_index, demand_kbps):
    """The deficit rows ``decide`` reads for a request."""
    return _deficit_rows(state.tables().admission[class_index][path], demand_kbps)


def reconfig_rows(state, config):
    """The deficit rows a hard reconfiguration to config evicts for."""
    n = state.n_classes
    table, _borrows = constraint_table(state.topology, n, config)
    return _deficit_rows(Plans(state.topology, table, n)[tuple(state.topology.links)], 0)


class TestCheckMam:
    def test_denies_when_class_partition_full(self):
        # 248 in class 0 against a 250 cap: a 5 unit request must not fit.
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [4, 10, 20])
        fill(state, 0, 62, first_id=1)  # 62 * 4 = 248
        assert state.topology.links["L1"].alloc[0] == 248
        assert decide(state, PATH, 0, 5).verdict is Verdict.DENY

    def test_grants_up_to_the_exact_boundary(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        fill(state, 0, 49, first_id=1)  # 245
        assert decide(state, PATH, 0, 5).verdict is Verdict.GRANT
        fill(state, 0, 1, first_id=100)  # 250
        assert decide(state, PATH, 0, 5).verdict is Verdict.DENY

    def test_partitions_are_private(self):
        # A full class 0 partition must not affect class 1 admissions.
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        fill(state, 0, 50, first_id=1)
        assert decide(state, PATH, 1, 10).verdict is Verdict.GRANT

    def test_capacity_binds_even_with_partition_headroom(self):
        state = single_link_state(Model.MAM, [300, 200, 100], 500, [5, 10, 20])
        fill(state, 0, 60, first_id=1)    # 300
        fill(state, 1, 19, first_id=100)  # 190, total 490
        # class 1 still has 10 of partition headroom but only 10 of capacity
        assert decide(state, PATH, 1, 10).verdict is Verdict.GRANT
        fill(state, 1, 1, first_id=200)   # total 500
        assert decide(state, PATH, 1, 10).verdict is Verdict.DENY

    def test_never_preempts(self):
        rng = random.Random(7)
        for _ in range(50):
            demands = [rng.randint(1, 6) for _ in range(3)]
            state = single_link_state(
                Model.MAM,
                sorted([rng.randint(5, 40) for _ in range(3)], reverse=True),
                50,
                demands,
            )
            next_id = 1
            for _ in range(30):
                c = rng.randrange(3)
                decision = decide(state, PATH, c, demands[c])
                assert decision.verdict in (Verdict.GRANT, Verdict.DENY)
                assert decision.victims == ()
                if decision.verdict is Verdict.GRANT:
                    admit(state, next_id, c, float(next_id))
                    next_id += 1

    def test_checks_every_link_of_the_path(self):
        from bamsim import Lsp, NetworkState, Topology, TrafficClass

        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_host("C")
        topo.add_link("L1", "A", "B", 100)
        topo.add_link("L2", "B", "C", 100)
        topo.freeze()
        state = NetworkState(topo, [TrafficClass(10)], BcConfig(Model.MAM, values_kbps=(50,)))
        for i in range(5):  # saturate L2's only partition
            commit(state, Lsp(id=i + 1, class_index=0, demand_kbps=10, path=("L2",),
                              src_host="B", admit_time=float(i)))
        assert decide(state, ("L1", "L2"), 0, 10).verdict is Verdict.DENY
        assert decide(state, ("L1",), 0, 10).verdict is Verdict.GRANT


class TestCheckRdm:
    def test_lower_class_borrows_idle_headroom(self):
        # Class 0 may run far past what higher constraints would leave it.
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 99, first_id=1)  # 495
        assert decide(state, PATH, 0, 5).verdict is Verdict.GRANT

    def test_full_borrow_then_entitled_class_preempts(self):
        # Class 0 holds the whole link; a class 1 arrival is entitled to its
        # slice and must reclaim exactly two 5 unit borrowers.
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        lsps = fill(state, 0, 100, first_id=1)  # 500, ids 1..100
        decision = decide(state, PATH, 1, 10)
        assert decision.verdict is Verdict.GRANT_WITH_PREEMPTION
        assert len(decision.victims) == 2
        # Newest borrowers go first: highest admit times, ids 100 and 99.
        assert sorted(decision.victims) == [99, 100]
        assert all(state.active_lsps[v].class_index == 0 for v in decision.victims)
        assert eviction_clears(state, decision.victims, 1, 10)
        # Minimal: dropping either victim leaves the request unfittable.
        for v in decision.victims:
            rest = tuple(x for x in decision.victims if x != v)
            assert not eviction_clears(state, rest, 1, 10)
        assert lsps[-1].id in decision.victims

    def test_nested_constraint_governs_all_higher_classes(self):
        # Constraint 1 caps classes 1 and 2 together.  With 240 + 100 already
        # held above class 0, one more 10 unit class 1 flow would put the
        # nested sum at 350 against a 250 cap, and nothing below class 1
        # exists to evict, so the verdict is Deny.
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 1, 24, first_id=1)    # 240
        fill(state, 2, 5, first_id=200)   # 100
        alloc = state.topology.links["L1"].alloc
        assert alloc == [0, 240, 100]
        # oracle agreement, spelled out
        assert not rdm_fits_direct(alloc, (500, 250, 100), 500, 1, 10)
        assert decide(state, PATH, 1, 10).verdict is Verdict.DENY

    def test_own_class_cannot_be_preempted(self):
        # Constraint 2 is full of class 2 itself; same-class eviction is
        # forbidden, so Deny even though victims of equal class would fit it.
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 2, 5, first_id=1)  # 100
        assert decide(state, PATH, 2, 20).verdict is Verdict.DENY

    def test_mixed_borrowers_evicted_lowest_class_newest_first(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 90, first_id=1)     # 450, ids 1..90
        fill(state, 1, 5, first_id=300)    # 50, total 500
        decision = decide(state, PATH, 2, 20)
        assert decision.verdict is Verdict.GRANT_WITH_PREEMPTION
        victims = decision.victims
        # Capacity deficit of 20 is covered from class 0 (the lowest), newest
        # first; class 1 holders stay.
        assert all(state.active_lsps[v].class_index == 0 for v in victims)
        assert sorted(victims) == [87, 88, 89, 90]
        assert eviction_clears(state, victims, 2, 20)

    def test_admit_time_ties_break_by_id(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        for i in range(1, 101):
            admit(state, i, 0, when=0.0)  # all at the same instant
        decision = decide(state, PATH, 1, 10)
        assert decision.verdict is Verdict.GRANT_WITH_PREEMPTION
        assert sorted(decision.victims) == [99, 100]

    def test_decisions_are_immutable_admission_decisions(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        grant = decide(state, PATH, 1, 10)
        fill(state, 0, 100, first_id=1)  # 500
        preempt = decide(state, PATH, 1, 10)
        deny = decide(state, PATH, 0, 5)  # class 0 has no lower class to evict
        for decision, verdict in ((grant, Verdict.GRANT), (preempt, Verdict.GRANT_WITH_PREEMPTION),
                                  (deny, Verdict.DENY)):
            assert type(decision) is AdmissionDecision
            assert decision.verdict is verdict
            assert decision == AdmissionDecision(verdict, decision.victims)
            assert type(decision.victims) is tuple
            assert all(type(v) is int for v in decision.victims)
            with pytest.raises(AttributeError):
                decision.verdict = Verdict.GRANT
            with pytest.raises(AttributeError):
                decision.victims = ()
        assert grant.victims == () and deny.victims == ()
        assert preempt == AdmissionDecision(Verdict.GRANT_WITH_PREEMPTION, (100, 99))

    def test_decision_is_pure(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 100, first_id=1)
        before_alloc = list(state.topology.links["L1"].alloc)
        before_active = set(state.active_lsps)
        first = decide(state, PATH, 1, 10)
        second = decide(state, PATH, 1, 10)
        assert first == second
        assert list(state.topology.links["L1"].alloc) == before_alloc
        assert set(state.active_lsps) == before_active

    def test_verdicts_match_enumeration_on_random_states(self):
        rng = random.Random(20240917)
        for trial in range(120):
            demands = [rng.randint(1, 6) for _ in range(3)]
            cap = rng.randint(20, 50)
            bc0 = rng.randint(cap // 2, cap)
            bc1 = rng.randint(1, bc0)
            bc2 = rng.randint(1, bc1)
            state = single_link_state(Model.RDM, [bc0, bc1, bc2], cap, demands)
            next_id = 1
            for step in range(60):
                c = rng.randrange(3)
                d = demands[c]
                expected, _count = oracle_rdm_verdict(state, c, d)
                decision = decide(state, PATH, c, d)
                assert decision.verdict.value == expected, (
                    "trial %d step %d: class %d demand %d" % (trial, step, c, d)
                )
                if decision.verdict is Verdict.GRANT_WITH_PREEMPTION:
                    assert eviction_clears(state, decision.victims, c, d)
                    for v in decision.victims:
                        rest = tuple(x for x in decision.victims if x != v)
                        assert not eviction_clears(state, rest, c, d)
                        assert state.active_lsps[v].class_index < c
                    for v in decision.victims:
                        release(state, v, LspState.PREEMPTED)
                if decision.verdict is not Verdict.DENY:
                    admit(state, next_id, c, float(step))
                    next_id += 1
                if state.active_lsps and rng.random() < 0.3:
                    gone = rng.choice(list(state.active_lsps))
                    release(state, gone, LspState.COMPLETED)


class TestSelectVictims:
    def test_no_rows_means_no_victims(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        assert select_victims(state, []) == ()

    def test_unsatisfiable_row_raises(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        with pytest.raises(Infeasible):
            select_victims(state, [("L1", 1, 1, 10)])  # empty class range

    def test_deficit_beyond_available_raises(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 2, first_id=1)
        with pytest.raises(Infeasible):
            select_victims(state, [("L1", 0, 1, 50)])

    def test_single_forced_victim(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 3, first_id=1)
        assert select_victims(state, [("L1", 0, 1, 5)]) == (3,)

    def test_only_on_path_lsps_count(self):
        from bamsim import Lsp, NetworkState, Topology, TrafficClass

        topo = Topology()
        topo.add_host("A")
        topo.add_host("B")
        topo.add_host("C")
        topo.add_link("L1", "A", "B", 100)
        topo.add_link("L2", "B", "C", 100)
        topo.freeze()
        state = NetworkState(
            topo,
            [TrafficClass(10), TrafficClass(10)],
            BcConfig(Model.RDM, values_kbps=(100, 50)),
        )
        on_l2 = Lsp(id=1, class_index=0, demand_kbps=10, path=("L2",),
                    src_host="B", admit_time=0.0)
        commit(state, on_l2)
        on_l1 = Lsp(id=2, class_index=0, demand_kbps=10, path=("L1",),
                    src_host="A", admit_time=1.0)
        commit(state, on_l1)
        assert select_victims(state, [("L1", 0, 1, 10)]) == (2,)
        with pytest.raises(Infeasible):
            select_victims(state, [("L1", 0, 1, 20)])


def test_decide_dispatches_on_model():
    mam = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
    fill(mam, 0, 50, first_id=1)
    assert decide(mam, PATH, 0, 5).verdict is Verdict.DENY
    rdm = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
    fill(rdm, 0, 100, first_id=1)
    assert decide(rdm, PATH, 1, 10).verdict is Verdict.GRANT_WITH_PREEMPTION


class TestReconfigure:
    def test_hard_mam_evicts_newest_of_over_quota_class(self):
        state = single_link_state(Model.MAM, [300, 50, 100], 500, [5, 10, 20])
        lsps = fill(state, 0, 60, first_id=1)  # 300, ids 1..60
        out = reconfigure(state, BcConfig(Model.MAM, values_kbps=(250, 150, 100)), ReconfigMode.HARD)
        assert len(out) == 10
        assert sorted(l.id for l in out) == list(range(51, 61))
        assert sorted(out) == lsps[50:]  # the records retired, as committed
        assert sorted(state.active_lsps) == list(range(1, 51))
        assert state.topology.links["L1"].alloc[0] == 250
        assert state.counters.preempted[0] == 10
        assert state.bc_config.values_kbps == (250, 150, 100)
        assert state.pending_soft_bc is None

    def test_hard_rdm_clears_nested_overflows(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 80, first_id=1)   # 400
        fill(state, 1, 10, first_id=200)  # 100, total 500
        out = reconfigure(
            state, BcConfig(Model.RDM, values_kbps=(300, 250, 100)), ReconfigMode.HARD
        )
        # Only the topmost constraint shrank; 200 must go, newest class 0
        # borrowers first (class 1 holders are within their nested slice).
        assert sum(state.topology.links["L1"].alloc) <= 300
        assert all(l.class_index == 0 for l in out)
        assert len(out) == 40

    def test_hard_preserves_residents_within_new_limits(self):
        state = single_link_state(Model.MAM, [300, 50, 100], 500, [5, 10, 20])
        fill(state, 0, 30, first_id=1)  # 150, already under 250
        out = reconfigure(
            state, BcConfig(Model.MAM, values_kbps=(250, 150, 100)), ReconfigMode.HARD
        )
        assert out == []
        assert len(state.active_lsps) == 30

    def test_soft_never_preempts_and_withholds_raises(self):
        state = single_link_state(Model.MAM, [350, 50, 100], 500, [5, 10, 20])
        fill(state, 0, 62, first_id=1)   # 310 > the incoming 250
        fill(state, 1, 5, first_id=400)  # 50, class 1 partition full
        out = reconfigure(
            state, BcConfig(Model.MAM, values_kbps=(250, 150, 100)), ReconfigMode.SOFT
        )
        assert out == []
        assert state.counters.preempted == [0, 0, 0]
        assert state.pending_soft_bc is not None
        assert state.bc_config.values_kbps == (350, 50, 100)
        # Cuts bite immediately: class 0 is over the pending 250, so Deny.
        assert decide(state, PATH, 0, 5).verdict is Verdict.DENY
        # Raises wait: class 1 stays capped at the old 50 while draining.
        assert decide(state, PATH, 1, 10).verdict is Verdict.DENY

    def test_soft_promotes_once_attrition_clears_the_overflow(self):
        state = single_link_state(Model.MAM, [350, 50, 100], 500, [5, 10, 20])
        lsps = fill(state, 0, 62, first_id=1)  # 310
        reconfigure(
            state, BcConfig(Model.MAM, values_kbps=(250, 150, 100)), ReconfigMode.SOFT
        )
        for lsp in lsps[:11]:  # down to 255: still over
            release(state, lsp.id, LspState.COMPLETED)
            assert not promote_pending_if_clear(state)
        release(state, lsps[11].id, LspState.COMPLETED)  # 250: clear now
        assert promote_pending_if_clear(state)
        assert state.bc_config.values_kbps == (250, 150, 100)
        assert state.pending_soft_bc is None
        # The raise is live after promotion.
        assert decide(state, PATH, 1, 10).verdict is Verdict.GRANT

    def test_soft_promotes_immediately_when_nothing_violates(self):
        state = single_link_state(Model.MAM, [350, 50, 100], 500, [5, 10, 20])
        fill(state, 0, 10, first_id=1)  # 50, well under both vectors
        reconfigure(
            state, BcConfig(Model.MAM, values_kbps=(250, 150, 100)), ReconfigMode.SOFT
        )
        assert state.pending_soft_bc is None
        assert state.bc_config.values_kbps == (250, 150, 100)

    def test_rejects_model_change_and_bad_vectors(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        with pytest.raises(InvalidBc):
            reconfigure(state, BcConfig(Model.RDM, values_kbps=(250, 150, 100)), ReconfigMode.HARD)
        with pytest.raises(InvalidBc):
            reconfigure(state, BcConfig(Model.MAM, values_kbps=(250, 150)), ReconfigMode.HARD)
        with pytest.raises(InvalidBc):
            reconfigure(state, BcConfig(Model.MAM, values_kbps=(600, 150, 100)), ReconfigMode.HARD)


def test_reconfig_event_needs_exactly_one_trigger():
    config = BcConfig(Model.MAM, values_kbps=(250, 150, 100))
    ReconfigEvent(ReconfigMode.HARD, config, after_request=10)
    ReconfigEvent(ReconfigMode.SOFT, config, at_time=50.0)
    with pytest.raises(ValueError):
        ReconfigEvent(ReconfigMode.HARD, config)
    with pytest.raises(ValueError):
        ReconfigEvent(ReconfigMode.HARD, config, after_request=10, at_time=50.0)


def test_admission_rows_report_mam_denials_as_unsatisfiable():
    state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
    fill(state, 0, 50, first_id=1)
    rows = admission_rows(state, PATH, 0, 5)
    assert rows == [("L1", 0, 0, 5)]  # 250 + 5 against a 250 cap
    with pytest.raises(Infeasible):
        select_victims(state, rows)


def choose_victims_by_sort(state, rows):
    """Victim selection as it was before the per-class lists: sort every
    active LSP by (class, -admit_time, -id) and scan all of them.  Kept here
    as the reference the incremental order must reproduce."""
    if not rows:
        return []
    if any(lo >= hi for _lid, lo, hi, _d in rows):
        raise Infeasible("deficit with no eligible class")
    remaining = [list(r) for r in rows]
    candidates = sorted(
        state.active_lsps.values(),
        key=lambda l: (l.class_index, -(l.admit_time or 0.0), -l.id),
    )

    def serves(lsp, row):
        lid, lo, hi = row[0], row[1], row[2]
        return lo <= lsp.class_index < hi and lid in lsp.path

    chosen = []
    for lsp in candidates:
        if not any(row[3] > 0 and serves(lsp, row) for row in remaining):
            continue
        chosen.append(lsp)
        for row in remaining:
            if serves(lsp, row):
                row[3] -= lsp.demand_kbps
    if any(row[3] > 0 for row in remaining):
        raise Infeasible("eligible LSPs cannot cover the deficit")
    for i in range(len(chosen) - 1, -1, -1):
        trial = chosen[:i] + chosen[i + 1 :]
        deficits = [list(r) for r in rows]
        for lsp in trial:
            for row in deficits:
                if serves(lsp, row):
                    row[3] -= lsp.demand_kbps
        if all(row[3] <= 0 for row in deficits):
            del chosen[i]
    return chosen


SIX_LINKS = ("L1", "L2", "L3", "L4", "L5", "L6")


def six_link_rdm_state(rng):
    """Hosts A-D on a chain of switches S1-S3 with random capacities, three
    classes with random demands and a random RDM vector.  Returns the state
    and the route of every ordered host pair."""
    from bamsim import NetworkState, Topology, TrafficClass

    topo = Topology()
    for h in ("A", "B", "C", "D"):
        topo.add_host(h)
    for s in ("S1", "S2", "S3"):
        topo.add_switch(s)
    ends = [("A", "S1"), ("S1", "S2"), ("S2", "S3"), ("S3", "B"), ("C", "S2"), ("D", "S3")]
    caps = [rng.randint(30, 60) for _ in ends]
    for lid, (a, b), cap in zip(SIX_LINKS, ends, caps):
        topo.add_link(lid, a, b, cap)
    topo.freeze()
    paths = [topo.shortest_path(a, b) for a in "ABCD" for b in "ABCD" if a != b]
    demands = [rng.randint(1, 6) for _ in range(3)]
    classes = [TrafficClass(d) for d in demands]
    state = NetworkState(topo, classes, random_rdm(rng, min(caps)))
    return state, paths


def random_rdm(rng, cap):
    bc0 = rng.randint(cap // 2, cap)
    bc1 = rng.randint(1, bc0)
    return BcConfig(Model.RDM, values_kbps=(bc0, bc1, rng.randint(1, bc1)))


class TestVictimOrderMatchesTheSort:
    """The per-class newest-first walk picks exactly what sorting every
    active LSP picked, on multi-link RDM states built in random order."""

    @staticmethod
    def outcome(choose, state, rows):
        try:
            return tuple(l.id for l in choose(state, rows))
        except Infeasible:
            return "infeasible"

    def test_same_victims_or_same_infeasibility(self):
        from bamsim import CapacityViolation, Lsp

        rng = random.Random(4127)
        seen = {"victims": 0, "infeasible": 0, "reconfig_victims": 0,
                "single_row": 0, "multi_row": 0}

        def compare(state, rows, where):
            expected = self.outcome(choose_victims_by_sort, state, rows)
            assert self.outcome(_choose_victims, state, rows) == expected, where
            if expected == "infeasible":
                seen["infeasible"] += 1
            else:
                seen["victims"] += len(expected)
                seen["single_row"] += len(rows) == 1
                seen["multi_row"] += len(rows) > 1
            if len(rows) > 1:
                # Each row alone too, on the same state: the one-row cover
                # against the sort on the deficits the other calls draw.
                for row in rows:
                    alone = self.outcome(choose_victims_by_sort, state, [row])
                    assert self.outcome(_choose_victims, state, [row]) == alone, (where, row)
                    seen["single_row"] += alone != "infeasible"

        for trial in range(60):
            state, paths = six_link_rdm_state(rng)
            next_id = 1
            for step in range(80):
                action = rng.random()
                if action < 0.45:
                    c = rng.randrange(3)
                    # Ids rise but admit times are drawn from a coarse grid:
                    # out of order and often tied.
                    lsp = Lsp(id=next_id, class_index=c,
                              demand_kbps=state.classes[c].max_lsp_kbps,
                              path=rng.choice(paths), src_host="A",
                              admit_time=rng.randint(0, 8) * 0.5)
                    next_id += 1
                    try:
                        commit(state, lsp)
                    except CapacityViolation:
                        pass
                elif action < 0.6 and state.active_lsps:
                    gone = rng.choice(sorted(state.active_lsps))
                    release(state, gone, LspState.COMPLETED)
                elif action < 0.8:
                    c = rng.randrange(3)
                    rows = admission_rows(state, rng.choice(paths), c,
                                          state.classes[c].max_lsp_kbps)
                    compare(state, rows, (trial, step))
                elif action < 0.93:
                    rows = []
                    for _ in range(rng.randint(1, 3)):
                        lo = rng.randrange(3)
                        rows.append((rng.choice(SIX_LINKS), lo, rng.randint(lo, 3),
                                     rng.randint(1, 20)))
                    compare(state, rows, (trial, step))
                else:
                    config = random_rdm(rng, min(
                        link.capacity_kbps for link in state.topology.links.values()))
                    rows = reconfig_rows(state, config)
                    expected = self.outcome(choose_victims_by_sort, state, rows)
                    out = reconfigure(state, config, ReconfigMode.HARD)
                    assert tuple(l.id for l in out) == expected, (trial, step)
                    seen["reconfig_victims"] += len(out)
                # Forced commits ignore the constraints, so only the class
                # lists are checked here.
                _check_class_lists(state)
        # The comparison must have covered real evictions and refusals, and
        # feasible calls of both walks: the one-row cover, and the running
        # totals and prune that several rows share.
        assert seen["victims"] > 100 and seen["infeasible"] > 100
        assert seen["reconfig_victims"] > 100
        assert seen["single_row"] > 100 and seen["multi_row"] > 20

    # Hand-built cases of both walks, the one-row cover and the running
    # totals of several rows, and of their one-pass prune on hosts A-B-C, links L1 = A-B and L2 = B-C, two classes: the LSPs as
    # (id, class, demand, path) in admission order, the rows, and the
    # victims, which the sort must pick as well.
    CASES = {
        # Class 0 clears the (0, 2) row, then class 1 clears the (1, 2) row
        # and covers (0, 2) again, so both class-0 picks are dropped.
        "later_class_1_picks_make_class_0_redundant": (
            [(1, 0, 10, ("L1",)), (2, 0, 10, ("L1",)), (3, 1, 10, ("L1",)), (4, 1, 10, ("L1",))],
            [("L1", 1, 2, 20), ("L1", 0, 2, 20)], (4, 3)),
        # LSP 2 is picked for the L2 row and also charged to the L1 row that
        # LSP 3 already closed, which makes LSP 3 redundant.
        "pick_serves_a_closed_row": (
            [(1, 0, 10, ("L2",)), (2, 0, 10, ("L1", "L2")), (3, 0, 10, ("L1",))],
            [("L1", 0, 1, 10), ("L2", 0, 1, 20)], (2, 1)),
        # Every L2 LSP together holds 20 of the 30 the L2 row needs.
        "row_left_uncovered": (
            [(1, 0, 10, ("L2",)), (2, 0, 10, ("L1", "L2")), (3, 0, 10, ("L1",))],
            [("L1", 0, 1, 10), ("L2", 0, 1, 30)], "infeasible"),
        # One class-1 LSP over both links clears the L2 row and re-covers
        # the L1 row the class-0 pick had cleared.
        "rows_on_two_links_of_one_path": (
            [(1, 0, 10, ("L1",)), (2, 1, 10, ("L1", "L2"))],
            [("L1", 0, 2, 10), ("L2", 1, 2, 10)], (2,)),
        # One row: class 0 leaves 2 of the 12 open, so class 1's 10 is
        # taken; its 8 spare drop the older class-0 pick, not the newer.
        "one_row_prune_drops_a_middle_pick": (
            [(1, 0, 5, ("L1",)), (2, 0, 5, ("L1",)), (3, 1, 10, ("L1",))],
            [("L1", 0, 2, 12)], (2, 3)),
        "one_row_with_no_eligible_class": (
            [(1, 0, 10, ("L1",)), (2, 1, 10, ("L1",))],
            [("L1", 1, 1, 10)], "infeasible"),
        # LSP 2 does not cross L1, so 10 of the 20 stay uncovered.
        "one_row_left_uncovered": (
            [(1, 0, 10, ("L1",)), (2, 1, 10, ("L2",))],
            [("L1", 0, 2, 20)], "infeasible"),
        # The picks add up to the deficit exactly: none can be spared.  LSP
        # 3, the newest of class 0, does not cross L1 and is passed over.
        "one_row_covered_exactly": (
            [(1, 0, 10, ("L1",)), (2, 1, 10, ("L1",)), (3, 0, 10, ("L2",))],
            [("L1", 0, 2, 20)], (1, 2)),
    }

    def test_an_out_of_order_commit_re_sorts_its_class(self):
        # Commits older than their class's newest, one of them tied in time
        # with a higher id: the dict ends in (admit time, id) order, and the
        # walk takes the newest first, as the sort does.
        state = single_link_state(Model.RDM, (100, 50), 100, (10, 10))
        for lsp_id, when in ((1, 2.0), (2, 0.0), (5, 1.0), (4, 1.0)):
            admit(state, lsp_id, 0, when)
        assert list(state.active_by_class[0]) == [2, 4, 5, 1]
        _check_class_lists(state)
        rows = [("L1", 0, 1, 30)]
        assert self.outcome(choose_victims_by_sort, state, rows) == (1, 5, 4)
        assert self.outcome(_choose_victims, state, rows) == (1, 5, 4)

    @pytest.mark.parametrize("lsps, rows, victims", CASES.values(), ids=list(CASES))
    def test_hand_built_case(self, lsps, rows, victims):
        from bamsim import Lsp, NetworkState, Topology, TrafficClass

        topo = Topology()
        for h in ("A", "B", "C"):
            topo.add_host(h)
        topo.add_link("L1", "A", "B", 100)
        topo.add_link("L2", "B", "C", 100)
        topo.freeze()
        state = NetworkState(topo, [TrafficClass(10)] * 2, BcConfig(Model.RDM, values_kbps=(100, 50)))
        for t, (lsp_id, c, demand, path) in enumerate(lsps):
            commit(state, Lsp(lsp_id, c, demand, path, "A" if path[0] == "L1" else "B", float(t)))
        assert self.outcome(choose_victims_by_sort, state, rows) == victims
        assert self.outcome(_choose_victims, state, rows) == victims


# The admission checks as they were before the one-pass kernel and the
# resolved caps: each path link's vector resolved on every call, the fit
# tests and the rows written per model, and the verdict taken from the victim
# walk.  Kept here as the reference ``decide`` must reproduce.

def mam_fits_before(link, bc, class_index, demand_kbps):
    if sum(link.alloc) + demand_kbps > link.capacity_kbps:
        return False
    if bc is None:
        return True
    return link.alloc[class_index] + demand_kbps <= bc[class_index]


def rdm_fits_before(link, bc, class_index, demand_kbps):
    if sum(link.alloc) + demand_kbps > link.capacity_kbps:
        return False
    if bc is None:
        return True
    suffix = 0
    for k in range(len(bc) - 1, -1, -1):
        suffix += link.alloc[k]
        if k <= class_index and suffix + demand_kbps > bc[k]:
            return False
    return True


def admission_rows_before(state, path, class_index, demand_kbps):
    rows = []
    model = state.bc_config.model
    for link_id in path:
        link = state.topology.links[link_id]
        bc = admission_vector(state, link)
        if model is Model.MAM:
            # Nothing is evicted under MAM, so each breach is a row with an
            # empty class range, reported with its real deficit.
            over_cap = sum(link.alloc) + demand_kbps - link.capacity_kbps
            if over_cap > 0:
                rows.append((link_id, 0, 0, over_cap))
            over_bc = 0 if bc is None else link.alloc[class_index] + demand_kbps - bc[class_index]
            if over_bc > 0:
                rows.append((link_id, class_index, class_index, over_bc))
            continue
        over_cap = sum(link.alloc) + demand_kbps - link.capacity_kbps
        if over_cap > 0 and (bc is None or bc[0] > link.capacity_kbps):
            rows.append((link_id, 0, class_index, over_cap))
        if bc is None:
            continue
        suffix = 0
        for b in range(len(bc) - 1, -1, -1):
            suffix += link.alloc[b]
            if b > class_index:
                continue
            deficit = suffix + demand_kbps - bc[b]
            if deficit > 0:
                rows.append((link_id, b, class_index, deficit))
    return rows


def admission_view_before(state, link, class_index):
    """(lo, hi, cap) of each constraint admission holds a class to on one
    link, from the vector: the capacity, and the rows of the vector that
    hold the class, the smaller cap where two cover the same classes."""
    n = state.n_classes
    spans = {(0, n): link.capacity_kbps}
    for i, value in enumerate(admission_vector(state, link) or ()):
        span = (i, n) if state.bc_config.model is Model.RDM else (i, i + 1)
        spans[span] = min(value, spans.get(span, value))
    return sorted((lo, hi, cap) for (lo, hi), cap in spans.items() if lo <= class_index < hi)


def undominated(rows):
    """Per link and class range, the row with the largest deficit: where the
    vector gives a constraint 0 above capacity, the table holds the
    capacity row alone, so the constraint's smaller row is not reported."""
    worst = {}
    for lid, lo, hi, deficit in rows:
        worst[(lid, lo, hi)] = max(deficit, worst.get((lid, lo, hi), deficit))
    return [key + (deficit,) for key, deficit in worst.items()]


def decide_before(state, path, class_index, demand_kbps):
    links = state.topology.links
    if state.bc_config.model is Model.MAM:
        for link_id in path:
            link = links[link_id]
            if not mam_fits_before(link, admission_vector(state, link), class_index, demand_kbps):
                return "Deny", ()
        return "Grant", ()
    if all(rdm_fits_before(links[lid], admission_vector(state, links[lid]), class_index,
                           demand_kbps) for lid in path):
        return "Grant", ()
    rows = admission_rows_before(state, path, class_index, demand_kbps)
    try:
        return "GrantWithPreemption", select_victims(state, rows)
    except Infeasible:
        return "Deny", ()


def random_admission_config(rng, model, links):
    """Absolute or percent vector, on every link or on a random subset.
    Absolute values may exceed a link's capacity, so capacity rows appear
    beside constraint rows."""
    top = max(link.capacity_kbps for link in links.values()) + 10
    percent = rng.random() < 0.3
    if percent:
        raw = [round(rng.uniform(0, 100), 1) for _ in range(3)]
    else:
        raw = [rng.randint(0, top) for _ in range(3)]
    if model is Model.RDM:
        raw.sort(reverse=True)
    scope = None
    if rng.random() < 0.6:
        scope = frozenset(rng.sample(sorted(links), rng.randint(0, 3)))
    vector = {"percents" if percent else "values_kbps": tuple(raw)}
    return BcConfig(model, applies_to=scope, **vector)


class TestDecideMatchesTheFitChecks:
    """``decide`` over the one-pass kernel and the resolved caps gives the
    verdict and the victims that the per-model fit checks and the victim
    walk gave, on multi-link MAM and RDM states built at random: percent and
    partial-scope configs, pending soft configs, configs swapped by direct
    assignment, and constraints above capacity.  Hard and soft
    reconfigurations and promotions change the tables of the same state
    object too, so every cached plan is checked after every kind of change;
    each of those steps must leave the ledger where the inequalities say."""

    def test_same_verdicts_victims_and_rows(self):
        from bamsim import CapacityViolation, Lsp

        rng = random.Random(4125)
        seen = Counter()
        for trial in range(250):
            state, paths = six_link_rdm_state(rng)
            links = state.topology.links
            model = rng.choice([Model.MAM, Model.RDM, Model.RDM])
            state.bc_config = random_admission_config(rng, model, links)
            next_id = 1
            for step in range(60):
                action = rng.random()
                if action < 0.4:
                    # A burst of one class on one path, so that the classes
                    # a victim walk may not touch can fill a link.
                    c, path = rng.randrange(3), rng.choice(paths)
                    for _ in range(rng.randint(1, 6)):
                        lsp = Lsp(id=next_id, class_index=c,
                                  demand_kbps=state.classes[c].max_lsp_kbps,
                                  path=path, src_host="A",
                                  admit_time=float(step))
                        next_id += 1
                        try:
                            commit(state, lsp)
                        except CapacityViolation:
                            break
                elif action < 0.5 and state.active_lsps:
                    release(state, rng.choice(sorted(state.active_lsps)), LspState.COMPLETED)
                elif action < 0.58:
                    state.pending_soft_bc = rng.choice(
                        [None, random_admission_config(rng, model, links)])
                elif action < 0.62:
                    state.bc_config = random_admission_config(rng, model, links)
                elif action < 0.7:
                    config = random_admission_config(rng, model, links)
                    mode = rng.choice([ReconfigMode.HARD, ReconfigMode.SOFT])
                    try:
                        preempted = reconfigure(state, config, mode)
                    except InvalidBc:
                        continue  # a constraint above some link's capacity
                    seen[mode.value] += 1
                    seen["reconfig preemptions"] += len(preempted)
                    where = (trial, step, mode, config)
                    if state.pending_soft_bc is None:
                        assert oracle_constraint_verdict(state, config) == "pass", where
                    else:
                        assert oracle_constraint_verdict(state, config) != "pass", where
                elif action < 0.74:
                    pending = state.pending_soft_bc
                    promoted = promote_pending_if_clear(state)
                    seen["promoted" if promoted else "held"] += pending is not None
                    if pending is not None:
                        verdict = oracle_constraint_verdict(state, pending)
                        assert promoted == (verdict == "pass"), (trial, step, verdict)
                        assert state.pending_soft_bc is (None if promoted else pending)
                else:
                    path = rng.choice(paths)
                    c = rng.choice([0, 1, 2, 2])
                    d = state.classes[c].max_lsp_kbps if rng.random() < 0.7 else rng.randint(1, 12)
                    where = (trial, step, path, c, d)
                    expected = decide_before(state, path, c, d)
                    plans = state.tables().admission[c]
                    kept = plans.binding
                    decision = decide(state, path, c, d)
                    assert (decision.verdict.value, decision.victims) == expected, where
                    seen[expected[0]] += 1
                    if kept is not None:
                        # The row that denied last answers while it lies on
                        # the path and still breaches; otherwise it is stale.
                        link_id, alloc, held, _lo, _top, cap = kept
                        if link_id in path and held(alloc) + d > cap:
                            assert expected[0] == "Deny" and plans.binding is kept, where
                            seen["remembered"] += 1
                        else:
                            seen["stale"] += 1
                    view = state.tables().admission[c].table
                    for lid in path:
                        link = links[lid]
                        bc = admission_vector(state, link)
                        assert sorted(r[1:4] for r in view[lid]) == admission_view_before(
                            state, link, c), where
                        if (model is Model.RDM and sum(link.alloc) + d > link.capacity_kbps
                                and (bc is None or bc[0] > link.capacity_kbps)):
                            seen["capacity rows"] += 1
                    old = admission_rows_before(state, path, c, d)
                    rows = admission_rows(state, path, c, d)
                    assert not Counter(rows) - Counter(old), where
                    if any(lo >= hi for _lid, lo, hi, _d in old):
                        # The kernel stops at the first row no victim can serve.
                        assert rows[-1][1] >= rows[-1][2], where
                        assert all(r[1] < r[2] for r in rows[:-1]), where
                        seen["blocked"] += 1
                    else:
                        # The one difference the table may make: a row
                        # dominated by a larger one of the same link and class
                        # range, a constraint 0 above capacity, is dropped.
                        assert sorted(rows) == sorted(undominated(old)), where
                        seen["dominated rows"] += len(old) - len(rows)
                        if rows:
                            seen["walk " + expected[0]] += 1
        # Every verdict, and rows of every kind, must have come up.
        assert min(seen["Grant"], seen["GrantWithPreemption"], seen["blocked"]) > 200, seen
        assert seen["walk Deny"] > 20 and seen["capacity rows"] > 500, seen
        assert seen["dominated rows"] > 5, seen
        assert seen["remembered"] > 100 and seen["stale"] > 100, seen
        # Every way the tables change must have come up.
        assert min(seen["hard"], seen["soft"], seen["promoted"], seen["held"]) > 50, seen
        assert seen["reconfig preemptions"] > 50, seen


class TestConstraintVerdictsMatchTheInequalities:
    """``check_state`` passes or raises, with the same message, exactly where
    ``oracle_constraint_verdict`` (written from the inequalities) says, and
    ``promote_pending_if_clear`` promotes exactly when the oracle accepts
    the ledger under the pending config.  Ledgers are forced past their
    constraints on six links, under MAM and RDM, absolute and percent
    vectors, partial scopes and constraints above capacity."""

    @staticmethod
    def verdict(state):
        try:
            check_state(state)
        except InvariantViolation as exc:
            return str(exc)
        return "pass"

    @staticmethod
    def inflate(state, rng):
        """Grow one LSP's demand and its ledger entries together, so the
        registry recount still holds while a link may pass its capacity."""
        lsp = state.active_lsps[rng.choice(sorted(state.active_lsps))]
        extra = rng.randint(1, 30)
        replace_lsp(state, lsp.id, demand_kbps=lsp.demand_kbps + extra)
        for lid in lsp.path:
            state.topology.links[lid].alloc[lsp.class_index] += extra

    def test_same_verdicts_messages_and_promotions(self):
        from bamsim import CapacityViolation, Lsp

        rng = random.Random(4124)
        seen = Counter()
        for trial in range(150):
            state, paths = six_link_rdm_state(rng)
            links = state.topology.links
            model = rng.choice([Model.MAM, Model.RDM])
            state.bc_config = random_admission_config(rng, model, links)
            next_id = 1
            for step in range(40):
                action = rng.random()
                if action < 0.5:
                    # Committed past admission control: only capacity holds.
                    c = rng.randrange(3)
                    lsp = Lsp(id=next_id, class_index=c,
                              demand_kbps=state.classes[c].max_lsp_kbps,
                              path=rng.choice(paths), src_host="A",
                              admit_time=float(step))
                    next_id += 1
                    try:
                        commit(state, lsp)
                    except CapacityViolation:
                        continue
                    state.counters.requested[c] += 1
                elif action < 0.65 and state.active_lsps:
                    release(state, rng.choice(sorted(state.active_lsps)), LspState.COMPLETED)
                elif action < 0.7 and state.active_lsps:
                    self.inflate(state, rng)
                elif action < 0.8:
                    state.bc_config = random_admission_config(rng, model, links)
                else:
                    pending = random_admission_config(rng, model, links)
                    state.pending_soft_bc = pending
                    clear = oracle_constraint_verdict(state, pending) == "pass"
                    assert promote_pending_if_clear(state) is clear, (trial, step)
                    assert state.bc_config is pending if clear else state.pending_soft_bc is pending
                    seen["promoted" if clear else "held"] += 1
                expected = oracle_constraint_verdict(state, state.bc_config)
                assert self.verdict(state) == expected, (trial, step)
                form = next((f for f in ("over capacity", "class", "nested") if f in expected),
                            expected)
                seen[form] += 1
        # Every verdict must have come up, and both promotion outcomes.
        assert min(seen["pass"], seen["class"], seen["nested"]) > 200, seen
        assert seen["over capacity"] > 20, seen
        assert min(seen["promoted"], seen["held"]) > 100, seen


def test_unservable_row_denies_without_the_victim_walk(monkeypatch):
    import bamsim.bam as bam_module

    walks = []
    real = bam_module.select_victims
    monkeypatch.setattr(bam_module, "select_victims",
                        lambda state, rows: walks.append(rows) or real(state, rows))
    state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
    fill(state, 2, 5, first_id=1)  # constraint 2 full of class 2 itself
    assert decide(state, PATH, 2, 20).verdict is Verdict.DENY
    assert walks == []
    fill(state, 0, 80, first_id=100)  # 400 + 100: the link is full
    assert decide(state, PATH, 1, 10).verdict is Verdict.GRANT_WITH_PREEMPTION
    assert walks == [[("L1", 0, 1, 10)]]
    # Rows only lower classes may serve, but they hold too little: the walk
    # runs and finds no victim set.
    state.bc_config = BcConfig(Model.RDM, values_kbps=(500, 250, 100), applies_to=frozenset())
    assert decide(state, PATH, 2, 420).verdict is Verdict.DENY
    assert walks[1:] == [[("L1", 0, 2, 420)]]


def test_admission_caps_follow_every_config_change():
    """The tables are keyed on the identity of the current and the pending
    config, so each way of changing either one is seen."""
    state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
    fill(state, 0, 50, first_id=1)  # 250
    class_1 = fill(state, 1, 10, first_id=100)  # 100
    assert mam_admission_caps(state) == (250, 150, 100)
    assert decide(state, PATH, 0, 5).verdict is Verdict.DENY
    # Direct assignment.
    state.bc_config = BcConfig(Model.MAM, values_kbps=(300, 150, 100))
    assert mam_admission_caps(state) == (300, 150, 100)
    assert decide(state, PATH, 0, 5).verdict is Verdict.GRANT
    # Hard reconfiguration: ten class 0 LSPs go, the cut applies at once.
    assert len(reconfigure(state, BcConfig(Model.MAM, values_kbps=(200, 150, 100)),
                           ReconfigMode.HARD)) == 10
    assert mam_admission_caps(state) == (200, 150, 100)
    assert decide(state, PATH, 0, 5).verdict is Verdict.DENY
    assert decide(state, PATH, 1, 10).verdict is Verdict.GRANT
    # Pending soft reconfiguration: class 1 holds 100 > 90, so it drains.
    reconfigure(state, BcConfig(Model.MAM, values_kbps=(300, 90, 100)), ReconfigMode.SOFT)
    assert state.pending_soft_bc is not None
    assert mam_admission_caps(state) == (200, 90, 100)
    assert decide(state, PATH, 1, 10).verdict is Verdict.DENY
    assert decide(state, PATH, 0, 5).verdict is Verdict.DENY
    # Promotion once one class 1 LSP leaves: the raise is live.
    release(state, class_1[0].id, LspState.COMPLETED)
    assert promote_pending_if_clear(state)
    assert mam_admission_caps(state) == (300, 90, 100)
    assert decide(state, PATH, 0, 5).verdict is Verdict.GRANT
    assert decide(state, PATH, 1, 10).verdict is Verdict.DENY
    # Clearing the pending config by assignment.
    state.pending_soft_bc = BcConfig(Model.MAM, values_kbps=(0, 0, 0))
    assert decide(state, PATH, 0, 5).verdict is Verdict.DENY
    state.pending_soft_bc = None
    assert decide(state, PATH, 0, 5).verdict is Verdict.GRANT


TWO_LINKS = ("LA", "LB")


def two_link_state(model, bc):
    """Hosts A and B joined through switch S by LA (A-S) and LB (S-B), each
    of 100 kbps, under three classes of 5, 10 and 20 kbps."""
    from bamsim import NetworkState, Topology, TrafficClass

    topo = Topology()
    topo.add_host("A")
    topo.add_host("B")
    topo.add_switch("S")
    topo.add_link("LA", "A", "S", 100)
    topo.add_link("LB", "S", "B", 100)
    topo.freeze()
    classes = [TrafficClass(5), TrafficClass(10), TrafficClass(20)]
    return NetworkState(topo, classes, BcConfig(model, values_kbps=bc))


def binding(state, class_index):
    """The plan row the class's admission plans remember, or None."""
    return state.tables().admission[class_index].binding


def decided(state, path, class_index, demand_kbps):
    """``decide``'s verdict and victims, checked against the fit checks."""
    decision = decide(state, path, class_index, demand_kbps)
    expected = decide_before(state, path, class_index, demand_kbps)
    assert (decision.verdict.value, decision.victims) == expected
    return expected


class TestRememberedDenyRow:
    """``decide`` keeps the row that denied last on the class's admission
    plans and denies from it while it lies on the path and still breaches.
    Every verdict here is the one the fit checks give."""

    @pytest.mark.parametrize("model", [Model.MAM, Model.RDM])
    def test_releases_on_the_binding_link_until_the_request_fits(self, model):
        state = two_link_state(model, (50, 30, 20))
        held = fill(state, 0, 10, first_id=1, path=("LA",))  # 50 of 50
        assert decided(state, TWO_LINKS, 0, 12) == ("Deny", ())
        verdicts = []
        for lsp in held[:3]:
            release(state, lsp.id, LspState.COMPLETED)
            verdicts.append(decided(state, TWO_LINKS, 0, 12)[0])
        assert verdicts == ["Deny", "Deny", "Grant"]  # 45 + 12, 40 + 12, 35 + 12

    @pytest.mark.parametrize("model", [Model.MAM, Model.RDM])
    def test_a_breach_on_another_link_of_the_path_still_denies(self, model):
        state = two_link_state(model, (50, 30, 20))
        on_a = fill(state, 0, 10, first_id=1, path=("LA",))
        on_b = fill(state, 0, 10, first_id=100, path=("LB",))
        assert decided(state, TWO_LINKS, 0, 5) == ("Deny", ())
        assert binding(state, 0)[0] == "LA"  # the first breach on the path
        release(state, on_a[0].id, LspState.COMPLETED)
        assert decided(state, TWO_LINKS, 0, 5) == ("Deny", ())
        assert binding(state, 0)[0] == "LB"
        assert decided(state, ("LA",), 0, 5) == ("Grant", ())  # LB is off this path
        assert binding(state, 0) is None
        release(state, on_b[0].id, LspState.COMPLETED)
        assert decided(state, TWO_LINKS, 0, 5) == ("Grant", ())

    def test_a_servable_breach_before_the_denying_row_is_not_remembered(self):
        state = two_link_state(Model.RDM, (100, 50, 20))
        fill(state, 0, 20, first_id=1, path=("LA",))  # 100 of LA's 100: class 0 may be evicted
        on_b = fill(state, 1, 5, first_id=100, path=("LB",))  # 50 of LB's 50 for classes 1 and up
        assert decided(state, TWO_LINKS, 1, 10) == ("Deny", ())
        link_id, _alloc, _held, lo, top, _cap = binding(state, 1)
        assert (link_id, lo, top) == ("LB", 1, 1)
        release(state, on_b[0].id, LspState.COMPLETED)
        assert decided(state, TWO_LINKS, 1, 10) == ("GrantWithPreemption", (20, 19))

    def test_a_class_0_deny_does_not_deny_a_higher_class(self):
        state = two_link_state(Model.RDM, (100, 50, 20))
        fill(state, 0, 20, first_id=1, path=TWO_LINKS)  # both links full of class 0
        assert decided(state, TWO_LINKS, 0, 5) == ("Deny", ())
        verdict, victims = decided(state, TWO_LINKS, 2, 20)
        assert (verdict, victims) == ("GrantWithPreemption", (20, 19, 18, 17))

    @pytest.mark.parametrize("model", [Model.MAM, Model.RDM])
    @pytest.mark.parametrize("change", ["hard", "soft", "promotion", "assignment"])
    def test_every_config_change_that_raises_the_cap_grants(self, model, change):
        state = two_link_state(model, (70, 20, 10))
        fill(state, 0, 14, first_id=1, path=("LA",))  # class 0 holds 70 on LA
        class_1 = fill(state, 1, 1, first_id=100, path=("LB",))  # class 1 holds 10 on LB
        raised = BcConfig(model, values_kbps=(90, 20, 10))
        if change == "promotion":
            # A pending raise that also cuts class 1 below its 10 on LB waits;
            # meanwhile the tighter of both configs still denies.
            reconfigure(state, BcConfig(model, values_kbps=(90, 5, 5)), ReconfigMode.SOFT)
            assert state.pending_soft_bc is not None
        assert decided(state, TWO_LINKS, 0, 5) == ("Deny", ())  # 70 + 5 on LA
        if change == "hard":
            assert reconfigure(state, raised, ReconfigMode.HARD) == []
        elif change == "soft":
            assert reconfigure(state, raised, ReconfigMode.SOFT) == []
            assert state.bc_config is raised  # nothing breaches it: promoted at once
        elif change == "promotion":
            release(state, class_1[0].id, LspState.COMPLETED)
            assert promote_pending_if_clear(state)
        else:
            state.bc_config = raised
        assert decided(state, TWO_LINKS, 0, 5) == ("Grant", ())

    @pytest.mark.parametrize("model", [Model.MAM, Model.RDM])
    def test_a_repeated_deny_makes_no_pass_over_the_plan(self, monkeypatch, model):
        import bamsim.bam as bam_module

        passes = []
        real = bam_module._deficit_rows
        monkeypatch.setattr(bam_module, "_deficit_rows",
                            lambda plan, demand: passes.append(demand) or real(plan, demand))
        state = two_link_state(model, (50, 30, 20))
        fill(state, 0, 10, first_id=1, path=("LA",))
        assert decide(state, TWO_LINKS, 0, 5).verdict is Verdict.DENY
        assert passes == [5]
        for demand in (5, 5, 1, 30):
            assert decide(state, TWO_LINKS, 0, demand).verdict is Verdict.DENY
        assert passes == [5]


def check_fabric_by_rebuild(state, fabric):
    """check_fabric as it was before the per-call route memo and the
    one-pass owner-index check: two slot -> owner maps compared whole, a
    Counter of rules per owner, and a path walk for every active LSP.  Kept
    here as the reference the cheaper check must agree with."""
    rules = fabric._rules
    owner_of = {slot: rule.owner for slot, rule in rules.items()}
    indexed = {slot: owner for owner, slots in fabric._by_owner.items() for slot in slots}
    if indexed != owner_of or sum(map(len, fabric._by_owner.values())) != len(rules):
        raise InvariantViolation("fabric owner index disagrees with the rule table")
    per_owner = Counter(owner_of.values())
    for owner in per_owner:
        if owner not in state.active_lsps:
            raise InvariantViolation("rule owner %d is not an active LSP" % owner)
    for lsp in state.active_lsps.values():
        expected = len(state.topology.switches_on(lsp.path, lsp.src_host))
        if per_owner[lsp.id] != expected:
            raise InvariantViolation(
                "LSP %d holds %d rules, path has %d switches"
                % (lsp.id, per_owner[lsp.id], expected)
            )


def check_class_lists_by_sort(state):
    """_check_class_lists as it was: rebuild every class's (id, LSP) items
    from the registry, sort them by (admit time, id), and compare them with
    each class dict's items in order.  Kept here as the reference."""
    expected = [[] for _ in state.classes]
    for lsp in state.active_lsps.values():
        expected[lsp.class_index].append((lsp.id, lsp))
    for items in expected:
        items.sort(key=lambda item: (item[1].admit_time, item[0]))
    if [list(entries.items()) for entries in state.active_by_class] != expected:
        raise InvariantViolation("class lists disagree with the active registry")


def _owned_slots(fabric, rng):
    owners = sorted(o for o, slots in fabric._by_owner.items() if slots)
    return (owners, fabric._by_owner[rng.choice(owners)]) if owners else (owners, None)


def _drop_rule(state, fabric, rng):
    _owners, slots = _owned_slots(fabric, rng)
    if slots:
        del fabric._rules[slots.pop(rng.randrange(len(slots)))]


def _lose_rule(state, fabric, rng):
    if fabric._rules:
        del fabric._rules[rng.choice(sorted(fabric._rules))]


def _lose_slot(state, fabric, rng):
    _owners, slots = _owned_slots(fabric, rng)
    if slots:
        slots.pop(rng.randrange(len(slots)))


def _duplicate_rule(state, fabric, rng):
    """An extra, consistently indexed rule on a switch off the LSP's path."""
    for owner in rng.sample(sorted(state.active_lsps), len(state.active_lsps)):
        lsp = state.active_lsps[owner]
        off_path = sorted(set(state.topology.switches) - set(
            state.topology.switches_on(lsp.path, lsp.src_host)))
        if off_path:
            match = fabric.owner_rules(owner)[0].match
            plant(fabric, FlowRule(rng.choice(off_path), match, 1, lsp.demand_kbps, owner))
            return


def _duplicate_slot(state, fabric, rng):
    _owners, slots = _owned_slots(fabric, rng)
    if slots:
        slots.append(rng.choice(slots))


def _overwrite_slot(state, fabric, rng):
    """Same index length, one slot listed twice and one rule unlisted."""
    owners = [o for o, slots in fabric._by_owner.items() if len(slots) > 1]
    if owners:
        slots = fabric._by_owner[rng.choice(owners)]
        slots[0] = slots[1]


def _empty_owner_entry(state, fabric, rng):
    """An owner key with no slots: the rebuild never sees it, so it passes."""
    fabric._by_owner[max(fabric._by_owner, default=0) + 1] = []


def _move_slot(state, fabric, rng):
    owners, slots = _owned_slots(fabric, rng)
    if slots:
        slot = slots.pop(rng.randrange(len(slots)))
        fabric._by_owner.setdefault(rng.choice(owners + [max(owners) + 1]), []).append(slot)


def _reorder_slots(state, fabric, rng):
    _owners, slots = _owned_slots(fabric, rng)
    if slots:
        slots.reverse()


def _orphan_rules(state, fabric, rng):
    if state.active_lsps:
        release(state, rng.choice(sorted(state.active_lsps)), LspState.COMPLETED)


def _class_entries(state, rng):
    filled = [entries for entries in state.active_by_class if entries]
    return rng.choice(filled) if filled else None


def _refile(entries, items):
    """Make the class dict ``entries`` hold ``items``, in that order."""
    entries.clear()
    entries.update(items)


def _file_by_age(entries, lsp_id, lsp):
    """File ``lsp`` under ``lsp_id`` in ``entries`` at its place in
    (admit time, id) order."""
    _refile(entries, sorted([*entries.items(), (lsp_id, lsp)], key=lambda item: (item[1].admit_time, item[0])))


def _swap(entries, i):
    items = list(entries.items())
    items[i], items[i + 1] = items[i + 1], items[i]
    _refile(entries, items)


def _drop_entry(state, fabric, rng):
    entries = _class_entries(state, rng)
    if entries:
        del entries[rng.choice(list(entries))]


def _duplicate_entry(state, fabric, rng):
    """An LSP filed a second time, next to itself, under an id no LSP has."""
    entries = _class_entries(state, rng)
    if entries:
        items = list(entries.items())
        i = rng.randrange(len(items))
        items.insert(i, (max(state.active_lsps) + 1, items[i][1]))
        _refile(entries, items)


def _move_entry_to_other_class(state, fabric, rng):
    entries = _class_entries(state, rng)
    if entries:
        lsp_id = rng.choice(list(entries))
        others = [e for e in state.active_by_class if e is not entries]
        _file_by_age(rng.choice(others), lsp_id, entries.pop(lsp_id))


def _swap_entries(state, fabric, rng):
    entries = _class_entries(state, rng)
    if entries and len(entries) > 1:
        _swap(entries, rng.randrange(len(entries) - 1))


def _swap_tied_entries(state, fabric, rng):
    """Two neighbours with the same admit time, out of id order."""
    tied = []
    for entries in state.active_by_class:
        lsps = list(entries.values())
        tied += [(entries, i) for i in range(len(lsps) - 1) if lsps[i].admit_time == lsps[i + 1].admit_time]
    if tied:
        _swap(*rng.choice(tied))


def _move_admit_time(state, fabric, rng):
    """An LSP's record replaced by one with another admit time, at the place
    the old one held in its class dict."""
    if state.active_lsps:
        lsp = state.active_lsps[rng.choice(sorted(state.active_lsps))]
        replace_lsp(state, lsp.id, admit_time=rng.choice([lsp.admit_time, 0.0, lsp.admit_time + 0.5, 99.0]))


def _keep_retired_entry(state, fabric, rng):
    entries = _class_entries(state, rng)
    if entries:
        lsp_id = rng.choice(list(entries))
        _file_by_age(entries, lsp_id, release(state, lsp_id, LspState.COMPLETED))


def _rekey_lsp(state, fabric, rng):
    """An LSP filed, in the registry and its class dict, under another id."""
    entries = _class_entries(state, rng)
    if entries:
        lsp_id = rng.choice(list(entries))
        lsp = entries.pop(lsp_id)
        new_id = max(state.active_lsps) + 1
        state.active_lsps[new_id] = state.active_lsps.pop(lsp_id)
        _file_by_age(entries, new_id, lsp)


def _copy_entry_lsp(state, fabric, rng):
    """An equal copy of the registry's LSP: the rebuild compares entries by
    value, so this passes both checks."""
    entries = _class_entries(state, rng)
    if entries:
        lsp_id = rng.choice(list(entries))
        entries[lsp_id] = entries[lsp_id]._replace()


CORRUPTIONS = [
    None,
    # rule table and owner index
    _drop_rule, _lose_rule, _lose_slot, _duplicate_rule, _duplicate_slot, _overwrite_slot,
    _empty_owner_entry, _move_slot, _reorder_slots, _orphan_rules,
    # class lists
    _drop_entry, _duplicate_entry, _move_entry_to_other_class, _swap_entries, _swap_tied_entries,
    _move_admit_time,
    _keep_retired_entry, _rekey_lsp, _copy_entry_lsp,
]


class TestChecksMatchTheRebuild:
    """check_fabric and _check_class_lists pass or raise, with the same
    message, exactly where the rebuild-and-compare checks do.  The states
    come from a controller driven at random over routes of one to three
    switches, under MAM or RDM with hard and soft reconfigurations, and then
    get at most one corruption of the rule table, the owner index or the
    class lists."""

    @staticmethod
    def verdict(check, *args):
        try:
            check(*args)
        except InvariantViolation as exc:
            return str(exc)
        return "pass"

    @staticmethod
    def random_config(rng, model, cap):
        if model is Model.RDM:
            return random_rdm(rng, cap)
        return BcConfig(Model.MAM, values_kbps=tuple(rng.randint(1, cap) for _ in range(3)))

    def random_run(self, rng, steps):
        state, _paths = six_link_rdm_state(rng)
        cap = min(link.capacity_kbps for link in state.topology.links.values())
        model = rng.choice([Model.MAM, Model.RDM])
        state.bc_config = self.random_config(rng, model, cap)
        fabric = Fabric(state.topology)
        ports = [(30000 + 1000 * c, 30999 + 1000 * c, c) for c in range(3)]
        controller = Controller(state, fabric, Classifier.for_state(state, ports))
        ips = state.topology.hosts
        now = 0.0
        for lsp_id in range(1, steps + 1):
            now += rng.choice([0.0, 0.5, 1.0])  # ties in admit time
            action = rng.random()
            if action < 0.6:
                src, dst = rng.sample("ABCD", 2)
                c = rng.randrange(3)
                controller.handle_request(LspRequest(
                    lsp_id, now, ips[src], ips[dst], 20000 + lsp_id, 30000 + 1000 * c + lsp_id))
            elif action < 0.9 and state.active_lsps:
                controller.handle_expiry(rng.choice(sorted(state.active_lsps)), now)
            else:
                mode = rng.choice([ReconfigMode.HARD, ReconfigMode.SOFT])
                config = self.random_config(rng, model, cap)
                controller.apply_reconfig(ReconfigEvent(mode, config, at_time=now), now)
        return state, fabric

    def test_same_verdicts_and_messages_as_the_rebuild(self):
        rng = random.Random(4126)
        raised = {"fabric": 0, "lists": 0}
        for trial in range(300):
            state, fabric = self.random_run(rng, rng.randint(5, 40))
            corrupt = rng.choice(CORRUPTIONS)
            if corrupt is not None:
                corrupt(state, fabric, rng)
            where = (trial, corrupt and corrupt.__name__)
            expected = self.verdict(check_fabric_by_rebuild, state, fabric)
            assert self.verdict(check_fabric, state, fabric) == expected, where
            raised["fabric"] += expected != "pass"
            expected = self.verdict(check_class_lists_by_sort, state)
            assert self.verdict(_check_class_lists, state) == expected, where
            raised["lists"] += expected != "pass"
        # Both checks must have seen real violations, and passes too.
        assert 50 < raised["fabric"] < 250 and 50 < raised["lists"] < 250, raised


BUNDLED = ("exp1_mam", "exp1_rdm", "exp2_hard", "exp2_soft")


class _Corrupted(Exception):
    """Ends a run once its state has been corrupted and checked."""


def check_all_in_full(state, fabric):
    """What ``check_all`` must say: the full state check, then the full
    fabric check.  Both are pure, so they may run before it on the same
    objects."""
    verdict = TestChecksMatchTheRebuild.verdict
    expected = verdict(_check_state_in_full, state)
    return expected if expected != "pass" else verdict(_check_fabric_in_full, state, fabric)


class TestShadowInTheLoop:
    """``check_all`` keeps a shadow of what its last passing call verified
    and applies only the LSPs added and removed since.  Inside bundled runs
    checked after every event, corrupt the state after event k: the next
    lone ``check_fabric`` and ``check_state`` (and ``_check_class_lists``),
    which run in full, must give the verdicts and messages of the
    rebuild-and-compare oracles.  Each trial runs twice: once with the lone
    checks meeting the corruption, and once with ``check_all`` meeting it
    first, through its shadow, and giving the verdict of the full checks.
    Each scenario runs five trials at each of two seeds, and the four
    scenarios together apply every entry of ``CORRUPTIONS`` twice."""

    TRIALS = 5

    @pytest.mark.parametrize("name", BUNDLED)
    def test_verdicts_after_a_corruption_inside_the_loop(self, name):
        from bamsim import scenario

        verdict = TestChecksMatchTheRebuild.verdict
        outcomes = Counter()
        for trial, all_first in itertools.product(range(2 * self.TRIALS), (False, True)):
            seed = (3, 11)[trial % 2]
            rng = random.Random("%s/%d" % (name, trial))
            corrupt = CORRUPTIONS[(BUNDLED.index(name) * 2 * self.TRIALS + trial) % len(CORRUPTIONS)]
            k = rng.randint(1, 600)
            seen = []

            def hook(kind, state, fabric):
                check_all(state, fabric)
                seen.append(kind)
                if len(seen) < k:
                    return
                if corrupt is not None:
                    corrupt(state, fabric, rng)
                where = (name, seed, k, corrupt and corrupt.__name__, all_first)
                if all_first:
                    assert verdict(check_all, state, fabric) == check_all_in_full(state, fabric), where
                fabric_expected = verdict(check_fabric_by_rebuild, state, fabric)
                assert verdict(check_fabric, state, fabric) == fabric_expected, where
                expected = verdict(check_class_lists_by_sort, state)
                assert verdict(check_state, state) == expected, where
                assert verdict(_check_class_lists, state) == expected, where
                outcomes["pass" if expected == fabric_expected == "pass" else "raised"] += 1
                raise _Corrupted

            scn = scenario.load(name)
            scn.run.seed = seed
            with pytest.raises(_Corrupted):
                scenario.simulate(scn, on_event=hook)
        # Real violations must have come up, and passes too.
        assert min(outcomes["pass"], outcomes["raised"]) > 0, outcomes


class TestShadowAfterALegalStep:
    """As ``TestChecksMatchTheRebuild``, but the checks pass once on the
    random run, the controller takes one more legal step (a request, an
    expiry or a reconfiguration), and only then does the corruption land,
    so that ``check_all``'s shadow has a delta to apply along with it.
    Each trial runs twice from one random state: once checked by the lone
    checks, which run in full, and once by ``check_all``, before the step
    and first after the corruption, which must give the verdict of the full
    checks."""

    @staticmethod
    def legal_step(rng, state, fabric, steps):
        ports = [(30000 + 1000 * c, 30999 + 1000 * c, c) for c in range(3)]
        controller = Controller(state, fabric, Classifier.for_state(state, ports))
        now = float(steps)
        action = rng.random()
        if action < 0.5:
            lsp_id = steps + 1
            src, dst = rng.sample("ABCD", 2)
            ips = state.topology.hosts
            controller.handle_request(LspRequest(
                lsp_id, now, ips[src], ips[dst], 20000 + lsp_id, 30000 + 1000 * rng.randrange(3) + lsp_id))
        elif action < 0.8 and state.active_lsps:
            controller.handle_expiry(rng.choice(sorted(state.active_lsps)), now)
        else:
            cap = min(link.capacity_kbps for link in state.topology.links.values())
            config = TestChecksMatchTheRebuild.random_config(rng, state.bc_config.model, cap)
            mode = rng.choice([ReconfigMode.HARD, ReconfigMode.SOFT])
            controller.apply_reconfig(ReconfigEvent(mode, config, at_time=now), now)

    def test_same_verdicts_and_messages_as_the_rebuild(self):
        base = TestChecksMatchTheRebuild()
        rng = random.Random(4127)
        raised = {"fabric": 0, "lists": 0}
        for trial in range(300):
            start = rng.getstate()
            for all_first in (True, False):
                rng.setstate(start)
                steps = rng.randint(5, 40)
                state, fabric = base.random_run(rng, steps)
                if all_first:
                    check_all(state, fabric)
                else:
                    check_state(state)
                    check_fabric(state, fabric)
                self.legal_step(rng, state, fabric, steps)
                corrupt = rng.choice(CORRUPTIONS)
                if corrupt is not None:
                    corrupt(state, fabric, rng)
                where = (trial, corrupt and corrupt.__name__, all_first)
                if all_first:
                    assert base.verdict(check_all, state, fabric) == check_all_in_full(state, fabric), where
                expected = base.verdict(check_fabric_by_rebuild, state, fabric)
                assert base.verdict(check_fabric, state, fabric) == expected, where
                raised["fabric"] += expected != "pass" and not all_first
                expected = base.verdict(check_class_lists_by_sort, state)
                assert base.verdict(check_state, state) == expected, where
                raised["lists"] += expected != "pass" and not all_first
        assert 50 < raised["fabric"] < 250 and 50 < raised["lists"] < 250, raised


class TestNoDeltaOutlivesCheckAll:
    """Lone checks interleaved with a legal step, on random runs first
    checked by ``check_all``: a lone ``check_state``, one legal controller
    step, then a lone ``check_fabric``, and the same with the two checks
    swapped.  Only ``check_all`` keeps the shadow, so each lone check runs
    its own full check exactly once and gives the rebuild oracles' verdict
    and message.  A clean ``check_all`` then applies the step's delta to the
    shadow its first call stored, which the lone checks left alone, without
    entering either full check.  A corruption then lands, and ``check_all``
    gives the verdict of the full checks."""

    def test_lone_checks_around_a_legal_step(self, monkeypatch):
        from bamsim import checks

        entered = Counter()
        for full in ("_check_state_in_full", "_check_fabric_in_full"):
            real = getattr(checks, full)
            monkeypatch.setattr(checks, full, lambda *args, real=real, full=full: (
                entered.update([full]), real(*args))[1])
        base = TestChecksMatchTheRebuild()
        rng = random.Random(4128)
        # Each lone check, and its oracle, called on (state, fabric).
        lone = {
            "state": (lambda state, _fabric: check_state(state),
                      lambda state, _fabric: check_class_lists_by_sort(state)),
            "fabric": (check_fabric, check_fabric_by_rebuild),
        }
        raised = 0
        for trial in range(200):
            order = ("state", "fabric") if trial % 2 else ("fabric", "state")
            steps = rng.randint(5, 40)
            state, fabric = base.random_run(rng, steps)
            check_all(state, fabric)
            entered.clear()
            for i, which in enumerate(order):
                if i:
                    TestShadowAfterALegalStep.legal_step(rng, state, fabric, steps)
                check, oracle = lone[which]
                assert base.verdict(check, state, fabric) == base.verdict(oracle, state, fabric), (trial, which)
            assert entered == {"_check_state_in_full": 1, "_check_fabric_in_full": 1}, (trial, order, entered)
            entered.clear()
            check_all(state, fabric)
            assert not entered, (trial, order, entered)
            corrupt = rng.choice(CORRUPTIONS)
            if corrupt is not None:
                corrupt(state, fabric, rng)
            expected = check_all_in_full(state, fabric)
            assert base.verdict(check_all, state, fabric) == expected, (trial, corrupt and corrupt.__name__)
            raised += expected != "pass"
        assert 50 < raised < 180, raised


@pytest.mark.parametrize("name", BUNDLED)
def test_clean_runs_enter_the_full_checks_only_on_the_first_call(name, monkeypatch):
    """A disagreement between a shadow and a clean state is a shadow bug
    that would otherwise show only as lost speed."""
    from bamsim import checks, scenario

    entered = Counter()
    for full in ("_check_state_in_full", "_check_fabric_in_full"):
        real = getattr(checks, full)
        monkeypatch.setattr(checks, full, lambda *args, real=real, full=full: (
            entered.update([full]), real(*args))[1])
    for seed in (3, 11):
        entered.clear()
        events = Counter()
        scn = scenario.load(name)
        scn.run.seed = seed

        def hook(kind, state, fabric):
            events[kind] += 1
            checks.check_all(state, fabric)

        scenario.simulate(scn, on_event=hook)
        assert events["request"] > 500 and events["expire"] > 50, events
        assert entered == {"_check_state_in_full": 1, "_check_fabric_in_full": 1}, (seed, entered)


@pytest.mark.parametrize("name", BUNDLED)
def test_check_all_reads_the_registry_once(name, monkeypatch):
    """Both checks of a ``check_all`` take their delta from one read of the
    registry's records, ``_Shadow.move``, the first call's included: its
    full checks walk the registry themselves, and the one shadow records
    that read."""
    from bamsim import checks, scenario

    reads = Counter()
    real = checks._Shadow.move
    monkeypatch.setattr(checks._Shadow, "move", lambda shadow, active: (reads.update(["registry"]), real(shadow, active))[1])
    for seed in (3, 11):
        reads.clear()
        calls = Counter()
        scn = scenario.load(name)
        scn.run.seed = seed

        def hook(kind, state, fabric):
            calls["check_all"] += 1
            checks.check_all(state, fabric)

        scenario.simulate(scn, on_event=hook)
        assert calls["check_all"] > 500 and reads["registry"] == calls["check_all"], (seed, reads, calls)


@pytest.mark.parametrize("name", BUNDLED)
def test_check_all_calls_both_checks_through_the_module(name, monkeypatch):
    """The benchmark's tracer times the checks by patching
    ``checks.check_state`` and ``checks.check_fabric`` by name, so every
    ``check_all`` with a fabric must call each of them once, through the
    module."""
    from bamsim import checks, scenario

    calls = Counter()
    for check in ("check_state", "check_fabric"):
        real = getattr(checks, check)
        monkeypatch.setattr(checks, check, lambda *args, real=real, check=check: (
            calls.update([check]), real(*args))[1])

    def hook(kind, state, fabric):
        calls["check_all"] += 1
        checks.check_all(state, fabric)

    scn = scenario.load(name)
    scn.run.seed = 3
    scenario.simulate(scn, on_event=hook)
    assert calls["check_all"] > 500, calls
    assert calls["check_state"] == calls["check_fabric"] == calls["check_all"], calls

import random

import pytest

from bamsim import (
    BcConfig,
    InvalidBc,
    LspState,
    Model,
    ReconfigEvent,
    ReconfigMode,
    Verdict,
    check_mam,
    check_rdm,
    commit,
    decide,
    promote_pending_if_clear,
    reconfigure,
    release,
    select_victims,
)
from bamsim.bam import Infeasible, _admission_rows, _choose_victims, _reconfig_rows
from bamsim.checks import _check_class_lists

from helpers import (
    admit,
    eviction_clears,
    fill,
    oracle_rdm_verdict,
    rdm_fits_direct,
    single_link_state,
)

PATH = ("L1",)


class TestCheckMam:
    def test_denies_when_class_partition_full(self):
        # 248 in class 0 against a 250 cap: a 5 unit request must not fit.
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [4, 10, 20])
        fill(state, 0, 62, first_id=1)  # 62 * 4 = 248
        assert state.topology.links["L1"].alloc[0] == 248
        assert check_mam(state, PATH, 0, 5).verdict is Verdict.DENY

    def test_grants_up_to_the_exact_boundary(self):
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        fill(state, 0, 49, first_id=1)  # 245
        assert check_mam(state, PATH, 0, 5).verdict is Verdict.GRANT
        fill(state, 0, 1, first_id=100)  # 250
        assert check_mam(state, PATH, 0, 5).verdict is Verdict.DENY

    def test_partitions_are_private(self):
        # A full class 0 partition must not affect class 1 admissions.
        state = single_link_state(Model.MAM, [250, 150, 100], 500, [5, 10, 20])
        fill(state, 0, 50, first_id=1)
        assert check_mam(state, PATH, 1, 10).verdict is Verdict.GRANT

    def test_capacity_binds_even_with_partition_headroom(self):
        state = single_link_state(Model.MAM, [300, 200, 100], 500, [5, 10, 20])
        fill(state, 0, 60, first_id=1)    # 300
        fill(state, 1, 19, first_id=100)  # 190, total 490
        # class 1 still has 10 of partition headroom but only 10 of capacity
        assert check_mam(state, PATH, 1, 10).verdict is Verdict.GRANT
        fill(state, 1, 1, first_id=200)   # total 500
        assert check_mam(state, PATH, 1, 10).verdict is Verdict.DENY

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
                decision = check_mam(state, PATH, c, demands[c])
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
        topo.freeze(1)
        state = NetworkState(topo, [TrafficClass(0, 10)], BcConfig(Model.MAM, values_kbps=(50,)))
        for i in range(5):  # saturate L2's only partition
            commit(state, Lsp(id=i + 1, class_index=0, demand_kbps=10, path=("L2",),
                              src_host="B", dst_host="C", admit_time=float(i)))
        assert check_mam(state, ("L1", "L2"), 0, 10).verdict is Verdict.DENY
        assert check_mam(state, ("L1",), 0, 10).verdict is Verdict.GRANT


class TestCheckRdm:
    def test_lower_class_borrows_idle_headroom(self):
        # Class 0 may run far past what higher constraints would leave it.
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 99, first_id=1)  # 495
        assert check_rdm(state, PATH, 0, 5).verdict is Verdict.GRANT

    def test_full_borrow_then_entitled_class_preempts(self):
        # Class 0 holds the whole link; a class 1 arrival is entitled to its
        # slice and must reclaim exactly two 5 unit borrowers.
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        lsps = fill(state, 0, 100, first_id=1)  # 500, ids 1..100
        decision = check_rdm(state, PATH, 1, 10)
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
        assert check_rdm(state, PATH, 1, 10).verdict is Verdict.DENY

    def test_own_class_cannot_be_preempted(self):
        # Constraint 2 is full of class 2 itself; same-class eviction is
        # forbidden, so Deny even though victims of equal class would fit it.
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 2, 5, first_id=1)  # 100
        assert check_rdm(state, PATH, 2, 20).verdict is Verdict.DENY

    def test_mixed_borrowers_evicted_lowest_class_newest_first(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 90, first_id=1)     # 450, ids 1..90
        fill(state, 1, 5, first_id=300)    # 50, total 500
        decision = check_rdm(state, PATH, 2, 20)
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
        decision = check_rdm(state, PATH, 1, 10)
        assert decision.verdict is Verdict.GRANT_WITH_PREEMPTION
        assert sorted(decision.victims) == [99, 100]

    def test_decision_is_pure(self):
        state = single_link_state(Model.RDM, [500, 250, 100], 500, [5, 10, 20])
        fill(state, 0, 100, first_id=1)
        before_alloc = list(state.topology.links["L1"].alloc)
        before_active = set(state.active_lsps)
        first = check_rdm(state, PATH, 1, 10)
        second = check_rdm(state, PATH, 1, 10)
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
                decision = check_rdm(state, PATH, c, d)
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
                        release(state, v, LspState.PREEMPTED, now=float(step))
                if decision.verdict is not Verdict.DENY:
                    admit(state, next_id, c, float(step))
                    next_id += 1
                if state.active_lsps and rng.random() < 0.3:
                    gone = rng.choice(list(state.active_lsps))
                    release(state, gone, LspState.COMPLETED, now=float(step))


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
        topo.freeze(2)
        state = NetworkState(
            topo,
            [TrafficClass(0, 10), TrafficClass(1, 10)],
            BcConfig(Model.RDM, values_kbps=(100, 50)),
        )
        on_l2 = Lsp(id=1, class_index=0, demand_kbps=10, path=("L2",),
                    src_host="B", dst_host="C", admit_time=0.0)
        commit(state, on_l2)
        on_l1 = Lsp(id=2, class_index=0, demand_kbps=10, path=("L1",),
                    src_host="A", dst_host="B", admit_time=1.0)
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
        fill(state, 0, 60, first_id=1)  # 300, ids 1..60
        out = reconfigure(
            state, BcConfig(Model.MAM, values_kbps=(250, 150, 100)), ReconfigMode.HARD, now=7.0
        )
        assert len(out) == 10
        assert sorted(l.id for l in out) == list(range(51, 61))
        assert all(l.state is LspState.PREEMPTED and l.end_time == 7.0 for l in out)
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
        assert state.topology.links["L1"].total_alloc <= 300
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
        assert check_mam(state, PATH, 0, 5).verdict is Verdict.DENY
        # Raises wait: class 1 stays capped at the old 50 while draining.
        assert check_mam(state, PATH, 1, 10).verdict is Verdict.DENY

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
        assert check_mam(state, PATH, 1, 10).verdict is Verdict.GRANT

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
    rows = _admission_rows(state, PATH, 0, 5)
    assert rows == [("L1", 0, 0, 1)]
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


class TestVictimOrderMatchesTheSort:
    """The per-class newest-first walk picks exactly what sorting every
    active LSP picked, on multi-link RDM states built in random order."""

    LINKS = ("L1", "L2", "L3", "L4", "L5", "L6")

    @staticmethod
    def outcome(choose, state, rows):
        try:
            return tuple(l.id for l in choose(state, rows))
        except Infeasible:
            return "infeasible"

    def random_state(self, rng):
        from bamsim import NetworkState, Topology, TrafficClass

        topo = Topology()
        for h in ("A", "B", "C", "D"):
            topo.add_host(h)
        for s in ("S1", "S2", "S3"):
            topo.add_switch(s)
        ends = [("A", "S1"), ("S1", "S2"), ("S2", "S3"), ("S3", "B"), ("C", "S2"), ("D", "S3")]
        caps = [rng.randint(30, 60) for _ in ends]
        for lid, (a, b), cap in zip(self.LINKS, ends, caps):
            topo.add_link(lid, a, b, cap)
        topo.freeze(3)
        paths = [topo.shortest_path(a, b) for a in "ABCD" for b in "ABCD" if a != b]
        demands = [rng.randint(1, 6) for _ in range(3)]
        classes = [TrafficClass(i, d) for i, d in enumerate(demands)]
        state = NetworkState(topo, classes, self.random_rdm(rng, min(caps)))
        return state, paths

    @staticmethod
    def random_rdm(rng, cap):
        bc0 = rng.randint(cap // 2, cap)
        bc1 = rng.randint(1, bc0)
        return BcConfig(Model.RDM, values_kbps=(bc0, bc1, rng.randint(1, bc1)))

    def test_same_victims_or_same_infeasibility(self):
        from bamsim import CapacityViolation, Lsp

        rng = random.Random(4127)
        seen = {"victims": 0, "infeasible": 0, "reconfig_victims": 0}

        def compare(state, rows, where):
            expected = self.outcome(choose_victims_by_sort, state, rows)
            assert self.outcome(_choose_victims, state, rows) == expected, where
            if expected == "infeasible":
                seen["infeasible"] += 1
            else:
                seen["victims"] += len(expected)

        for trial in range(60):
            state, paths = self.random_state(rng)
            next_id = 1
            for step in range(80):
                action = rng.random()
                if action < 0.45:
                    c = rng.randrange(3)
                    # Ids rise but admit times are drawn from a coarse grid:
                    # out of order and often tied.
                    lsp = Lsp(id=next_id, class_index=c,
                              demand_kbps=state.classes[c].max_lsp_kbps,
                              path=rng.choice(paths), src_host="A", dst_host="B",
                              admit_time=rng.randint(0, 8) * 0.5)
                    next_id += 1
                    try:
                        commit(state, lsp)
                    except CapacityViolation:
                        pass
                elif action < 0.6 and state.active_lsps:
                    gone = rng.choice(sorted(state.active_lsps))
                    release(state, gone, LspState.COMPLETED, now=float(step))
                elif action < 0.8:
                    c = rng.randrange(3)
                    rows = _admission_rows(state, rng.choice(paths), c,
                                           state.classes[c].max_lsp_kbps)
                    compare(state, rows, (trial, step))
                elif action < 0.93:
                    rows = []
                    for _ in range(rng.randint(1, 3)):
                        lo = rng.randrange(3)
                        rows.append((rng.choice(self.LINKS), lo, rng.randint(lo, 3),
                                     rng.randint(1, 20)))
                    compare(state, rows, (trial, step))
                else:
                    config = self.random_rdm(rng, min(
                        link.capacity_kbps for link in state.topology.links.values()))
                    rows = _reconfig_rows(state, config)
                    expected = self.outcome(choose_victims_by_sort, state, rows)
                    out = reconfigure(state, config, ReconfigMode.HARD, now=float(step))
                    assert tuple(l.id for l in out) == expected, (trial, step)
                    seen["reconfig_victims"] += len(out)
                # Forced commits ignore the constraints, so only the class
                # lists are checked here.
                _check_class_lists(state)
        # The comparison must have covered real evictions and refusals.
        assert seen["victims"] > 100 and seen["infeasible"] > 100
        assert seen["reconfig_victims"] > 100

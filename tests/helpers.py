"""Shared builders and brute-force oracles for the test suite.

The oracles here recompute verdicts, victim sets and routes by direct
enumeration, independently of the package's decision logic, so the tests
compare two implementations that share nothing but the data model.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from bamsim import (
    BcConfig,
    Lsp,
    LspState,
    Model,
    NetworkState,
    Topology,
    TrafficClass,
    commit,
    scenario,
)
from bamsim.controller import Classifier, Controller
from bamsim.fabric import Fabric, FlowMatch
from bamsim.metrics import MetricsLog, MetricsRecord


def single_link_state(
    model: Model,
    bc: Sequence[int],
    capacity: int,
    demands: Sequence[int],
) -> NetworkState:
    """Two hosts joined by one link; bandwidth figures in raw kbps."""
    topo = Topology()
    topo.add_host("A")
    topo.add_host("B")
    topo.add_link("L1", "A", "B", capacity)
    topo.freeze()
    classes = [TrafficClass(d) for d in demands]
    config = BcConfig(model, values_kbps=tuple(bc))
    return NetworkState(topo, classes, config)


def admit(
    state: NetworkState,
    lsp_id: int,
    class_index: int,
    when: float,
    path: Tuple[str, ...] = ("L1",),
) -> Lsp:
    """Force-commit one LSP (bypasses admission control on purpose)."""
    lsp = Lsp(
        id=lsp_id,
        class_index=class_index,
        demand_kbps=state.classes[class_index].max_lsp_kbps,
        path=path,
        src_host="A",
        admit_time=when,
    )
    state.counters.requested[class_index] += 1
    commit(state, lsp)
    return lsp


def replace_lsp(state: NetworkState, lsp_id: int, **changes) -> Lsp:
    """Put a changed copy of an active LSP's record wherever the record
    sits: under its key in the registry and in its class dict, at the place
    it held there, even if its age key changed.  Records are immutable, so
    this is how a test changes an LSP behind the package's back."""
    return put_in_place(state, lsp_id, state.active_lsps[lsp_id]._replace(**changes))


def put_in_place(state: NetworkState, lsp_id: int, new):
    """Put ``new`` where the record of active LSP ``lsp_id`` sits, as
    ``replace_lsp`` does."""
    old = state.active_lsps[lsp_id]
    state.active_lsps[lsp_id] = new
    for entries in state.active_by_class:
        for key, lsp in list(entries.items()):
            if lsp is old:
                entries[key] = new
    return new


def plant(fabric: Fabric, owner, lsp, match: FlowMatch) -> None:
    """Write a record straight into a fabric's records and conflict index,
    leaving its running rule count as it is and checking nothing, as a
    corrupted fabric could hold it: the match's index entry names ``owner``
    from now on.  ``Fabric.install_path`` writes only an LSP's own record,
    once, under a match no other LSP holds."""
    fabric._records[owner] = (lsp, match)
    fabric._holders[match] = owner


def fill(state: NetworkState, class_index: int, count: int, first_id: int, t0: float = 0.0,
         path: Tuple[str, ...] = ("L1",)) -> List[Lsp]:
    """Admit `count` LSPs of one class with increasing ids and admit times."""
    return [
        admit(state, first_id + i, class_index, t0 + i, path)
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Admission oracles (single link).


def mam_fits_direct(alloc: Sequence[int], bc: Sequence[int], cap: int, c: int, d: int) -> bool:
    if sum(alloc) + d > cap:
        return False
    return alloc[c] + d <= bc[c]


def rdm_fits_direct(alloc: Sequence[int], bc: Sequence[int], cap: int, c: int, d: int) -> bool:
    """Every constraint from 0 up to the request's class must absorb the
    demand over the classes it governs (constraint b governs b..n-1)."""
    if sum(alloc) + d > cap:
        return False
    for b in range(c + 1):
        if sum(alloc[b:]) + d > bc[b]:
            return False
    return True


def vector_on(config: Optional[BcConfig], link) -> Optional[Tuple[int, ...]]:
    """A config's constraint vector on one link in kbps, or None outside its
    scope: absolute values as given, percentages of the link's capacity
    rounded to the nearest kbps."""
    if config is None or (config.applies_to is not None and link.id not in config.applies_to):
        return None
    if config.values_kbps is not None:
        return tuple(config.values_kbps)
    return tuple(int(round(link.capacity_kbps * p / 100.0)) for p in config.percents)


def admission_vector(state: NetworkState, link) -> Optional[Tuple[int, ...]]:
    """The vector admission holds a link to: while a soft config is pending,
    each value is the smaller of the current and the pending one; a link
    only one of them governs takes that one's vector."""
    current = vector_on(state.bc_config, link)
    pending = vector_on(state.pending_soft_bc, link)
    if current is None or pending is None:
        return pending if current is None else current
    return tuple(min(a, b) for a, b in zip(current, pending))


def mam_admission_caps(state: NetworkState, link_id: str = "L1") -> Tuple[int, ...]:
    """Each class's own cap, the row (c, c + 1), in the admission view of a
    MAM state on one link."""
    return tuple(
        next(cap for _held, lo, hi, cap, _name in state.tables().admission[c].table[link_id]
             if (lo, hi) == (c, c + 1))
        for c in range(state.n_classes)
    )


def oracle_constraint_verdict(state: NetworkState, config: BcConfig) -> str:
    """The constraint part of ``check_state`` written from the inequalities:
    "pass", or the message of the first breach.  Links go in topology
    order; on each, the capacity first, then MAM's classes in order, or
    RDM's nested sums from the highest constraint index down."""
    n = state.n_classes
    for lid, link in state.topology.links.items():
        alloc = link.alloc
        if sum(alloc) > link.capacity_kbps:
            return "link %s over capacity: %d > %d" % (lid, sum(alloc), link.capacity_kbps)
        bc = vector_on(config, link)
        if bc is None:
            continue
        if config.model is Model.MAM:
            for c in range(n):
                if alloc[c] > bc[c]:
                    return "link %s class %d over constraint: %d > %d" % (lid, c, alloc[c], bc[c])
        else:
            for b in range(n - 1, -1, -1):
                if sum(alloc[b:]) > bc[b]:
                    return "link %s nested sum from %d over constraint: %d > %d" % (
                        lid, b, sum(alloc[b:]), bc[b])
    return "pass"


def _alloc_of(state: NetworkState, link_id: str = "L1") -> List[int]:
    return list(state.topology.links[link_id].alloc)


def victim_count_range(state: NetworkState, c: int) -> List[int]:
    """Per-class count of active LSPs below class c (single-link states)."""
    n = [0] * c
    for lsp in state.active_lsps.values():
        if lsp.class_index < c:
            n[lsp.class_index] += 1
    return n


def _combos_with_sum(avail: Sequence[int], total: int):
    """Per-class victim counts bounded by avail summing to exactly total."""
    if not avail:
        if total == 0:
            yield ()
        return
    head = avail[0]
    for s in range(min(head, total), -1, -1):
        for rest in _combos_with_sum(avail[1:], total - s):
            yield (s,) + rest


def oracle_rdm_verdict(
    state: NetworkState, c: int, d: int, link_id: str = "L1"
) -> Tuple[str, Optional[int]]:
    """(verdict, minimal victim count) by enumerating per-class evictions.

    Victims within one class are interchangeable on a single link, so the
    search space is the grid of per-class victim counts, not subsets.  Only
    strictly lower classes may be evicted.  Eviction is monotone (removing
    more can only help), so evicting everything is a feasibility pre-check
    and the count scan stops at the first feasible total.
    """
    link = state.topology.links[link_id]
    bc = admission_vector(state, link)
    cap = link.capacity_kbps
    alloc = _alloc_of(state, link_id)
    assert bc is not None
    if rdm_fits_direct(alloc, bc, cap, c, d):
        return "Grant", None
    avail = victim_count_range(state, c)
    demands = [state.classes[k].max_lsp_kbps for k in range(c)]

    def fits_after(combo: Sequence[int]) -> bool:
        trial = list(alloc)
        for k, s in enumerate(combo):
            trial[k] -= s * demands[k]
        return rdm_fits_direct(trial, bc, cap, c, d)

    if not fits_after(avail):
        return "Deny", None
    for total in range(1, sum(avail) + 1):
        if any(fits_after(combo) for combo in _combos_with_sum(avail, total)):
            return "GrantWithPreemption", total
    return "Deny", None  # unreachable given the pre-check


def eviction_clears(state: NetworkState, victim_ids: Sequence[int], c: int, d: int, link_id: str = "L1") -> bool:
    """Would removing exactly these LSPs let the request fit?  Re-evaluates
    the constraints directly on a scratch allocation vector."""
    link = state.topology.links[link_id]
    bc = admission_vector(state, link)
    trial = _alloc_of(state, link_id)
    for vid in victim_ids:
        lsp = state.active_lsps[vid]
        trial[lsp.class_index] -= lsp.demand_kbps
    if state.bc_config.model is Model.MAM:
        return mam_fits_direct(trial, bc, link.capacity_kbps, c, d)
    return rdm_fits_direct(trial, bc, link.capacity_kbps, c, d)


# ---------------------------------------------------------------------------
# Routing oracle.


def oracle_route(topo: Topology, src: str, dst: str) -> Optional[Tuple[str, ...]]:
    """Minimum-hop, lexicographically smallest link-id path by exhaustive
    DFS over simple paths; None when disconnected."""
    adjacency: Dict[str, List[Tuple[str, str]]] = {}
    for link in topo.links.values():
        adjacency.setdefault(link.a, []).append((link.id, link.b))
        adjacency.setdefault(link.b, []).append((link.id, link.a))
    best: Optional[Tuple[str, ...]] = None

    def walk(node: str, seen: frozenset, trail: Tuple[str, ...]) -> None:
        nonlocal best
        if best is not None and len(trail) > len(best):
            return
        if node == dst:
            if best is None or (len(trail), trail) < (len(best), best):
                best = trail
            return
        for link_id, peer in adjacency.get(node, []):
            if peer not in seen:
                walk(peer, seen | {peer}, trail + (link_id,))

    if src == dst:
        return ()
    walk(src, frozenset([src]), ())
    return best


def drain(state: NetworkState) -> None:
    """Release every active LSP as completed (test teardown helper)."""
    from bamsim import release

    for lsp_id in list(state.active_lsps):
        release(state, lsp_id, LspState.COMPLETED)


# ---------------------------------------------------------------------------
# Artifact oracle.


def csv_oracle(n_classes: int, records: Sequence[Tuple]) -> str:
    """metrics.csv written cell by cell: str() of the index and of every
    count, %g of the time and of each utilisation in Mbps (kbps / 1000)."""
    cols = ["request_index", "sim_time"]
    for prefix in ("util_ct", "blk_ct", "pre_ct"):
        cols += [prefix + str(c) for c in range(n_classes)]
    lines = [",".join(cols)]
    for index, time, util, blocked, preempted in records:
        cells = [str(index), "%g" % time]
        cells += ["%g" % (v / 1000.0) for v in util]
        cells += [str(v) for v in blocked]
        cells += [str(v) for v in preempted]
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Event-loop oracle.


def heap_loop_run(scn):
    """``scenario.simulate``'s event loop as one heap of every event, arrivals
    included, popped in (time, kind, seq) order: expiries (kind 0), then
    timed reconfigurations (1), then arrivals (2) at one time.  Past the stop
    count arrivals are popped and skipped while the rest drains.  Returns
    (controller, metrics log), with fresh record tuples for every request."""
    state, fabric, events = scenario.build(scn)
    classifier = Classifier.for_state(
        state, [(c.port_lo, c.port_hi, c.index) for c in scn.classes])
    controller = Controller(state, fabric, classifier)
    schedule = scenario.generate_schedule(scn)
    log = MetricsLog(scn.n_classes)
    alloc = state.topology.links[scn.bottleneck or min(state.topology.links)].alloc
    counters = state.counters
    heap = [(r.time, 2, r.id) for r in schedule]
    after = {}
    for idx, event in enumerate(events):
        if event.at_time is not None:
            heap.append((event.at_time, 1, idx))
        else:
            after.setdefault(event.after_request, []).append(event)
    heapq.heapify(heap)
    handled = 0
    while heap:
        now, kind, seq = heapq.heappop(heap)
        if kind == 0:
            if seq in state.active_lsps:
                controller.handle_expiry(seq, now)
        elif kind == 1:
            controller.apply_reconfig(events[seq], now)
        elif scn.run.stop is None or handled < scn.run.stop:
            controller.handle_request(schedule[seq - 1])
            if seq in state.active_lsps:
                heapq.heappush(heap, (now + scn.run.lsp_lifetime, 0, seq))
            log.append(MetricsRecord(
                seq, now, tuple(alloc), tuple(counters.blocked), tuple(counters.preempted)))
            handled += 1
            for event in after.get(handled, ()):
                controller.apply_reconfig(event, now)
    return controller, log

"""Consistency checks over a live NetworkState (and optionally its fabric).

These are meant to run after every simulation event in tests, so they stay
cheap: one pass each over the active registry, the links and the rule table,
plus a sort of each class's active LSPs, which arrive nearly in order.
During a soft-reconfiguration drain the effective cap on each constraint is
the larger of the current and the pending value; allocations between the two
are legal until attrition clears them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from .core import Model, NetworkState, age_key
from .fabric import Fabric


class InvariantViolation(AssertionError):
    pass


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def check_state(state: NetworkState) -> None:
    """Ledger, registry, constraint and counter invariants."""
    n = state.n_classes
    recount: Dict[str, List[int]] = {lid: [0] * n for lid in state.topology.links}
    active_per_class = [0] * n
    for lsp in state.active_lsps.values():
        active_per_class[lsp.class_index] += 1
        for lid in lsp.path:
            recount[lid][lsp.class_index] += lsp.demand_kbps
    for lid, link in state.topology.links.items():
        if link.alloc != recount[lid]:
            _fail("link %s ledger %r != registry recount %r" % (lid, link.alloc, recount[lid]))
        if any(v < 0 for v in link.alloc):
            _fail("link %s has a negative allocation" % lid)
        if link.total_alloc > link.capacity_kbps:
            _fail("link %s over capacity: %d > %d" % (lid, link.total_alloc, link.capacity_kbps))
        current = state.bc_config.bc_for(link)
        pending = state.pending_soft_bc.bc_for(link) if state.pending_soft_bc else None
        cap = _effective_cap(current, pending)
        if cap is None:
            continue
        if state.bc_config.model is Model.MAM:
            for c in range(n):
                if link.alloc[c] > cap[c]:
                    _fail("link %s class %d over constraint: %d > %d" % (lid, c, link.alloc[c], cap[c]))
        else:
            suffix = 0
            for b in range(n - 1, -1, -1):
                suffix += link.alloc[b]
                if suffix > cap[b]:
                    _fail("link %s nested sum from %d over constraint: %d > %d" % (lid, b, suffix, cap[b]))
    _check_class_lists(state)
    counters = state.counters
    for c in range(n):
        if counters.requested[c] != counters.admitted[c] + counters.blocked[c]:
            _fail("class %d: requested != admitted + blocked" % c)
        retired = counters.completed[c] + counters.preempted[c]
        if counters.admitted[c] != active_per_class[c] + retired:
            _fail("class %d: admitted != active + completed + preempted" % c)
        if any(row[c] < 0 for row in counters.snapshot()):
            _fail("class %d: negative counter" % c)


def _check_class_lists(state: NetworkState) -> None:
    """``active_by_class`` is what commit and release build: per class, an
    ``age_key(lsp) + (lsp,)`` entry for each active LSP, sorted."""
    expected: List[list] = [[] for _ in state.classes]
    for lsp in state.active_lsps.values():
        expected[lsp.class_index].append(age_key(lsp) + (lsp,))
    for entries in expected:
        entries.sort()
    if state.active_by_class != expected:
        _fail("class lists disagree with the active registry")


def _effective_cap(
    current: Optional[Tuple[int, ...]], pending: Optional[Tuple[int, ...]]
) -> Optional[Tuple[int, ...]]:
    if current is None:
        return pending
    if pending is None:
        return current
    return tuple(max(a, b) for a, b in zip(current, pending))


def check_fabric(state: NetworkState, fabric: Fabric) -> None:
    """Every active LSP holds exactly one rule per on-path switch; no rule
    belongs to a retired LSP; the owner index lists exactly the table's
    slots under their owners."""
    rules = fabric._rules
    owner_of = {slot: rule.owner for slot, rule in rules.items()}
    indexed = {slot: owner for owner, slots in fabric._by_owner.items() for slot in slots}
    if indexed != owner_of or sum(map(len, fabric._by_owner.values())) != len(rules):
        _fail("fabric owner index disagrees with the rule table")
    per_owner = Counter(owner_of.values())
    for owner in per_owner:
        if owner not in state.active_lsps:
            _fail("rule owner %d is not an active LSP" % owner)
    for lsp in state.active_lsps.values():
        expected = len(state.topology.switches_on(lsp.path, lsp.src_host))
        if per_owner[lsp.id] != expected:
            _fail(
                "LSP %d holds %d rules, path has %d switches"
                % (lsp.id, per_owner[lsp.id], expected)
            )


def check_all(state: NetworkState, fabric: Optional[Fabric] = None) -> None:
    check_state(state)
    if fabric is not None:
        check_fabric(state, fabric)

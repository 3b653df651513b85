"""Consistency checks over a live NetworkState (and optionally its fabric).

These are meant to run after every simulation event in tests, so they stay
cheap and build no sorted copies.  ``check_state`` makes one pass over the
active registry, one over the links and one over the class lists.
``check_fabric`` makes one pass over the owner index, looking each slot up in
the rule table, and one over the active registry; it walks each distinct
route's path once per call to count its switches, not once per LSP.
The ledger must breach no row of the current config's constraint table, the
table admission and reconfiguration read.  A pending soft config may sit
below the ledger while attrition drains it.  The current config still holds:
admission under a pending config takes the tighter of the two rows,
releases only lower the ledger, a hard reconfiguration evicts down to its
table, and a soft one is promoted only once the ledger breaches none of its
rows.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from .core import NetworkState
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
    table = state.tables().current
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
        for held, _lo, _hi, cap, name in table[lid]:
            if held(link.alloc) > cap:
                _fail("link %s %s over constraint: %d > %d" % (lid, name, held(link.alloc), cap))
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
    ``age_key(lsp) + (lsp,)`` entry for each active LSP, sorted.

    Checked without rebuilding or sorting: every entry carries its LSP's
    current key and class and is that LSP's registry object (or equal to
    it), keys rise strictly within a class, and the lists hold as many
    entries as the registry.  Strict order keeps an LSP from appearing twice
    in its class, and the class check keeps it out of the others, so the
    count makes the entries one per active LSP."""
    lists = state.active_by_class
    active = state.active_lsps
    if len(lists) != len(state.classes) or sum(map(len, lists)) != len(active):
        _fail("class lists disagree with the active registry")
    for c, entries in enumerate(lists):
        prev_time, prev_id = float("-inf"), 0
        for time, lsp_id, lsp in entries:
            registered = active.get(lsp_id)
            if (
                (registered is not lsp and registered != lsp)
                or lsp.class_index != c
                or lsp.id != lsp_id
                or (lsp.admit_time or 0.0) != time
                or time < prev_time
                or (time == prev_time and lsp_id <= prev_id)
            ):
                _fail("class lists disagree with the active registry")
            prev_time, prev_id = time, lsp_id


def check_fabric(state: NetworkState, fabric: Fabric) -> None:
    """Every active LSP holds exactly one rule per on-path switch; no rule
    belongs to a retired LSP; the owner index lists exactly the table's
    slots under their owners."""
    rules = fabric._rules
    by_owner = fabric._by_owner
    # The index matches the table iff each indexed slot holds a rule of that
    # owner, and the indexed slots are distinct and as many as the rules.
    indexed = 0
    for owner, slots in by_owner.items():
        indexed += len(slots)
        for slot in slots:
            rule = rules.get(slot)
            if rule is None or rule.owner != owner:
                _fail("fabric owner index disagrees with the rule table")
    if indexed != len(rules) or len(set(chain.from_iterable(by_owner.values()))) != indexed:
        _fail("fabric owner index disagrees with the rule table")
    active = state.active_lsps
    for owner, slots in by_owner.items():
        if slots and owner not in active:
            if owner is None:  # blocked flows never land in a table
                _fail("switch %s holds a rule with no owner LSP" % slots[0][0])
            _fail("rule owner %d is not an active LSP" % owner)
    # Interior-switch count per (path, src_host) route, from the topology;
    # local to this call, so nothing needs invalidating.
    switch_count: Dict[Tuple[Tuple[str, ...], str], int] = {}
    switches_on = state.topology.switches_on
    for lsp in active.values():
        route = (lsp.path, lsp.src_host)
        expected = switch_count.get(route)
        if expected is None:
            expected = switch_count[route] = len(switches_on(*route))
        held = len(by_owner.get(lsp.id, ()))  # the index matches the table by now
        if held != expected:
            _fail("LSP %d holds %d rules, path has %d switches" % (lsp.id, held, expected))


def check_all(state: NetworkState, fabric: Optional[Fabric] = None) -> None:
    check_state(state)
    if fabric is not None:
        check_fabric(state, fabric)

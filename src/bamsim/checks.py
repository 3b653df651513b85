"""Consistency checks over a live NetworkState and its fabric.

``check_all`` runs after every simulation event in tests, so it keeps a
*shadow* of its last passing call on the state (``_check_shadow``): the
registry's records as that call read them, the ledger and class lists they
imply, and copies of the fabric's rule table and owner index.  Each call
reads the registry once and takes the delta from the recorded read: the
LSPs added and removed since.  Records are immutable, so each kept key must
still hold the very record it held, and an LSP replaced under its key is
seen.  Both checks apply the delta to their copies and then compare every
structure whole with them, at C speed:

- ``check_state``: the per-link ledger and the class lists.  The rows of the
  current constraint table and the counter identities still run on every
  call, on every link and class;
- ``check_fabric``: the rule table and the owner index.

A check with no copies, or whose copies disagree, runs its full check, so a
failure always carries the full check's message.  If that passes, the
disagreement was legal (an owner's slots reordered, say), and the check
copies what it just verified into the shadow, with the registry's own LSPs
in the class lists.  ``check_all`` passes the shadow to both checks and
stores it only once both pass.  A check called without a shadow, as a lone
``check_state`` or ``check_fabric`` is, runs in full.  The shadow assumes
only that the topology is fixed once frozen.

The full checks: the ledger must equal a recount of the registry and breach
no row of the current config's constraint table, the table admission and
reconfiguration read.  A pending soft config may sit below the ledger while
attrition drains it.  The current config still holds: admission under a
pending config takes the tighter of the two rows, releases only lower the
ledger, a hard reconfiguration evicts down to its table, and a soft one is
promoted only once the ledger breaches none of its rows.  The class lists
are checked without sorting, the fabric's owner index in one pass over the
index, and each distinct route's switches are counted once per call.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import is_
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Lsp, NetworkState
from .fabric import Fabric


class InvariantViolation(AssertionError):
    pass


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def check_state(state: NetworkState, shadow: Optional[_Shadow] = None) -> None:
    """Ledger, registry, constraint and counter invariants."""
    if shadow is None or not shadow.advance_state() or state.active_by_class != shadow.lists:
        _check_state_in_full(state)
        if shadow is not None:  # hand over copies of what just passed
            active = state.active_lsps
            shadow.ledger = {lid: link.alloc[:] for lid, link in state.topology.links.items()}
            shadow.lists = [[(t, i, active[i]) for t, i, _ in entries] for entries in state.active_by_class]
            if not all(map(_plain, shadow.records)):
                shadow.keys = None  # no delta from records it cannot take
        return
    # The shadow's ledger is the registry's recount, so these raise exactly
    # what the full check would.
    _check_links(state, shadow.ledger)
    _check_counters(state, map(len, shadow.lists))


def _check_state_in_full(state: NetworkState) -> None:
    n = state.n_classes
    recount: Dict[str, List[int]] = {lid: [0] * n for lid in state.topology.links}
    active_per_class = [0] * n
    for lsp in state.active_lsps.values():
        if not 0 <= lsp.class_index < n:
            _fail("LSP %r has class %r, outside 0..%d" % (lsp.id, lsp.class_index, n - 1))
        active_per_class[lsp.class_index] += 1
        for lid in lsp.path:
            if lid not in recount:
                _fail("LSP %r path names unknown link %r" % (lsp.id, lid))
            recount[lid][lsp.class_index] += lsp.demand_kbps
    _check_links(state, recount)
    _check_class_lists(state)
    _check_counters(state, active_per_class)


def _check_links(state: NetworkState, recount: Dict[str, List[int]]) -> None:
    table = state.tables().current.table
    for lid, link in state.topology.links.items():
        alloc = link.alloc
        if alloc != recount[lid]:
            _fail("link %s ledger %r != registry recount %r" % (lid, alloc, recount[lid]))
        if min(alloc) < 0:  # alloc equals the recount: one entry per class
            _fail("link %s has a negative allocation" % lid)
        total = sum(alloc)
        if total > link.capacity_kbps:
            _fail("link %s over capacity: %d > %d" % (lid, total, link.capacity_kbps))
        for held, _lo, _hi, cap, name in table[lid]:
            if held(alloc) > cap:
                _fail("link %s %s over constraint: %d > %d" % (lid, name, held(alloc), cap))


def _check_counters(state: NetworkState, active_per_class: Iterable[int]) -> None:
    counters = state.counters
    # The live rows, not a snapshot: nothing changes them during the check.
    rows = requested, admitted, blocked, preempted, completed = (
        counters.requested, counters.admitted, counters.blocked, counters.preempted, counters.completed)
    negative = min(chain.from_iterable(rows), default=0) < 0
    for c, active in enumerate(active_per_class):
        if requested[c] != admitted[c] + blocked[c]:
            _fail("class %d: requested != admitted + blocked" % c)
        retired = completed[c] + preempted[c]
        if admitted[c] != active + retired:
            _fail("class %d: admitted != active + completed + preempted" % c)
        if negative and any(row[c] < 0 for row in rows):
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
                or lsp.admit_time != time
                or time < prev_time
                or (time == prev_time and lsp_id <= prev_id)
            ):
                _fail("class lists disagree with the active registry")
            prev_time, prev_id = time, lsp_id


def check_fabric(state: NetworkState, fabric: Fabric, shadow: Optional[_Shadow] = None) -> None:
    """Every active LSP holds exactly one rule per on-path switch; no rule
    belongs to a retired LSP; the owner index lists exactly the table's
    slots under their owners."""
    if shadow is not None and shadow.holds(state, fabric):
        return
    _check_fabric_in_full(state, fabric)
    if shadow is not None:
        shadow.rules = dict(fabric._rules)
        shadow.by_owner = {owner: list(slots) for owner, slots in fabric._by_owner.items()}


def _check_fabric_in_full(state: NetworkState, fabric: Fabric) -> None:
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
    # The stored shadow stands where the last passing call left it; a call
    # that raises stores none, so the next one starts from the full checks.
    shadow = getattr(state, "_check_shadow", None) or _Shadow()
    state._check_shadow = None
    shadow.move(state.active_lsps)
    if fabric is None:
        shadow.rules = None  # the fabric copies would stand at an older read
    check_state(state, shadow)
    if fabric is not None:
        check_fabric(state, fabric, shadow)
    state._check_shadow = shadow


def _plain(lsp) -> bool:
    # Float sums hang on their order, list paths change unseen, other keys may not compare.
    return (type(lsp) is Lsp and type(lsp.id) is type(lsp.class_index) is type(lsp.demand_kbps) is int
            and type(lsp.path) is tuple and type(lsp.admit_time) is float)


# What the class-list walk compares the first entry of a class with.
_FIRST = (float("-inf"), 0)


class _Shadow:
    """What the last passing ``check_all`` verified: the registry's keys and,
    aligned with them, its records, in order; the ledger and class lists
    that registry implies; and copies of the fabric's rule table and owner
    index (``rules`` is None when that call had no fabric).  ``delta`` holds
    the records removed and added since, or None when the registry did not
    move as commit and release move it.

    Demands are integral kbps, so the running sums are exactly the recount.
    Every record must be ``_plain``.  An added LSP must also have a class in
    range, a path over known links, and an age key the full check's walk
    accepts.  Its rules are taken from the fabric only if they are as many
    as its route has switches, each is indexed under its owner, and none
    takes a slot already held.  Otherwise the copies disagree and the full
    check decides."""

    def __init__(self) -> None:
        self.keys: Optional[List[int]] = None
        self.records: List[Lsp] = []
        self.delta: Optional[Tuple[List[Lsp], List[Lsp]]] = None
        self.ledger: Dict[str, List[int]] = {}
        self.lists: List[list] = []
        self.rules: Optional[dict] = None
        self.by_owner: dict = {}
        # Interior-switch count per route; the topology is fixed.
        self.switches: Dict[Tuple[Tuple[str, ...], str], int] = {}

    def move(self, active: Dict[int, Lsp]) -> None:
        """Read the registry and take the delta from the recorded read.
        Commit appends to the registry and release deletes from it, so the
        live keys are the recorded ones less the removed, then the added.
        Each kept key must hold its recorded record, the same object, and
        each added record must be ``_plain`` and filed under its id."""
        keys, old_keys, old_records = list(active), self.keys, self.records
        if keys == old_keys and all(map(is_, active.values(), old_records)):
            self.delta = [], []
            return
        records = list(active.values())
        self.keys, self.records, self.delta = keys, records, None
        if old_keys is None:
            return
        removed = []
        for key in set(old_keys).difference(active):
            i = old_keys.index(key)
            del old_keys[i]
            removed.append(old_records.pop(i))
        kept = len(old_keys)
        added = records[kept:]
        if (keys[:kept] == old_keys and all(map(is_, records, old_records))
                and all(map(_plain, added)) and keys[kept:] == [lsp.id for lsp in added]):
            self.delta = removed, added

    def advance_state(self) -> bool:
        if self.delta is None:
            return False
        removed, added = self.delta
        ledger, lists = self.ledger, self.lists
        for lsp_id, c, demand, path, _src, admit_time in removed:
            for lid in path:
                ledger[lid][c] -= demand
            entries = lists[c]
            del entries[bisect_left(entries, (admit_time, lsp_id))]
        for lsp in added:
            lsp_id, c, demand, path, _src, admit_time = lsp
            if not 0 <= c < len(lists) or not all(map(ledger.__contains__, path)):
                return False
            key = (admit_time, lsp_id)
            entries = lists[c]
            i = bisect_left(entries, key)
            # Keys are distinct and ordered, so the walk rejects only a first key at its start,
            # as it does a NaN time: that compares below nothing, so it lands first.
            if i == 0 and not _FIRST < key:
                return False
            entries.insert(i, key + (lsp,))
            for lid in path:
                ledger[lid][c] += demand
        return True

    def holds(self, state: NetworkState, fabric: Fabric) -> bool:
        if self.delta is None or self.rules is None:
            return False
        removed, added = self.delta
        rules, by_owner = self.rules, self.by_owner
        for lsp in removed:
            for slot in by_owner.pop(lsp.id, ()):
                del rules[slot]
        live_rules, live_index = fabric._rules, fabric._by_owner
        for owner, _c, _demand, path, src_host, _admit_time in added:
            route = (path, src_host)
            expected = self.switches.get(route)
            if expected is None:
                try:
                    expected = len(state.topology.switches_on(path, src_host))
                except (KeyError, ValueError):  # no such route: the full check says how
                    return False
                self.switches[route] = expected
            slots = live_index.get(owner)
            if len(slots or ()) != expected:
                return False
            if slots is None:
                continue
            by_owner[owner] = list(slots)
            for slot in slots:
                rule = live_rules.get(slot)
                if rule is None or rule.owner != owner or slot in rules:
                    return False
                rules[slot] = rule
        return live_rules == rules and live_index == by_owner

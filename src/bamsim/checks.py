"""Consistency checks over a live NetworkState and its fabric.

They run after every simulation event in tests, so each check keeps a
*shadow* on the object it checks (``_check_shadow`` on the state, and on the
fabric): what the structures must look like, given the active registry.
``check_all`` reads the registry once, a row per LSP with every field either
check reads, and both checks take their delta from that one read: the LSPs
added to and removed from the registry since the shadow's last call, found
by comparing the registry's keys with the shadow's.  The read lives only for
that ``check_all``; a lone ``check_state`` or ``check_fabric`` reads the
registry itself.  Each shadow applies only the delta, then every structure
is compared with the shadow whole, at C speed:

- the registry itself, LSP by LSP: the same objects (or equal ones) with the
  same checked fields, so an LSP changed in place is seen;
- ``check_state``: the per-link ledger against the shadow's running recount,
  and the class lists against the shadow's sorted lists.  The rows of the
  current constraint table and the counter identities still run on every
  call, on every link and class;
- ``check_fabric``: the rule table and the owner index against the shadow's
  copies of them.

Any mismatch runs the full check, which rebuilds its view from the registry,
so a failure always carries the full check's message.  If the full check
passes, the disagreement was legal (an owner's slots reordered, say), and
the shadow is built afresh from the state.  The first call on an object
runs the full check and builds the shadow.  The shadow assumes only that
the topology is fixed once frozen.

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
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Lsp, NetworkState
from .fabric import Fabric


class InvariantViolation(AssertionError):
    pass


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def check_state(state: NetworkState) -> None:
    """Ledger, registry, constraint and counter invariants."""
    shadow = getattr(state, "_check_shadow", None)
    if shadow is None or not shadow.advance(state) or state.active_by_class != shadow.lists:
        state._check_shadow = None
        _check_state_in_full(state)
        shadow = _StateShadow(state)
        state._check_shadow = shadow if shadow.advance(state) else None
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
        active_per_class[lsp.class_index] += 1
        for lid in lsp.path:
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
    shadow = getattr(fabric, "_check_shadow", None)
    if shadow is not None and shadow.state is state and shadow.holds(fabric):
        return
    fabric._check_shadow = None
    _check_fabric_in_full(state, fabric)
    shadow = _FabricShadow(state)
    fabric._check_shadow = shadow if shadow.holds(fabric) else None


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
    # One read of the registry serves both checks.  It never outlives this
    # call, so a later lone check reads a registry that may have changed.
    state._check_read = _Read(state.active_lsps)
    try:
        check_state(state)
        if fabric is not None:
            check_fabric(state, fabric)
    finally:
        state._check_read = None


def _rows(active: Dict[int, Lsp]) -> List[tuple]:
    # The object itself too: the class lists hold the registry's objects.
    return [(l.id, l, l.class_index, l.demand_kbps, l.path, l.admit_time, l.src_host) for l in active.values()]


class _Read:
    """The active registry read once: its keys in order and, aligned with
    them, each LSP's row, which starts with its id.  ``base`` and ``delta``
    record the last move to it, so a second shadow that stands where the
    first one stood takes the first one's delta as it is."""

    def __init__(self, active: Dict[int, Lsp]) -> None:
        self.active, self.keys, self.rows = active, list(active), _rows(active)
        self.base: Optional[List[tuple]] = None
        self.delta: Optional[Tuple[List[tuple], List[tuple]]] = None

    def move(self, shadow: "_Shadow") -> Optional[Tuple[List[tuple], List[tuple]]]:
        """Move a shadow to this read.  Returns the rows recorded for the
        removed LSPs and read for the added ones, or None on a mismatch."""
        if shadow.rows is not self.base:
            self.base, self.delta = shadow.rows, self._delta(shadow.keys, shadow.rows)
        if self.delta is not None:
            shadow.keys, shadow.rows = self.keys, self.rows
        return self.delta

    def _delta(self, old_keys: List[int], old_rows: List[tuple]) -> Optional[Tuple[List[tuple], List[tuple]]]:
        """Commit appends to the registry and release deletes from it, so the
        live keys are the recorded ones less the removed, then the added.
        Each kept LSP's row must be as recorded, and each added LSP must be
        filed under its id.  Both shadows may hold the recorded lists, so
        they are never changed in place."""
        keys, rows = self.keys, self.rows
        if keys == old_keys:
            return ([], []) if rows == old_rows else None
        gone = set(old_keys).difference(self.active)
        if gone:
            old_keys, old_rows = old_keys[:], old_rows[:]
        removed = []
        for key in gone:
            i = old_keys.index(key)
            del old_keys[i]
            removed.append(old_rows.pop(i))
        kept = len(old_keys)
        added = rows[kept:]
        if keys[:kept] != old_keys or rows[:kept] != old_rows or keys[kept:] != [row[0] for row in added]:
            return None
        return removed, added


class _Shadow:
    """The active registry as the last call saw it: the keys and rows of
    the last ``_Read`` it moved to."""

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.rows: List[tuple] = []

    def delta(self, state: NetworkState) -> Optional[Tuple[List[tuple], List[tuple]]]:
        # Inside check_all the read is the one both checks share.
        return (getattr(state, "_check_read", None) or _Read(state.active_lsps)).move(self)


# What the class-list walk compares the first entry of a class with.
_FIRST = (float("-inf"), 0)


class _StateShadow(_Shadow):
    """The per-link ledger and the class lists that the registry implies,
    kept up to date from the LSPs added and removed since the last call.

    Demands are integral kbps, so the running sums are exactly the recount.
    An added LSP must have an int class in range, an int demand, a tuple
    path over known links, and an age key that sorts strictly between its
    neighbours, as the full check's walk requires; otherwise the shadow
    reports a mismatch and the full check decides."""

    def __init__(self, state: NetworkState) -> None:
        super().__init__()
        n = state.n_classes
        self.ledger: Dict[str, List[int]] = {lid: [0] * n for lid in state.topology.links}
        self.lists: List[list] = [[] for _ in range(n)]

    def advance(self, state: NetworkState) -> bool:
        delta = self.delta(state)
        if delta is None:
            return False
        removed, added = delta
        ledger, lists = self.ledger, self.lists
        for lsp_id, _lsp, c, demand, path, admit_time, _src in removed:
            for lid in path:
                ledger[lid][c] -= demand
            entries = lists[c]
            del entries[bisect_left(entries, (admit_time or 0.0, lsp_id))]
        for lsp_id, lsp, c, demand, path, admit_time, _src in added:
            if (
                type(c) is not int or not 0 <= c < len(lists) or type(demand) is not int
                or type(path) is not tuple or not all(map(ledger.__contains__, path))
            ):
                return False
            key = (admit_time or 0.0, lsp_id)
            entries = lists[c]
            i = bisect_left(entries, key)
            below = entries[i - 1][:2] if i else _FIRST
            # A NaN time equals nothing, itself included, and fails the walk.
            if key[0] != key[0] or not below < key or (i < len(entries) and not key < entries[i][:2]):
                return False
            entries.insert(i, key + (lsp,))
            for lid in path:
                ledger[lid][c] += demand
        return True


class _FabricShadow(_Shadow):
    """Copies of a fabric's rule table and owner index as the last passing
    call verified them against ``state``, kept up to date from the LSPs
    added and removed since.  An added LSP's rules are taken from the
    fabric only if they are as many as its route has switches, each is
    indexed under its owner, and none takes a slot already held."""

    def __init__(self, state: NetworkState) -> None:
        super().__init__()
        self.state = state
        self.rules: dict = {}
        self.by_owner: dict = {}
        # Interior-switch count per route; the topology is fixed.
        self.switches: Dict[Tuple[Tuple[str, ...], str], int] = {}

    def holds(self, fabric: Fabric) -> bool:
        delta = self.delta(self.state)
        if delta is None:
            return False
        removed, added = delta
        rules, by_owner = self.rules, self.by_owner
        for row in removed:
            for slot in by_owner.pop(row[0], ()):
                del rules[slot]
        live_rules, live_index = fabric._rules, fabric._by_owner
        for owner, _lsp, _c, _demand, path, _admit_time, src_host in added:
            if type(path) is not tuple:
                return False
            route = (path, src_host)
            expected = self.switches.get(route)
            if expected is None:
                try:
                    expected = len(self.state.topology.switches_on(path, src_host))
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

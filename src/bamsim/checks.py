"""Consistency checks over a live NetworkState and its fabric.

``check_all`` runs after every simulation event in tests, so it keeps a
*shadow* of its last passing call on the state (``_check_shadow``): the
registry's records as that call read them, the ledger and class lists they
imply, copies of the fabric's records and conflict index, and the verdicts
of the constraint rows.  Each call reads the registry once and takes the
delta from the recorded read: the LSPs added and removed since.  The event
loop moves the registry one of two ways on almost every call, and each is
tested as it stands: one commit, the keys less the last equal to the
recorded keys, and one release of the oldest LSP, as an expiry makes, the
keys equal to the recorded keys less the first.  Any other move (a
preemption, a hard reconfiguration's evictions) takes the general diff.
Records are immutable, so each kept key must still hold the very record it
held, and an LSP replaced under its key is seen.  Both checks apply the
delta to their copies and then compare every structure whole with them, at
C speed:

- ``check_state``: the per-link ledger and the class lists, dicts by id
  compared with ``==``, then their key orders with the copy's, kept as
  lists.  Every link is visited in order and its ledger compared with the
  copy's, but its sign, capacity and row tests run only on a vector that
  has not passed them under the link's current rows.  The shadow keeps per
  link the row tuple of the current constraint table, by identity, and the
  vectors that passed under it.  A verdict reads only those rows, the
  vector and the link's fixed capacity, so a vector that passed passes
  again; a vector that fails is never kept.  The counter identities still
  run on every call, on every class;
- ``check_fabric``: the fabric's records and its conflict index.

A check with no copies, or whose copies disagree, runs its full check, so a
failure always carries the full check's message.  If that passes, the
disagreement was legal (an LSP committed by hand behind its class's newest,
or a record holding an equal copy of its LSP, say), and the check copies
what it just verified into the shadow, with the registry's own LSPs in the
class lists.  ``check_all`` passes the shadow to both checks and stores it
only once both pass.  A check called without a shadow, as a lone
``check_state`` or ``check_fabric`` is, runs in full.  The shadow assumes
only that the topology is fixed once frozen.

The full checks: the ledger must equal a recount of the registry and breach
no row of the current config's constraint table, the table admission and
reconfiguration read.  A pending soft config may sit below the ledger while
attrition drains it.  The current config still holds: admission under a
pending config takes the tighter of the two rows, releases only lower the
ledger, a hard reconfiguration evicts down to its table, and a soft one is
promoted only once the ledger breaches none of its rows.  The class lists
are checked without sorting, and the fabric's records in one pass that
recounts the conflict index and, from each record's route, the rule count.
A record holds its LSP, so it is checked against the registry's LSP, not
field by field.  No check walks a route or reads the route cache: the
per-switch rules are a view of the records, and a route of n >= 1 links
programs n - 1 of them.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import is_
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Lsp, NetworkState, age_key
from .fabric import Fabric


class InvariantViolation(AssertionError):
    pass


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def check_state(state: NetworkState, shadow: Optional[_Shadow] = None) -> None:
    """Ledger, registry, constraint and counter invariants."""
    lists = state.active_by_class
    if (shadow is None or not shadow.advance_state() or lists != shadow.lists
            or list(map(list, lists)) != shadow.orders):
        _check_state_in_full(state)
        if shadow is not None:  # hand over copies of what just passed
            active = state.active_lsps
            shadow.ledger = {lid: link.alloc[:] for lid, link in state.topology.links.items()}
            shadow.lists = [{i: active[i] for i in entries} for entries in lists]
            shadow.orders = list(map(list, lists))
            if not all(map(_plain, shadow.records)):
                shadow.keys = None  # no delta from records it cannot take
        return
    # The shadow's ledger is the registry's recount, so these raise exactly
    # what the full check would.
    _check_links(state, shadow.ledger, shadow.passed)
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
    _check_links(state, recount, {})
    _check_class_lists(state)
    _check_counters(state, active_per_class)


def _check_links(state: NetworkState, recount: Dict[str, List[int]],
                 passed: Dict[str, Tuple[tuple, set]]) -> None:
    """Every link's ledger equals its recount and breaches none of its rows
    in the current constraint table.  ``passed`` maps a link to its row
    tuple and the ledger vectors that passed under it; those are not tested
    again, and the vectors that pass are added."""
    table = state.tables().current.table
    for lid, link in state.topology.links.items():
        alloc, rows = link.alloc, table[lid]
        if alloc != recount[lid]:
            _fail("link %s ledger %r != registry recount %r" % (lid, alloc, recount[lid]))
        seen, vectors = passed.get(lid, _UNSEEN)
        vector = tuple(alloc)
        if seen is rows and vector in vectors:
            continue
        if min(alloc) < 0:  # alloc equals the recount: one entry per class
            _fail("link %s has a negative allocation" % lid)
        total = sum(alloc)
        if total > link.capacity_kbps:
            _fail("link %s over capacity: %d > %d" % (lid, total, link.capacity_kbps))
        for held, _lo, _hi, cap, name in rows:
            if held(alloc) > cap:
                _fail("link %s %s over constraint: %d > %d" % (lid, name, held(alloc), cap))
        if seen is rows:
            vectors.add(vector)
        else:
            passed[lid] = rows, {vector}


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
    """``active_by_class`` is what commit and release build: per class, a
    dict of each active LSP by id, in ``age_key`` order.

    Checked without rebuilding or sorting: every entry is filed under its
    LSP's id, has the class of its dict and is that LSP's registry object
    (or equal to it), age keys rise strictly within a dict, and the dicts
    hold as many entries as the registry.  The class check keeps an LSP out
    of the other dicts, so the count makes the entries one per active LSP."""
    lists = state.active_by_class
    active = state.active_lsps
    if len(lists) != len(state.classes) or sum(map(len, lists)) != len(active):
        _fail("class lists disagree with the active registry")
    for c, entries in enumerate(lists):
        prev = _FIRST
        for lsp_id, lsp in entries.items():
            registered = active.get(lsp_id)
            key = age_key(lsp)
            # ``not prev < key`` also rejects a NaN admit time, which compares below nothing.
            if ((registered is not lsp and registered != lsp) or lsp.class_index != c
                    or lsp.id != lsp_id or not prev < key):
                _fail("class lists disagree with the active registry")
            prev = key


def check_fabric(state: NetworkState, fabric: Fabric, shadow: Optional[_Shadow] = None) -> None:
    """One fabric record per active LSP and none for a retired one, each
    holding the registry's LSP; no two records share a match, and the
    conflict index files each record's owner under its match; the fabric's
    running rule count is the sum over the records' routes."""
    if shadow is not None and shadow.holds(fabric):
        return
    _check_fabric_in_full(state, fabric)
    if shadow is not None:
        shadow.fabric = dict(fabric._records)
        shadow.holders = dict(fabric._holders)
        shadow.rules = fabric._count


def _check_fabric_in_full(state: NetworkState, fabric: Fabric) -> None:
    active = state.active_lsps
    records = fabric._records
    holders: Dict[object, int] = {}
    total = 0
    for owner, (lsp, match) in records.items():
        registered = active.get(owner)
        if registered is None:
            _fail("fabric record owner %r is not an active LSP" % (owner,))
        if lsp is not registered and lsp != registered:
            _fail("LSP %r fabric record holds another LSP %r" % (owner, lsp))
        total += _rules_on(lsp.path)
        holder = holders.setdefault(match, owner)
        if holder != owner:
            _fail("LSP %r fabric record shares its match with LSP %r" % (owner, holder))
    if len(records) != len(active):  # every record is an active LSP's, so one is missing
        _fail("LSP %r holds no fabric record" % next(i for i in active if i not in records))
    if holders != fabric._holders:
        _fail("fabric conflict index disagrees with the records")
    if total != fabric._count:
        _fail("fabric rule count %r != %d rules in the records" % (fabric._count, total))


def _rules_on(path) -> int:
    # n links have n - 1 interior nodes, each a switch with one rule (the
    # fabric takes no other route); not read from the route cache it checks.
    return len(path) - 1 if path else 0


def check_all(state: NetworkState, fabric: Optional[Fabric] = None) -> None:
    # The stored shadow stands where the last passing call left it; a call
    # that raises stores none, so the next one starts from the full checks.
    shadow = getattr(state, "_check_shadow", None) or _Shadow()
    state._check_shadow = None
    shadow.move(state.active_lsps)
    if fabric is None:
        shadow.fabric = None  # the fabric copies would stand at an older read
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
# A link's verdicts before any vector passed: rows no table holds, no vector.
_UNSEEN = (None, frozenset())


def _diff(old_keys: List[int], old_records: List[Lsp], keys: List[int],
          records: List[Lsp]) -> Optional[Tuple[List[Lsp], List[Lsp]]]:
    """The records removed and added between two reads of the registry, or
    None if it did not move as commit and release move it.  Commit appends
    to the registry and release deletes from it, so the live keys are the
    recorded ones less the removed, then the added.  Takes the old lists
    apart."""
    removed = []
    for key in set(old_keys).difference(keys):
        i = old_keys.index(key)
        del old_keys[i]
        removed.append(old_records.pop(i))
    kept = len(old_keys)
    added = records[kept:]
    if (keys[:kept] == old_keys and all(map(is_, records, old_records))
            and all(map(_plain, added)) and keys[kept:] == [lsp.id for lsp in added]):
        return removed, added
    return None


class _Shadow:
    """What the last passing ``check_all`` verified: the registry's keys and,
    aligned with them, its records, in order; the ledger and class lists
    that registry implies; per link, the ledger vectors that passed its
    rows; and copies of the fabric's records and conflict index (``fabric``
    is None when that call had no fabric).  ``delta`` holds
    the records removed and added since, or None when the registry did not
    move as commit and release move it.

    Demands are integral kbps, so the running sums are exactly the recount.
    Every record must be ``_plain``.  An added LSP must also have a class in
    range, a path over known links, and an age key above its class's newest,
    so that it appends.  Its fabric record is taken only if it holds that
    very LSP, under a match no other record holds.  Otherwise the copies
    disagree and the full check decides."""

    def __init__(self) -> None:
        self.keys: Optional[List[int]] = None
        self.records: List[Lsp] = []
        self.delta: Optional[Tuple[List[Lsp], List[Lsp]]] = None
        self.ledger: Dict[str, List[int]] = {}
        self.lists: List[Dict[int, Lsp]] = []
        self.orders: List[List[int]] = []  # the keys of ``lists``, in order
        # Per link, a row tuple and the ledger vectors that passed under it.
        self.passed: Dict[str, Tuple[tuple, set]] = {}
        self.fabric: Optional[dict] = None
        self.holders: dict = {}
        self.rules = 0  # the fabric's running rule count

    def move(self, active: Dict[int, Lsp]) -> None:
        """Read the registry and take the delta from the recorded read.
        Each kept key must hold its recorded record, the same object, and
        each added record must be ``_plain`` and filed under its id.  The
        event loop's two common moves are tested as they are: one commit,
        appended at the tail, and one release of the oldest LSP, at the
        head, as an expiry makes.  Any other move (a preemption, a hard
        reconfiguration's evictions, a hand-built state) takes ``_diff``."""
        keys, old_keys, old_records = list(active), self.keys, self.records
        if keys == old_keys and all(map(is_, active.values(), old_records)):
            self.delta = [], []
            return
        records = list(active.values())
        self.keys, self.records, self.delta = keys, records, None
        if old_keys is None:
            return
        if keys[:-1] == old_keys:
            last = records[-1]
            if all(map(is_, records, old_records)) and _plain(last) and last.id == keys[-1]:
                self.delta = [], [last]
        elif keys == old_keys[1:]:
            if all(map(is_, records, islice(old_records, 1, None))):
                self.delta = old_records[:1], []
        else:
            self.delta = _diff(old_keys, old_records, keys, records)

    def advance_state(self) -> bool:
        if self.delta is None:
            return False
        removed, added = self.delta
        ledger, lists, orders = self.ledger, self.lists, self.orders
        for lsp_id, c, demand, path, _src, _admit_time in removed:
            for lid in path:
                ledger[lid][c] -= demand
            del lists[c][lsp_id]
            orders[c].remove(lsp_id)
        for lsp in added:
            lsp_id, c, demand, path, _src, admit_time = lsp
            if not 0 <= c < len(lists) or not all(map(ledger.__contains__, path)):
                return False
            entries = lists[c]
            # Appended only past its class's newest.  An older LSP, a first key at the walk's
            # start, or a NaN time, which compares below nothing, goes to the full check.
            if not (age_key(next(reversed(entries.values()))) if entries else _FIRST) < (admit_time, lsp_id):
                return False
            entries[lsp_id] = lsp
            orders[c].append(lsp_id)
            for lid in path:
                ledger[lid][c] += demand
        return True

    def holds(self, fabric: Fabric) -> bool:
        if self.delta is None or self.fabric is None:
            return False
        removed, added = self.delta
        records, holders = self.fabric, self.holders
        for lsp in removed:
            del holders[records.pop(lsp.id)[1]]
            self.rules -= _rules_on(lsp.path)
        live = fabric._records
        for lsp in added:
            record = live.get(lsp.id)
            if record is None:
                return False
            held, match = record
            if held is not lsp or match in holders:
                return False
            records[lsp.id] = record
            holders[match] = lsp.id
            self.rules += _rules_on(lsp.path)
        return live == records and fabric._holders == holders and fabric._count == self.rules

"""Admission control under per-class bandwidth constraints.

Two allocation models are implemented.  MAM gives every class a private
partition: a request fits or it is denied, nothing is ever preempted.  RDM
nests the partitions, constraint b capping the combined allocation of classes
b and above, so a high-class request that does not fit may still be granted
by evicting lower-class LSPs that are borrowing from its slice.

Both models are data here: rows of ``core.constraint_table``, laid out per
path as cached plans (``core.Plans``) that one kernel, ``_deficit_rows``,
turns into the deficit rows a request or a new config leaves.  Decisions
are pure: ``decide`` and ``select_victims`` never touch the allocation
ledger.  ``reconfigure`` is the one mutating entry point and applies a new
constraint vector either immediately (hard, evicting whatever no longer
fits) or lazily (soft, draining by attrition).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import List, NamedTuple, Optional, Tuple

from .core import (
    PREEMPTED,
    BcConfig,
    Lsp,
    NetworkState,
    Plan,
    release,
)


class Verdict(enum.Enum):
    GRANT = "Grant"
    GRANT_WITH_PREEMPTION = "GrantWithPreemption"
    DENY = "Deny"


class ReconfigMode(enum.Enum):
    HARD = "hard"
    SOFT = "soft"


# The members per-event code reads, as module constants: see core.PREEMPTED.
GRANT_WITH_PREEMPTION, DENY, SOFT = Verdict.GRANT_WITH_PREEMPTION, Verdict.DENY, ReconfigMode.SOFT


class Infeasible(Exception):
    """No victim set drawn from eligible LSPs can clear the deficits."""


class AdmissionDecision(NamedTuple):
    """A verdict and, for GrantWithPreemption, the ids of the LSPs to evict."""

    verdict: Verdict
    victims: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ReconfigEvent:
    """A scheduled constraint change: fires either after the Nth request or
    at an absolute simulation time."""

    mode: ReconfigMode
    config: BcConfig
    after_request: Optional[int] = None
    at_time: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.after_request is None) == (self.at_time is None):
            raise ValueError("exactly one of after_request/at_time is required")


# A deficit row: (link_id, lo, hi, deficit_kbps).  Classes k with
# lo <= k < hi are eligible to be evicted in service of the row; a victim
# counts toward it only if its path traverses the row's link.  An empty
# class range makes the row unsatisfiable.
Row = Tuple[str, int, int, int]


def _deficit_rows(plan: Plan, demand_kbps: int) -> List[Row]:
    """A deficit row for each row of ``plan`` the ledger breaches with
    ``demand_kbps`` added.  The pass stops at the first row no victim can
    serve, so such a row is always the last; the victim walk does not
    depend on the order of the others.  Reconfiguration and promotion pass
    no demand."""
    rows: List[Row] = []
    for link_id, alloc, held, lo, top, cap in plan:
        deficit = held(alloc) + demand_kbps - cap
        if deficit > 0:
            rows.append((link_id, lo, top, deficit))
            if top == lo:
                return rows
    return rows


def _choose_victims(state: NetworkState, rows: List[Row]) -> List[Lsp]:
    """Smallest sufficient victim set under the eviction ordering.

    Candidates are scanned lowest class first, then newest first (admit time
    descending, id descending as the tie-break), read backwards from each
    class's dict in ``state.active_by_class``, which is in age order.

    One row, as most preemptions leave: every LSP of classes lo..hi-1 whose
    path crosses the row's link is taken until the deficit is covered.  The
    reverse pass then drops each pick the surplus can spare.

    Two or more rows: ``left[i]`` is row i's running deficit.  A candidate
    is tested against the links of its class's open rows only, and the walk
    leaves a class once none is open.  A pick is charged to every row it
    serves, open or closed, and keeps their indexes, so ``-left[i]`` ends as
    row i's spare cover.  One reverse pass then drops each pick that every
    row it serves can spare, so no member of the result can be removed
    without reopening a deficit, in O(picks x rows).  On one row both walks
    pick the same set.
    """
    if not rows:
        return []
    if len(rows) == 1:
        link_id, lo, hi, deficit = rows[0]
        if lo >= hi:
            raise Infeasible("deficit with no eligible class")
        taken: List[Lsp] = []
        by_class = state.active_by_class
        for c in range(lo, hi):
            if deficit <= 0:
                break
            for lsp in reversed(by_class[c].values()):
                if link_id in lsp.path:
                    taken.append(lsp)
                    deficit -= lsp.demand_kbps
                    if deficit <= 0:
                        break
        if deficit > 0:
            raise Infeasible("eligible LSPs cannot cover the deficit")
        kept: List[Lsp] = []
        for lsp in reversed(taken):
            if lsp.demand_kbps <= -deficit:
                deficit += lsp.demand_kbps
            else:
                kept.append(lsp)
        return kept[::-1]
    left: List[int] = []
    first, last = rows[0][1], rows[0][2]
    for _lid, lo, hi, deficit in rows:
        if lo >= hi:
            raise Infeasible("deficit with no eligible class")
        first, last = min(first, lo), max(last, hi)
        left.append(deficit)
    picks: List[Tuple[Lsp, List[int]]] = []
    for c in range(first, last):
        # (index, link) of the rows class c may serve, and the links of
        # those still open; once none is open, no later LSP of c could join.
        rows_c = [(i, r[0]) for i, r in enumerate(rows) if r[1] <= c < r[2]]
        open_links = [lid for i, lid in rows_c if left[i] > 0]
        for lsp in reversed(state.active_by_class[c].values()):
            if not open_links:
                break
            path = lsp.path
            for lid in open_links:
                if lid in path:
                    break
            else:
                continue
            served, open_links = [], []
            for i, lid in rows_c:
                if lid in path:
                    left[i] -= lsp.demand_kbps
                    served.append(i)
                if left[i] > 0:
                    open_links.append(lid)
            picks.append((lsp, served))
    if max(left) > 0:
        raise Infeasible("eligible LSPs cannot cover the deficit")
    chosen: List[Lsp] = []
    for lsp, served in reversed(picks):
        for i in served:
            if -left[i] < lsp.demand_kbps:
                chosen.append(lsp)
                break
        else:
            for i in served:
                left[i] += lsp.demand_kbps
    return chosen[::-1]


_lsp_id = attrgetter("id")


def select_victims(state: NetworkState, rows: List[Row]) -> Tuple[int, ...]:
    """Victim ids for a set of deficit rows; raises Infeasible if no eligible
    combination suffices.  Pure."""
    return tuple(map(_lsp_id, _choose_victims(state, rows)))


_GRANT = AdmissionDecision(Verdict.GRANT)
_DENY = AdmissionDecision(DENY)


def decide(
    state: NetworkState, path: Tuple[str, ...], class_index: int, demand_kbps: int
) -> AdmissionDecision:
    """Verdict for a request across its whole path.  Pure.

    No deficit row: Grant.  A row no lower class can serve, as is every row
    where admission evicts nothing (MAM): Deny.  Otherwise lower classes
    borrow headroom this class is entitled to: GrantWithPreemption with a
    minimal victim set, or Deny when no eligible set clears the rows.  Grant
    and Deny return shared decisions; a preemption's is built with
    ``tuple.__new__``, which skips the NamedTuple's Python-level ``__new__``.
    """
    rows = _deficit_rows(state.tables().admission[class_index][path], demand_kbps)
    if not rows:
        return _GRANT
    _link_id, lo, hi, _deficit = rows[-1]
    if lo >= hi:
        return _DENY
    try:
        victims = select_victims(state, rows)
    except Infeasible:
        return _DENY
    return tuple.__new__(AdmissionDecision, (GRANT_WITH_PREEMPTION, victims))


def reconfigure(state: NetworkState, new_config: BcConfig, mode: ReconfigMode) -> List[Lsp]:
    """Apply a new constraint vector at runtime.

    Hard: the vector takes effect immediately and any LSPs that no longer fit
    are preempted (newest first within the lowest over-quota class).  Returns
    the preempted LSPs.

    Soft: no LSP is ever touched.  While the change is pending, admission
    uses the tighter of the old and new value for each constraint, so
    lowered limits start denying at once while raised ones are withheld.
    The new vector becomes current once natural departures bring every link
    within its limits.  Returns [].
    """
    state.check_config(new_config)
    if mode is SOFT:
        state.pending_soft_bc = new_config
        promote_pending_if_clear(state)
        return []
    state.bc_config = new_config
    state.pending_soft_bc = None
    rows = _deficit_rows(state.tables().current[tuple(state.topology.links)], 0)
    return [release(state, lsp.id, PREEMPTED) for lsp in _choose_victims(state, rows)]


def promote_pending_if_clear(state: NetworkState) -> bool:
    """Make a pending soft config current once nothing violates it."""
    pending = state.pending_soft_bc
    if pending is None:
        return False
    if _deficit_rows(state.tables().pending[tuple(state.topology.links)], 0):
        return False
    state.bc_config = pending
    state.pending_soft_bc = None
    return True

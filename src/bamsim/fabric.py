"""Emulated switch fabric: the flow-rule tables the controller programs.

An admitted LSP has one forwarding rule on every interior switch of its
path, matched on the flow's match tuple, owned by the LSP and rate-limited
to its demand.  Those rules follow from the LSP, so the fabric keeps only
that intent: one record per LSP, ``owner -> (lsp, match)``, holding the
registry's own ``Lsp``, and a conflict index from each match to its one
owner, as an MPLS ingress maps each flow to one LSP, whatever the route.  A
grant and a teardown touch one record and one index entry and build no
per-switch object; a route of n >= 1 links programs n - 1 rules, and a
running count keeps their sum.  ``lookup``, ``rules_on``, ``owner_rules``
and ``dump`` derive the per-switch ``FlowRule``s from the records and
``Topology.route_hops``.  A blocked request never lands in a table; only its
id is kept, as an ephemeral drop record, so the deny history stays
inspectable.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .core import Lsp, Topology, UnknownSwitch, mbps


class RuleConflict(Exception):
    """The match is held by another active LSP, or the owner already holds
    rules."""


class FlowMatch(NamedTuple):
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str = "tcp"

    def key(self) -> str:
        return "%s/%s:%d->%s:%d" % (
            self.protocol, self.src_ip, self.src_port, self.dst_ip, self.dst_port,
        )


class FlowRule(NamedTuple):
    """A forwarding rule: out port, rate limit (the LSP's demand) and owner LSP."""

    switch_id: str
    match: FlowMatch
    out_port: int
    rate_kbps: int
    owner: int


class Fabric:
    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._records: Dict[int, tuple] = {}  # owner -> (lsp, match)
        self._holders: Dict[FlowMatch, int] = {}  # match -> its owner
        self._count = 0  # the per-switch rules the records program
        self.drops: List[int] = []  # the ids of blocked requests

    def rule_count(self) -> int:
        return self._count

    def _table(self, records: Dict[int, tuple]) -> List[FlowRule]:
        """Every rule ``records`` program, in (switch, match key) order."""
        hops = self.topology.route_hops
        rules = [FlowRule(switch, match, port, lsp.demand_kbps, owner)
                 for owner, (lsp, match) in records.items()
                 for switch, port in hops[lsp.path, lsp.src_host]]
        return sorted(rules, key=lambda rule: (rule.switch_id, rule.match.key()))

    def rules_on(self, switch: str) -> List[FlowRule]:
        if switch not in self.topology.switches:
            raise UnknownSwitch(switch)
        return [rule for rule in self._table(self._records) if rule.switch_id == switch]

    def lookup(self, switch: str, match: FlowMatch) -> Optional[FlowRule]:
        """Pure read; None signals a table miss."""
        return next((rule for rule in self.rules_on(switch) if rule.match == match), None)

    def owner_rules(self, owner: int) -> List[FlowRule]:
        records = self._records
        return self._table({owner: records[owner]} if owner in records else {})

    def install_path(self, lsp: Lsp, match: FlowMatch) -> int:
        """One forwarding rule per interior switch of the LSP's path, each
        toward the path's next link, all or nothing; returns how many.  An
        owner already installed, or a match that another owner holds, raises
        ``RuleConflict`` and writes nothing; the latter names that owner."""
        owner, _c, _demand, path, src_host, _admit_time = lsp
        if owner is None:
            raise ValueError("forward rules must carry an owner LSP")
        rules = len(self.topology.route_hops[path, src_host])
        records = self._records
        if owner in records:
            raise RuleConflict("LSP %d already holds rules" % owner)
        holder = self._holders.setdefault(match, owner)
        if holder != owner:
            raise RuleConflict("LSP %d already has a rule for %s" % (holder, match.key()))
        records[owner] = lsp, match
        self._count += rules
        return rules

    def remove_by_owner(self, lsp_id: int) -> int:
        """Retire an LSP's rules; returns how many per-switch rules it held,
        0 for an owner with none."""
        record = self._records.pop(lsp_id, None)
        if record is None:
            return 0
        lsp, match = record
        del self._holders[match]
        path = lsp.path
        rules = len(path) - 1 if path else 0  # the empty route programs none
        self._count -= rules
        return rules

    def record_drop(self, request_id: int) -> None:
        """Log a deny: blocked flows get no persistent rule, only an
        ephemeral drop record at the ingress, the request's id."""
        self.drops.append(request_id)

    def dump(self) -> str:
        """Stable textual table: switch, match, action, rate (Mbps), owner."""
        return "\n".join("%s\t%s\tfwd:%d\t%g\t%s" % (rule.switch_id, rule.match.key(), rule.out_port,
                                                     mbps(rule.rate_kbps), rule.owner)
                         for rule in self._table(self._records))

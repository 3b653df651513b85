"""Emulated switch fabric: the flow-rule tables the controller programs.

Admitting an LSP installs exactly one forwarding rule on every switch along
its path, keyed by the flow's match tuple, owned by the LSP and rate-limited
to its demand.  ``install_path`` is the only way a rule gets into a table.
Tearing an LSP down (completion or preemption) removes its rules by owner,
through an owner -> slots index that ``install_path`` keeps, so teardown
costs the LSP's path length, not the table size.  A blocked request never
lands in a table; the request itself is kept as an ephemeral drop record so
the deny history stays inspectable.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .core import Lsp, Topology, UnknownSwitch, mbps


class RuleConflict(Exception):
    """A different rule already occupies this (switch, match) slot."""


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


Slot = Tuple[str, str]  # (switch id, match key)


class Fabric:
    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._rules: Dict[Slot, FlowRule] = {}
        self._by_owner: Dict[int, List[Slot]] = {}
        self.drops: list = []  # blocked requests, as the controller passed them

    def _check_switch(self, switch: str) -> None:
        if switch not in self.topology.switches:
            raise UnknownSwitch(switch)

    def rule_count(self) -> int:
        return len(self._rules)

    def lookup(self, switch: str, match: FlowMatch) -> Optional[FlowRule]:
        """Pure read; None signals a table miss."""
        self._check_switch(switch)
        return self._rules.get((switch, match.key()))

    def rules_on(self, switch: str) -> List[FlowRule]:
        self._check_switch(switch)
        return [r for (sw, _m), r in sorted(self._rules.items()) if sw == switch]

    def owner_rules(self, owner: int) -> List[FlowRule]:
        return [self._rules[slot] for slot in sorted(self._by_owner.get(owner, ()))]

    def install_path(self, lsp: Lsp, match: FlowMatch) -> List[FlowRule]:
        """One forwarding rule per switch on the LSP's path, all or nothing.

        Each switch forwards toward the next link of the path; the out port
        is the switch's port on that link.  The route's hops come from the
        topology's cache, and every slot is tested before any rule is written.
        """
        owner, rate = lsp.id, lsp.demand_kbps
        if owner is None:
            raise ValueError("forward rules must carry an owner LSP")
        key, table, new = match.key(), self._rules, tuple.__new__
        slots, rules = [], []
        for switch, port in self.topology.route_hops[lsp.path, lsp.src_host]:
            slot = (switch, key)
            if slot in table:
                raise RuleConflict("%s already has a rule for %s" % slot)
            slots.append(slot)
            rules.append(new(FlowRule, (switch, match, port, rate, owner)))  # without FlowRule.__new__
        table.update(zip(slots, rules))
        self._by_owner.setdefault(owner, []).extend(slots)
        return rules

    def remove_by_owner(self, lsp_id: int) -> int:
        """Drop every rule owned by an LSP; returns how many were removed
        (the number of switches the LSP occupied)."""
        slots = self._by_owner.pop(lsp_id, ())
        for slot in slots:
            del self._rules[slot]
        return len(slots)

    def record_drop(self, request) -> None:
        """Log a deny: blocked flows get no persistent rule, only an
        ephemeral drop record at the ingress, which is the request itself."""
        self.drops.append(request)

    def dump(self) -> str:
        """Stable textual table: switch, match, action, rate (Mbps), owner."""
        lines = []
        for (switch, key), rule in sorted(self._rules.items()):
            lines.append(
                "%s\t%s\tfwd:%d\t%g\t%s"
                % (switch, key, rule.out_port, mbps(rule.rate_kbps), rule.owner)
            )
        return "\n".join(lines)

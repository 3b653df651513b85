"""Centralized admission controller.

Every request flows through the same pipeline: classify its match fields to
a traffic class and a precomputed route, consult the decision engine under the
active constraint config, then either program the fabric (grant), evict the
chosen victims first (grant with preemption), or log a drop at the ingress
(deny).  Expiries and runtime reconfigurations pass through the same object,
so the journal is a single ordered record of everything that happened.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from . import bam
from .bam import DENY
from .core import (
    COMPLETED,
    PREEMPTED,
    Lsp,
    NetworkState,
    NoRoute,
    commit,
    mbps,
    release,
)
from .fabric import Fabric, FlowMatch
from .metrics import Journal


class ClassificationFailure(Exception):
    """A request's match fields do not resolve to a class and a route."""


class LspRequest(NamedTuple):
    """One emulated flow request, as the schedule emits it and the controller
    reads it: the stream id and arrival time plus the header fields the
    controller classifies on, like an OpenFlow packet-in."""

    id: int  # 1-based stream position, also the LSP id
    time: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int


class Classifier:
    """Destination-port rules mapping flows to classes (first match wins)
    plus the static ip-pair route table, both fixed at scenario load."""

    def __init__(self, port_rules: List[Tuple[int, int, int]],
                 routes: Dict[Tuple[str, str], Tuple[Tuple[str, ...], str, str]]) -> None:
        self._port_rules = port_rules  # (lo, hi, class)
        self._routes = routes  # (src ip, dst ip) -> (path, src host, dst host)

    @classmethod
    def for_state(cls, state: NetworkState, port_rules: List[Tuple[int, int, int]]) -> "Classifier":
        """Port rules in table order; routes precomputed for every connected
        host pair (static routing)."""
        topology = state.topology
        hosts = topology.hosts
        routes = {}
        for src, src_ip in hosts.items():
            for dst, dst_ip in hosts.items():
                if src == dst:
                    continue
                try:
                    routes[src_ip, dst_ip] = (topology.shortest_path(src, dst), src, dst)
                except NoRoute:
                    continue
        return cls(port_rules, routes)

    def classify(self, req: LspRequest) -> Tuple[int, Tuple[str, ...], str, str]:
        """(class_index, path, src_host, dst_host) for a request, from the
        match fields it carries: the class from its destination port, the
        route from its source and destination IPs."""
        dst_port = req.dst_port
        for lo, hi, class_index in self._port_rules:
            if lo <= dst_port <= hi:
                break
        else:
            raise ClassificationFailure("no class rule matches port %d" % dst_port)
        route = self._routes.get((req.src_ip, req.dst_ip))
        if route is None:
            raise ClassificationFailure("no route for %s -> %s" % (req.src_ip, req.dst_ip))
        path, src_host, dst_host = route
        return class_index, path, src_host, dst_host


class Controller:
    def __init__(self, state: NetworkState, fabric: Fabric, classifier: Classifier) -> None:
        self.state = state
        self.fabric = fabric
        self.classifier = classifier
        self.journal = Journal()
        # Per class, (demand in kbps, in Mbps): the classes are fixed at load.
        self._demands = [(c.max_lsp_kbps, mbps(c.max_lsp_kbps)) for c in state.classes]

    def handle_request(self, req: LspRequest) -> Optional[Lsp]:
        """Admit, admit-with-preemption, or block one request.  Returns the
        admitted LSP, or None for a deny, which builds no LSP."""
        state = self.state
        journal = self.journal
        lsp_id, now = req.id, req.time
        class_index, path, src_host, dst_host = self.classifier.classify(req)
        demand, demand_mbps = self._demands[class_index]
        state.counters.requested[class_index] += 1
        journal.append(("request", now, lsp_id, class_index, demand_mbps, src_host, dst_host))
        decision = bam.decide(state, path, class_index, demand)
        if decision.verdict is DENY:
            state.counters.blocked[class_index] += 1
            self.fabric.record_drop(req)
            journal.append(("block", now, lsp_id, class_index))
            return None
        victims = decision.victims
        if victims:
            remove = self.fabric.remove_by_owner
            for victim_id in victims:
                victim = release(state, victim_id, PREEMPTED)
                remove(victim_id)
                journal.append(("preempt", now, victim_id, victim.class_index, lsp_id))
        # Without the NamedTuples' Python-level __new__.
        new = tuple.__new__
        lsp = new(Lsp, (lsp_id, class_index, demand, path, src_host, now))
        commit(state, lsp)
        match = new(FlowMatch, (req.src_ip, req.dst_ip, req.src_port, req.dst_port, "tcp"))
        self.fabric.install_path(lsp, match)
        journal.append(("admit", now, lsp_id, class_index, path))
        if victims and bam.promote_pending_if_clear(state):
            self._log_promote(now)
        return lsp

    def handle_expiry(self, lsp_id: int, now: float) -> Lsp:
        """Natural completion at end of lifetime; ``release`` raises
        UnknownLsp if the LSP is not active."""
        lsp = release(self.state, lsp_id, COMPLETED)
        self.fabric.remove_by_owner(lsp_id)
        self.journal.append(("expire", now, lsp_id, lsp.class_index))
        if bam.promote_pending_if_clear(self.state):
            self._log_promote(now)
        return lsp

    def apply_reconfig(self, event: bam.ReconfigEvent, now: float) -> List[Lsp]:
        """Runtime constraint change; hard mode may evict LSPs."""
        preempted = bam.reconfigure(self.state, event.config, event.mode)
        journal = self.journal
        for victim in preempted:
            self.fabric.remove_by_owner(victim.id)
            journal.append(("preempt", now, victim.id, victim.class_index, None))
        journal.append((
            "reconfig", now, event.mode.value,
            tuple(mbps(v) for v in event.config.values_kbps or ()),
            tuple(v.id for v in preempted),
        ))
        if event.mode is bam.SOFT and self.state.pending_soft_bc is None:
            self._log_promote(now)
        return preempted

    def _log_promote(self, now: float) -> None:
        bc = self.state.bc_config.values_kbps or ()
        self.journal.append(("promote", now, tuple(mbps(v) for v in bc)))

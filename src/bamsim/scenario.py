"""Scenario files: parsing, request-schedule generation and the run loop.

A scenario is a small INI-like text file with sections for the topology, the
traffic classes, the constraint config, optional runtime reconfigurations,
the offered demand and the run parameters.  Demand is expressed as per
source/class totals spread over fixed-length cycles; arrival offsets inside a
cycle are drawn from a seeded RNG, so a scenario plus a seed is fully
deterministic.  Each schedule entry is a ``controller.LspRequest``, and the
loop hands the controller that same record.

The simulation is a discrete-event loop.  Arrivals are read from the
schedule in its (time, id) order.  Expiries wait in a FIFO: requests are
admitted in (time, id) order and live one fixed lifetime, so they come due
in that order too.  The timed reconfigurations are known up front and are
sorted once.  Ties at one timestamp resolve as departures first, then timed
reconfigurations, then new requests; equal-time departures go in LSP id
order.  Every handled request appends one row to the metrics log: the
watched link's allocation per class and the cumulative blocked and preempted
counts, handed over as a plain tuple whose values the log copies into its
flat cells.
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from math import inf, isfinite
from typing import Callable, Deque, Dict, List, Optional, Tuple

from . import bam
from .controller import Classifier, Controller, LspRequest
from .core import (
    BcConfig,
    InvalidBc,
    Model,
    NetworkState,
    NoRoute,
    Topology,
    TrafficClass,
    UnknownSwitch,
    host_ip,
    kbps,
)
from .fabric import Fabric
from .metrics import Journal, MetricsLog


class ScenarioError(Exception):
    """Malformed or inconsistent scenario text."""


class ParseError(ScenarioError):
    """Syntax error; message carries source and line number."""


class ValidationError(ScenarioError):
    """Well-formed text violating a scenario invariant."""


@dataclass
class ClassSpec:
    index: int
    rate_mbps: float
    port_lo: int
    port_hi: int


@dataclass
class DemandEntry:
    src: str
    dst: str
    class_index: int
    count: int
    start_cycle: int = 0


@dataclass
class ReconfigSpec:
    mode: str                      # "hard" | "soft"
    bc_mbps: List[float]
    percent: bool = False
    after_request: Optional[int] = None
    at_time: Optional[float] = None


@dataclass
class RunParams:
    cycles: int = 10
    cycle_length: float = 300.0
    lsp_lifetime: float = 300.0
    seed: int = 1
    stop: Optional[int] = None


@dataclass
class Scenario:
    source: str = "<memory>"
    nodes: List[Tuple[str, str]] = field(default_factory=list)   # (name, kind)
    links: List[Tuple[str, str, str, float]] = field(default_factory=list)
    bottleneck: Optional[str] = None
    classes: List[ClassSpec] = field(default_factory=list)
    model: str = "MAM"
    bc_mbps: List[float] = field(default_factory=list)
    bc_percent: bool = False
    bc_links: Optional[List[str]] = None
    reconfigs: List[ReconfigSpec] = field(default_factory=list)
    demands: List[DemandEntry] = field(default_factory=list)
    run: RunParams = field(default_factory=RunParams)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


# Bandwidths are held as integral kbps and reported in Mbps as floats: up to
# 2**53 kbps both are exact.
_MAX_MBPS = 2 ** 53 / 1000


def _number(token: str, limit: float = inf) -> float:
    """A finite figure no larger than ``limit``: the journal cannot spell NaN
    or the infinities, and the schedule cannot order them."""
    value = float(token)
    if not isfinite(value):
        raise ScenarioError("%s is not a finite number" % token)
    if abs(value) > limit:
        raise ScenarioError("%s is beyond %r" % (token, limit))
    return value


def _bandwidth(token: str, what: str) -> float:
    """A capacity or rate in Mbps that is at least 1 kbps, as the ledger counts."""
    value = _number(token, _MAX_MBPS)
    if kbps(value) <= 0:
        raise ValidationError("%s must be positive: %s Mbps rounds to %d kbps" % (what, token, kbps(value)))
    return value


def parse_file(path: str) -> Scenario:
    with open(path) as fh:
        return parse_text(fh.read(), source=path)


def parse_text(text: str, source: str = "<string>") -> Scenario:
    scn = Scenario(source=source)
    section = None
    horizon_line = 0  # the last line setting cycles, cycle_length or lsp_lifetime
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("topology", "classes", "bc", "reconfig", "demand", "run"):
                raise ParseError("%s:%d: unknown section [%s]" % (source, lineno, section))
            continue
        if section is None:
            raise ParseError("%s:%d: content before any section" % (source, lineno))
        tok = line.split()
        try:
            _parse_line(scn, section, tok)
        except ValidationError as exc:
            raise ValidationError("%s:%d: %s" % (source, lineno, exc)) from None
        except (ScenarioError, ValueError, IndexError) as exc:
            raise ParseError("%s:%d: %s" % (source, lineno, exc)) from None
        if section == "run" and tok[0] in ("cycles", "cycle_length", "lsp_lifetime"):
            horizon_line = lineno
        if section == "classes":
            new = scn.classes[-1]
            for old in scn.classes[:-1]:
                # The classifier takes the first matching range, so a port in
                # two ranges would be counted silently as the earlier class.
                if max(old.port_lo, new.port_lo) <= min(old.port_hi, new.port_hi):
                    raise ValidationError(
                        "%s:%d: class %d ports %d-%d overlap class %d ports %d-%d"
                        % (source, lineno, new.index, new.port_lo, new.port_hi,
                           old.index, old.port_lo, old.port_hi))
    run = scn.run
    try:
        horizon = run.cycles * run.cycle_length + run.lsp_lifetime
    except OverflowError:  # cycles beyond the float range
        horizon = inf
    if not isfinite(horizon):
        raise ValidationError(
            "%s:%d: the run outlasts the float range: cycles %d x cycle_length %r + lsp_lifetime %r"
            % (source, horizon_line, run.cycles, run.cycle_length, run.lsp_lifetime))
    _validate(scn)
    return scn


def _parse_line(scn: Scenario, section: str, tok: List[str]) -> None:
    key = tok[0]
    if section == "topology":
        if key == "node":
            if tok[2] not in ("host", "switch"):
                raise ScenarioError("node kind must be host or switch")
            scn.nodes.append((tok[1], tok[2]))
        elif key == "link":
            scn.links.append((tok[1], tok[2], tok[3], _bandwidth(tok[4], "link %s capacity" % tok[1])))
        elif key == "bottleneck":
            scn.bottleneck = tok[1]
        else:
            raise ScenarioError("unknown topology directive %r" % key)
    elif section == "classes":
        if key != "class":
            raise ScenarioError("unknown classes directive %r" % key)
        if tok[2] != "rate" or tok[4] != "ports":
            raise ScenarioError("expected: class <i> rate <mbps> ports <lo>-<hi>")
        lo, hi = tok[5].split("-", 1)
        scn.classes.append(ClassSpec(int(tok[1]), _bandwidth(tok[3], "class %s rate" % tok[1]), int(lo), int(hi)))
    elif section == "bc":
        if key == "model":
            if tok[1] not in ("MAM", "RDM"):
                raise ScenarioError("model must be MAM or RDM")
            scn.model = tok[1]
        elif key in ("bc", "bc%"):
            scn.bc_percent = key == "bc%"
            limit = inf if scn.bc_percent else _MAX_MBPS
            scn.bc_mbps = [_number(v, limit) for v in tok[1:]]
        elif key == "links":
            scn.bc_links = tok[1:]
        else:
            raise ScenarioError("unknown bc directive %r" % key)
    elif section == "reconfig":
        if key != "event":
            raise ScenarioError("unknown reconfig directive %r" % key)
        if tok[1] not in ("hard", "soft"):
            raise ScenarioError("reconfig mode must be hard or soft")
        spec = ReconfigSpec(mode=tok[1], bc_mbps=[])
        i = 2
        while i < len(tok):
            if tok[i] == "after_request":
                spec.after_request = int(tok[i + 1])
                i += 2
            elif tok[i] == "at_time":
                spec.at_time = _number(tok[i + 1])
                i += 2
            elif tok[i] in ("bc", "bc%"):
                spec.percent = tok[i] == "bc%"
                limit = inf if spec.percent else _MAX_MBPS
                spec.bc_mbps = [_number(v, limit) for v in tok[i + 1 :]]
                i = len(tok)
            else:
                raise ScenarioError("unknown reconfig token %r" % tok[i])
        if (spec.after_request is None) == (spec.at_time is None):
            raise ScenarioError("event needs exactly one of after_request/at_time")
        if not spec.bc_mbps:
            raise ScenarioError("event needs a bc vector")
        scn.reconfigs.append(spec)
    elif section == "demand":
        if key != "flows":
            raise ScenarioError("unknown demand directive %r" % key)
        if tok[3] != "class" or tok[5] != "count":
            raise ScenarioError("expected: flows <src> <dst> class <c> count <n> [start_cycle <k>]")
        entry = DemandEntry(tok[1], tok[2], int(tok[4]), int(tok[6]))
        if len(tok) > 7:
            if tok[7] != "start_cycle":
                raise ScenarioError("expected start_cycle, got %r" % tok[7])
            entry.start_cycle = int(tok[8])
        scn.demands.append(entry)
    elif section == "run":
        if key == "cycles":
            scn.run.cycles = int(tok[1])
        elif key == "cycle_length":
            scn.run.cycle_length = _number(tok[1])
        elif key == "lsp_lifetime":
            scn.run.lsp_lifetime = _number(tok[1])
        elif key == "seed":
            scn.run.seed = int(tok[1])
        elif key == "stop":
            scn.run.stop = int(tok[1])
        else:
            raise ScenarioError("unknown run directive %r" % key)


def _validate(scn: Scenario) -> None:
    src = scn.source
    if not scn.links:
        raise ValidationError("%s: no links defined" % src)
    if not scn.classes:
        raise ValidationError("%s: no traffic classes defined" % src)
    hosts = {n for n, k in scn.nodes if k == "host"}
    scn.classes.sort(key=lambda c: c.index)
    if [c.index for c in scn.classes] != list(range(len(scn.classes))):
        raise ValidationError("%s: class indices must be 0..n-1" % src)
    for c in scn.classes:
        if c.port_lo > c.port_hi:
            raise ValidationError("%s: class %d has an empty port range" % (src, c.index))
    link_ids = {lid for lid, _a, _b, _cap in scn.links}
    if scn.bottleneck is not None and scn.bottleneck not in link_ids:
        raise ValidationError("%s: bottleneck %s is not a link" % (src, scn.bottleneck))
    for lid in scn.bc_links or ():
        if lid not in link_ids:
            raise ValidationError("%s: bc links reference unknown link %s" % (src, lid))
    for d in scn.demands:
        if d.src not in hosts or d.dst not in hosts:
            raise ValidationError("%s: demand endpoints must be hosts" % src)
        if d.src == d.dst:
            raise ValidationError(
                "%s: demand %s -> %s has the same source and destination" % (src, d.src, d.dst)
            )
        if not 0 <= d.class_index < scn.n_classes:
            raise ValidationError("%s: demand references unknown class %d" % (src, d.class_index))
        if d.count < 0:
            raise ValidationError("%s: demand count must be >= 0" % src)
        if not 0 <= d.start_cycle < scn.run.cycles:
            raise ValidationError("%s: start_cycle %d outside run" % (src, d.start_cycle))
    if scn.run.cycles < 1 or scn.run.cycle_length <= 0 or scn.run.lsp_lifetime <= 0:
        raise ValidationError("%s: run parameters out of range" % src)
    total = sum(d.count for d in scn.demands)
    if scn.run.stop is not None and scn.run.stop != total:
        raise ValidationError(
            "%s: stop (%d) must equal the demand total (%d)" % (src, scn.run.stop, total)
        )
    for spec in scn.reconfigs:
        if spec.after_request is not None and not 1 <= spec.after_request <= total:
            raise ValidationError(
                "%s: reconfig after_request %d outside 1..%d, so it would never fire"
                % (src, spec.after_request, total)
            )


def _bc_config(scn: Scenario, mbps_values: List[float], percent: bool) -> BcConfig:
    governed = frozenset(scn.bc_links) if scn.bc_links else None
    if percent:
        return BcConfig(Model[scn.model], percents=tuple(mbps_values), applies_to=governed)
    return BcConfig(
        Model[scn.model], values_kbps=tuple(kbps(v) for v in mbps_values), applies_to=governed
    )


def build(scn: Scenario) -> Tuple[NetworkState, Fabric, List[bam.ReconfigEvent]]:
    """Instantiate the network state, fabric and reconfig events.  Checks
    that need the built topology (duplicate nodes and links, link endpoints,
    routes between demanded hosts) or the state (each constraint vector
    against the class count and the capacities) raise ValidationError here."""
    topo = Topology()
    try:
        for name, kind in scn.nodes:
            if kind == "host":
                topo.add_host(name)
            else:
                topo.add_switch(name)
        for lid, a, b, cap in scn.links:
            topo.add_link(lid, a, b, kbps(cap))
    except ValueError as exc:  # duplicate nodes or links, unknown link endpoints
        raise ValidationError("%s: %s" % (scn.source, exc)) from None
    topo.freeze()
    for d in scn.demands:  # each demand's route, as Classifier.for_state computes it
        try:
            topo.route_hops[topo.shortest_path(d.src, d.dst), d.src]
        except NoRoute:
            raise ValidationError("%s: no route for demand %s -> %s" % (scn.source, d.src, d.dst)) from None
        except UnknownSwitch as host:  # a host has no flow table to forward with
            raise ValidationError("%s: demand %s -> %s crosses host %s" % (scn.source, d.src, d.dst, host)) from None
    classes = [TrafficClass(kbps(c.rate_mbps)) for c in scn.classes]
    try:
        state = NetworkState(topo, classes, _bc_config(scn, scn.bc_mbps, scn.bc_percent))
        events = [
            bam.ReconfigEvent(
                mode=bam.ReconfigMode(spec.mode),
                config=_bc_config(scn, spec.bc_mbps, spec.percent),
                after_request=spec.after_request,
                at_time=spec.at_time,
            )
            for spec in scn.reconfigs
        ]
        for event in events:
            state.check_config(event.config)
    except InvalidBc as exc:
        raise ValidationError("%s: %s" % (scn.source, exc)) from None
    return state, Fabric(topo), events


def generate_schedule(scn: Scenario) -> List[LspRequest]:
    """Expand demand totals into a timed, id-ordered request stream.

    Each demand entry's count is split as evenly as possible over its active
    cycles (earlier cycles take the remainder); every request gets a uniform
    offset inside its cycle from the scenario RNG.  Draw order is file order,
    then cycle, then index, so the stream is reproducible for a seed.  A
    request carries its endpoints as the IPs ``build`` gives the hosts, and
    its class as a destination port inside the class's range.
    """
    rng = random.Random(scn.run.seed)
    draw = rng.random
    cycle_length = scn.run.cycle_length
    hosts = [name for name, kind in scn.nodes if kind == "host"]
    ips = {name: host_ip(i) for i, name in enumerate(hosts)}
    ports = {c.index: (c.port_lo, c.port_hi - c.port_lo + 1) for c in scn.classes}
    times: List[float] = []
    fields: List[Tuple[str, str, int, int]] = []  # (src ip, dst ip, port lo, port span)
    for entry in scn.demands:
        entry_fields = (ips[entry.src], ips[entry.dst], *ports[entry.class_index])
        n_cycles = scn.run.cycles - entry.start_cycle
        base, rem = divmod(entry.count, n_cycles)
        # A cycle past the first `count` gets no request (base is then 0),
        # so the loop's cost follows the request count, not `cycles`.
        for cycle in range(entry.start_cycle, min(scn.run.cycles, entry.start_cycle + entry.count)):
            per_cycle = base + (1 if cycle - entry.start_cycle < rem else 0)
            start = cycle * cycle_length
            # rng.uniform(0.0, cycle_length), bit for bit, without its call.
            times += [start + cycle_length * draw() for _ in range(per_cycle)]
            fields += [entry_fields] * per_cycle
    # By time, then generation order: the sort is stable.
    order = sorted(range(len(times)), key=times.__getitem__)
    make = LspRequest._make  # without the NamedTuple's Python-level __new__
    schedule: List[LspRequest] = []
    for position, i in enumerate(order, start=1):
        src_ip, dst_ip, lo, span = fields[i]
        schedule.append(
            make((position, times[i], src_ip, dst_ip, 20000 + position, lo + position % span))
        )
    return schedule


@dataclass
class RunResult:
    scenario: Scenario
    state: NetworkState
    fabric: Fabric
    controller: Controller
    schedule: List[LspRequest]
    metrics: MetricsLog

    @property
    def journal(self) -> Journal:
        return self.controller.journal


def simulate(
    scn: Scenario,
    on_event: Optional[Callable[[str, NetworkState, Fabric], None]] = None,
) -> RunResult:
    """Run a scenario to completion (or to its stop count).

    ``on_event`` is called after every handled event with the event kind, the
    live state and the fabric; tests use it to assert invariants continuously.
    """
    state, fabric, events = build(scn)
    classifier = Classifier.for_state(state, [(c.port_lo, c.port_hi, c.index) for c in scn.classes])
    controller = Controller(state, fabric, classifier)
    schedule = generate_schedule(scn)
    metrics = MetricsLog(scn.n_classes)
    watched = scn.bottleneck or min(state.topology.links)
    alloc = state.topology.links[watched].alloc
    counters = state.counters
    lifetime, stop = scn.run.lsp_lifetime, scn.run.stop

    by_count: Dict[int, List[bam.ReconfigEvent]] = {}
    # (time, index in ``events``) of each timed reconfiguration, latest
    # first, so the next one is last.
    timed: List[Tuple[float, int]] = []
    for idx, event in enumerate(events):
        if event.at_time is not None:
            timed.append((event.at_time, idx))
        else:
            by_count.setdefault(event.after_request, []).append(event)
    timed.sort(reverse=True)
    # (time, LSP id) of each grant's expiry.  Grants come in (time, id) order
    # and ``now + lifetime`` is monotone in ``now``, so appending keeps the
    # FIFO in (time, id) order.
    expiries: Deque[Tuple[float, int]] = deque()

    def notify(kind: str) -> None:
        if on_event is not None:
            on_event(kind, state, fabric)

    def run_timers(until: float) -> None:
        """Handle, in time order, every timer due at or before ``until``;
        at one time, the expiries before the timed reconfigurations."""
        while True:
            if expiries and expiries[0][0] <= until and not (timed and timed[-1][0] < expiries[0][0]):
                now, lsp_id = expiries.popleft()
                # Expiries of preempted LSPs are left in the FIFO; skip them here.
                if lsp_id in state.active_lsps:
                    controller.handle_expiry(lsp_id, now)
                    notify("expire")
            elif timed and timed[-1][0] <= until:
                now, idx = timed.pop()
                controller.apply_reconfig(events[idx], now)
                notify("reconfig")
            else:
                return

    # Past the stop count no request is handled; the timers still run out.
    arrivals = schedule if stop is None else schedule[:max(stop, 0)]
    # A row reuses the previous row's tuple when the new one is equal, so the
    # CSV writer renders each run of equal cells once.  The log copies the
    # blocked counts out of the live list.
    util = preempted = None
    for handled, request in enumerate(arrivals, start=1):
        now = request.time
        if expiries and expiries[0][0] <= now or timed and timed[-1][0] <= now:
            run_timers(now)
        controller.handle_request(request)
        if request.id in state.active_lsps:
            expiries.append((now + lifetime, request.id))
        fresh = tuple(alloc)
        if fresh != util:
            util = fresh
        fresh = tuple(counters.preempted)
        if fresh != preempted:
            preempted = fresh
        metrics.append((request.id, now, util, counters.blocked, preempted))
        notify("request")
        for event in by_count.get(handled, ()):
            controller.apply_reconfig(event, now)
            notify("reconfig")
    run_timers(inf)
    return RunResult(scn, state, fabric, controller, schedule, metrics)


def bundled_names() -> List[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".scn"))


def load_bundled(name: str) -> Scenario:
    name = name.removesuffix(".scn")
    path = resources.files(__package__) / "scenarios" / (name + ".scn")
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        raise ScenarioError("no bundled scenario named %r" % name) from None
    return parse_text(text, source="bundled:%s" % name)


def load(path_or_name: str) -> Scenario:
    """A filesystem path, or the name of a bundled scenario."""
    if os.path.exists(path_or_name):
        return parse_file(path_or_name)
    return load_bundled(path_or_name)

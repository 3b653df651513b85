"""Domain model for an emulated MPLS network: traffic classes, links, LSPs,
the per-link per-class bandwidth ledger, and the constraint tables that
admission, reconfiguration and the checks read it against.

Bandwidth is tracked internally as integral kilobits per second so that the
allocation arithmetic stays exact; user-facing figures are in Mbps.  Paths are
ordered link-id sequences; routing is minimum-hop with a lexicographic
tie-break on the link-id sequence, so it is deterministic for a fixed
topology.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


def kbps(mbps: float) -> int:
    """Convert an Mbps figure to the internal integral kbps unit."""
    return int(round(mbps * 1000))


def mbps(value_kbps: int) -> float:
    return value_kbps / 1000.0


def host_ip(index: int) -> str:
    """Synthetic IP of the index-th host (from 0), in the order hosts are added."""
    return "10.0.0.%d" % (index + 1)


class NoRoute(Exception):
    """Source and destination are not connected."""


class CapacityViolation(Exception):
    """Committing a reservation would overrun a link's physical capacity."""


class UnknownLsp(Exception):
    """LSP id is not present in the active registry."""


class InvalidBc(Exception):
    """Bandwidth-constraint vector is malformed for the model in use."""


class UnknownSwitch(Exception):
    """Rule operation references a switch the fabric does not have."""


class Model(enum.Enum):
    MAM = "MAM"
    RDM = "RDM"


class LspState(enum.Enum):
    """Why an LSP was released."""

    PREEMPTED = "Preempted"
    COMPLETED = "Completed"


# The members per-event code reads.  On CPython 3.10 and 3.11, reading a
# member through its class runs Python code (~100 ns); a global read is ~8.
PREEMPTED, COMPLETED = LspState.PREEMPTED, LspState.COMPLETED


@dataclass(frozen=True)
class TrafficClass:
    """A class type (CT): the fixed per-LSP bandwidth demand.  A class's
    index is its position in ``NetworkState.classes``."""

    max_lsp_kbps: int

    def __post_init__(self) -> None:
        if self.max_lsp_kbps <= 0:
            raise ValueError("max LSP bandwidth must be positive")


@dataclass(frozen=True)
class BcConfig:
    """A bandwidth-constraint vector plus the model that interprets it.

    Values are either absolute (kbps, one per constraint index) or percentages
    of each governed link's capacity; exactly one of the two must be given.
    ``applies_to`` limits which links the config governs (None means all).

    Under MAM constraint c caps the allocation of class c alone.  Under RDM
    constraint b caps the summed allocation of classes b..n-1, so the vector
    must be non-increasing.
    """

    model: Model
    values_kbps: Optional[Tuple[int, ...]] = None
    percents: Optional[Tuple[float, ...]] = None
    applies_to: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if (self.values_kbps is None) == (self.percents is None):
            raise InvalidBc("exactly one of values_kbps/percents is required")
        raw: Sequence[float] = (
            self.values_kbps if self.values_kbps is not None else self.percents
        )
        if len(raw) == 0:
            raise InvalidBc("empty constraint vector")
        if any(v < 0 for v in raw):
            raise InvalidBc("constraints must be non-negative")
        if self.percents is not None and any(v > 100 for v in self.percents):
            raise InvalidBc("percentages must be <= 100")
        if self.model is Model.RDM:
            if any(a < b for a, b in zip(raw, raw[1:])):
                raise InvalidBc("RDM constraints must be non-increasing")

    @property
    def n_classes(self) -> int:
        raw = self.values_kbps if self.values_kbps is not None else self.percents
        return len(raw)

    def governs(self, link_id: str) -> bool:
        return self.applies_to is None or link_id in self.applies_to

    def bc_for(self, link: "Link") -> Optional[Tuple[int, ...]]:
        """The effective kbps constraint vector on one link, or None if the
        link is outside this config's scope."""
        if not self.governs(link.id):
            return None
        if self.values_kbps is not None:
            return self.values_kbps
        return tuple(int(round(link.capacity_kbps * p / 100.0)) for p in self.percents)


@dataclass
class Link:
    """An undirected link with one allocation counter per traffic class,
    ``alloc``: bound by the topology's one ``NetworkState``; plans read it live."""

    id: str
    a: str
    b: str
    capacity_kbps: int
    alloc: List[int] = field(default_factory=list)

    def other_end(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError("node %r is not an endpoint of link %s" % (node, self.id))


class Lsp(NamedTuple):
    """An admitted label-switched path.  Immutable: it is active exactly
    while ``NetworkState.active_lsps`` holds it."""

    id: int
    class_index: int
    demand_kbps: int
    path: Tuple[str, ...]
    src_host: str
    admit_time: float


class Memo(dict):
    """Values by key, each built by ``build(key)`` on the key's first use.
    A build that raises stores nothing, so the key raises again."""

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class Topology:
    """Nodes, links, deterministic port numbering and min-hop routing."""

    def __init__(self) -> None:
        self.hosts: Dict[str, str] = {}  # name -> synthetic ip
        self.switches: List[str] = []
        self.links: Dict[str, Link] = {}
        self._adjacency: Dict[str, List[Tuple[str, str]]] = {}
        self._ports: Dict[Tuple[str, str], int] = {}

    def add_host(self, name: str) -> None:
        if name in self.hosts or name in self.switches:
            raise ValueError("duplicate node %r" % name)
        self.hosts[name] = host_ip(len(self.hosts))

    def add_switch(self, name: str) -> None:
        if name in self.hosts or name in self.switches:
            raise ValueError("duplicate node %r" % name)
        self.switches.append(name)

    def add_link(self, link_id: str, a: str, b: str, capacity_kbps: int) -> None:
        for node in (a, b):
            if node not in self.hosts and node not in self.switches:
                raise ValueError("link %s references unknown node %r" % (link_id, node))
        if link_id in self.links:
            raise ValueError("duplicate link %r" % link_id)
        self.links[link_id] = Link(link_id, a, b, capacity_kbps)

    def freeze(self) -> None:
        """Finalize adjacency and switch port numbers, and start the route
        caches: ``path_links[path]``, the path's links, and
        ``route_hops[path, src]``, its interior ``(switch, out_port)`` hops."""
        self._adjacency = {name: [] for name in list(self.hosts) + self.switches}
        for link in self.links.values():
            self._adjacency[link.a].append((link.id, link.b))
            self._adjacency[link.b].append((link.id, link.a))
        for entries in self._adjacency.values():
            entries.sort()
        # Ports are synthetic: on each switch, attached links sorted by id
        # get ports 1..n.  Deterministic for a fixed topology.
        for switch in self.switches:
            for port, (link_id, _peer) in enumerate(self._adjacency[switch], start=1):
                self._ports[(switch, link_id)] = port
        self.path_links = Memo(lambda path: tuple(map(self.links.__getitem__, path)))
        self.route_hops = Memo(self._hops)

    def _hops(self, route: Tuple[Tuple[str, ...], str]) -> Tuple[Tuple[str, int], ...]:
        path, src = route
        interior = self.nodes_on(path, src)[1:-1]
        for node in interior:
            if node not in self.switches:
                raise UnknownSwitch(node)
        return tuple(zip(interior, map(self.port_of, interior, path[1:])))

    def port_of(self, switch: str, link_id: str) -> int:
        try:
            return self._ports[(switch, link_id)]
        except KeyError:
            raise ValueError("no port for link %s on switch %s" % (link_id, switch))

    def nodes_on(self, path: Sequence[str], src: str) -> List[str]:
        """The node sequence visited by a path starting at src."""
        nodes = [src]
        for link_id in path:
            nodes.append(self.links[link_id].other_end(nodes[-1]))
        return nodes

    def switches_on(self, path: Sequence[str], src: str) -> List[str]:
        """Interior switches traversed by a path (endpoints excluded)."""
        interior = self.nodes_on(path, src)[1:-1]
        switches = set(self.switches)
        return [n for n in interior if n in self._adjacency and n in switches]

    def shortest_path(self, src: str, dst: str) -> Tuple[str, ...]:
        """Deterministic minimum-hop route between two nodes as link ids.

        Ties are broken by the lexicographically smallest link-id sequence.
        Raises NoRoute when the nodes are disconnected; src == dst yields ().
        """
        if src == dst:
            return ()
        dist_to_dst = self._bfs(dst)  # links are undirected: src's distance is the route's
        if src not in dist_to_dst:
            raise NoRoute("%s -> %s" % (src, dst))
        total = dist_to_dst[src]
        # Greedy reconstruction: at each node take the smallest link id that
        # still lies on some minimum-hop path.  This yields the
        # lexicographically smallest link-id sequence among min-hop paths.
        path: List[str] = []
        node = src
        hops = 0
        while node != dst:
            for link_id, peer in self._adjacency[node]:
                if dist_to_dst.get(peer) == total - hops - 1:
                    path.append(link_id)
                    node = peer
                    hops += 1
                    break
        return tuple(path)

    def _bfs(self, start: str) -> Dict[str, int]:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for _link_id, peer in self._adjacency[node]:
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        nxt.append(peer)
            frontier = nxt
        return dist


@dataclass
class Counters:
    """Monotone per-class event counters."""

    requested: List[int]
    admitted: List[int]
    blocked: List[int]
    preempted: List[int]
    completed: List[int]


def age_key(lsp: Lsp) -> Tuple[float, int]:
    """Eviction age of an active LSP: admit time, then id."""
    return (lsp.admit_time, lsp.id)


# A row of a link's constraint table, (held, lo, hi, cap, name): classes
# lo..hi-1 together hold at most cap kbps.  held(alloc) is what they hold on
# a link whose ledger is alloc, and name says which constraint a check
# reports as breached.  A plain tuple: admission unpacks one per row and
# path link, and a NamedTuple misses the interpreter's fast path for that.
Constraint = Tuple[Callable[[List[int]], int], int, int, int, str]

# A constraint table: its rows by link id.
Table = Dict[str, Tuple[Constraint, ...]]


def _held(lo: int, hi: int, n: int) -> Callable[[List[int]], int]:
    """Classes lo..hi-1 summed from a link's ledger: one C call for a single
    class or for every class, which most rows are."""
    if hi - lo == 1:
        return itemgetter(lo)
    if hi - lo == n:
        return sum
    return lambda alloc: sum(alloc[lo:hi])


def constraint_table(topology: Topology, n: int, *configs: BcConfig) -> Tuple[Table, bool]:
    """The rows the configs impose on each link, and whether admission may
    evict in their service: the one place the allocation models differ.

    Every link has the capacity row (0, n).  MAM caps each class alone, a
    row (c, c + 1) per class; its partitions are private, so admission
    evicts nothing.  RDM caps classes b..n-1 together, a row (b, n) per
    constraint index; lower classes borrow unused headroom, so admission of
    class c may evict classes below c.  Where rows cover the same classes
    the smallest cap holds, so a pending soft config tightens the current
    one.  Rows come narrowest first, then by lo: a check names the
    narrowest breach, and RDM admission meets (c, n), which no victim can
    serve, first.
    """
    table = {}
    for link_id, link in topology.links.items():
        rows = [(0, n, link.capacity_kbps, "capacity")]
        for config in configs:
            nested = config.model is Model.RDM
            for lo, cap in enumerate(config.bc_for(link) or ()):
                rows.append((lo, n, cap, "nested sum from %d" % lo) if nested
                            else (lo, lo + 1, cap, "class %d" % lo))
        tightest: Dict[Tuple[int, int], Constraint] = {}
        for lo, hi, cap, name in sorted(rows, key=lambda row: (row[1] - row[0], row[0], row[2])):
            tightest.setdefault((lo, hi), (_held(lo, hi, n), lo, hi, cap, name))
        table[link_id] = tuple(tightest.values())
    return table, all(config.model is Model.RDM for config in configs)


# A plan: rows (link_id, alloc, held, lo, top, cap), each a constraint row
# bound to its link's ledger list, whose classes lo..top-1 may be evicted in
# its service.  They run over a path's links in path order, then row order,
# so a walk over them looks nothing up.
Plan = Tuple[Tuple[str, List[int], Callable[[List[int]], int], int, int, int], ...]


class Plans(Memo):
    """A constraint table and its plans by path, each built on the path's
    first use, in which a row's victims are its classes below ``below``.
    Admission walks the request's path; reconfiguration and promotion walk
    every link, in topology order, and may evict any class.  ``binding`` is
    the plan row that denied admission last, or None: see ``bam.decide``."""

    def __init__(self, topology: Topology, table: Table, below: int) -> None:
        links = topology.links
        super().__init__(lambda path: tuple(
            (lid, links[lid].alloc, held, lo, max(lo, min(hi, below)), cap)
            for lid in path for held, lo, hi, cap, _name in table[lid]))
        self.table = table
        self.binding = None


class Tables(NamedTuple):
    current: Plans
    pending: Optional[Plans]
    admission: List[Plans]  # by class: the rows of both configs that hold it


@dataclass
class NetworkState:
    """The controller's authoritative view: topology, allocation ledger,
    active-LSP registry, constraint configuration and counters.  Only the
    topology, which may back no other state, the classes and the config are
    given: the state zeroes every link's ledger and starts with no LSP and
    nothing pending.

    ``active_by_class[c]`` maps id to LSP for the active LSPs of class c,
    in ``age_key`` order, so newest last; commit and release keep it in step
    with ``active_lsps``.  The loop admits in (time, id) order, so a commit
    appends; release deletes one key.
    """

    topology: Topology
    classes: List[TrafficClass]
    bc_config: BcConfig
    pending_soft_bc: Optional[BcConfig] = field(init=False, default=None)
    active_lsps: Dict[int, Lsp] = field(init=False, default_factory=dict)
    counters: Counters = field(init=False)
    active_by_class: List[Dict[int, Lsp]] = field(init=False, repr=False)
    # (bc_config, pending_soft_bc, Tables): see tables(), whose identity
    # test bam.decide repeats inline.
    _tables: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.check_config(self.bc_config)
        n = len(self.classes)
        if any(link.alloc for link in self.topology.links.values()):
            raise ValueError("the topology already backs a NetworkState: its links carry a ledger")
        for link in self.topology.links.values():
            link.alloc = [0] * n
        self.counters = Counters(*([0] * n for _ in range(5)))
        self.active_by_class = [{} for _ in self.classes]
        self._tables = (None, None, None)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def check_config(self, config: BcConfig) -> None:
        """Reject a config this state cannot take: another model, another
        class count, or a constraint above a governed link's capacity."""
        if config.model is not self.bc_config.model:
            raise InvalidBc("reconfiguration cannot change the allocation model")
        if config.n_classes != len(self.classes):
            raise InvalidBc("constraint vector length must match class count")
        for link in self.topology.links.values():
            for b, value in enumerate(config.bc_for(link) or ()):
                if value > link.capacity_kbps:
                    raise InvalidBc("constraint %d (%d kbps) exceeds capacity of link %s"
                                    % (b, value, link.id))

    def tables(self) -> Tables:
        """The constraint tables of the current and the pending config, and
        per class the admission table, each with its plans, built once per
        pair of the two configs.  Both are frozen, so a reconfiguration, a
        promotion or a direct assignment puts another object in place and
        the identity test sees it without a hook.  Link capacities are fixed
        once the topology is frozen."""
        current, pending, tables = self._tables
        if current is self.bc_config and pending is self.pending_soft_bc:
            return tables
        topology, current, pending, n = self.topology, self.bc_config, self.pending_soft_bc, self.n_classes
        now, borrows = constraint_table(topology, n, current)
        merged, soon = now, None
        if pending is not None:
            soon = Plans(topology, constraint_table(topology, n, pending)[0], n)
            merged, borrows = constraint_table(topology, n, current, pending)
        admission = [
            Plans(topology,
                  {lid: tuple(r for r in rows if r[1] <= c < r[2]) for lid, rows in merged.items()},
                  c if borrows else 0)
            for c in range(n)
        ]
        tables = Tables(Plans(topology, now, n), soon, admission)
        self._tables = (current, pending, tables)
        return tables


def commit(state: NetworkState, lsp: Lsp) -> None:
    """Reserve an LSP's demand on every link of its path and activate it.

    The LSP's id must not be active.  Validation runs before any link is
    touched, so a CapacityViolation leaves the ledger unchanged, and the
    class-list insert, which compares age keys, comes before the ledger.  An
    LSP older than its class's newest, as only a hand-built state commits,
    re-sorts that class's dict.
    """
    if lsp.id in state.active_lsps:
        raise ValueError("LSP id %d already active" % lsp.id)
    links = state.topology.path_links[lsp.path]
    demand, c = lsp.demand_kbps, lsp.class_index
    for link in links:
        if sum(link.alloc) + demand > link.capacity_kbps:
            raise CapacityViolation(
                "link %s: %d + %d exceeds capacity %d"
                % (link.id, sum(link.alloc), demand, link.capacity_kbps)
            )
    same_class = state.active_by_class[c]
    newest = next(reversed(same_class.values()), None)
    # age_key(newest) < age_key(lsp), with the admit times alone deciding when they differ.
    if newest is None or newest.admit_time < lsp.admit_time or age_key(newest) < age_key(lsp):
        same_class[lsp.id] = lsp
    else:
        ordered = sorted([*same_class.items(), (lsp.id, lsp)], key=lambda item: age_key(item[1]))
        same_class.clear()
        same_class.update(ordered)
    for link in links:
        link.alloc[c] += demand
    state.active_lsps[lsp.id] = lsp
    state.counters.admitted[c] += 1


def release(state: NetworkState, lsp_id: int, reason: LspState) -> Lsp:
    """Return an active LSP's bandwidth on every path link, retire it and
    return its record.

    ``reason`` must be ``LspState.COMPLETED`` or ``LspState.PREEMPTED``, and
    picks the per-class counter the release bumps; any other value raises
    ValueError before anything changes.  Exact inverse of commit with
    respect to the allocation ledger.
    """
    if reason is PREEMPTED:
        counter = state.counters.preempted
    elif reason is COMPLETED:
        counter = state.counters.completed
    else:
        raise ValueError("release reason must be Completed or Preempted")
    lsp = state.active_lsps.get(lsp_id)
    if lsp is None:
        raise UnknownLsp(str(lsp_id))
    demand, c = lsp.demand_kbps, lsp.class_index
    for link in state.topology.path_links[lsp.path]:
        alloc = link.alloc
        alloc[c] -= demand
        assert alloc[c] >= 0, "negative allocation on %s" % link.id
    del state.active_lsps[lsp_id]
    del state.active_by_class[c][lsp_id]
    counter[c] += 1
    return lsp

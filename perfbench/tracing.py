"""Measurement from outside the package: wrappers installed where callers look
functions up, and restored afterwards.

Two instruments share one patching helper:

* ``Probe`` times every ``Controller.handle_request`` and ``handle_expiry``
  call and the wall time of stretches of each unit, keeping each stretch
  from the pass that ran it fastest.  Untraced runs use only this, so the
  end-to-end figures carry two clock reads per event.
* ``Tracer`` records a span at every layer boundary in ``LAYERS``: name,
  start, end, parent span and LSP id (a request's spans share its id).  Spans
  live in flat arrays and are written out at the end; a layer's self time is
  its span time minus the time its child spans cover.  Garbage collections
  are spans too, children of whatever span was open when they ran.
"""

from __future__ import annotations

import functools
import gc
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from bamsim import bam, checks, controller, metrics, scenario
from bamsim.controller import Classifier, Controller
from bamsim.fabric import Fabric
from bamsim.metrics import MetricsLog

Factory = Callable[[Callable], Callable]


@contextmanager
def patched(targets: List[Tuple[object, str, Factory]]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``factory(original)`` for each target and put
    every original back on exit, also when the body raises."""
    saved = []
    try:
        for owner, attr, factory in targets:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(factory(raw.__func__)))
            else:
                setattr(owner, attr, factory(raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class Probe:
    """Per-call host time of request and expiry handling, taken from the
    fastest of a run's passes stretch by stretch.

    A unit's wall time is cut into stretches at its start, at the start of
    every ``STRETCH``-th request and at its end; the first stretch is its
    set-up.  Every pass replays the same events (the digest gate shows it),
    so a stretch does the same work in every pass.  Other tenants of the
    host only ever add time, so for each stretch the probe keeps the pass
    that ran it fastest, with the request and expiry times measured inside
    it, as ``timeit`` keeps its fastest repeat.  The kept stretches add up to
    one pass at the host's best; memory holds one pass, whatever the number
    of passes.  All times are in ns.
    """

    STRETCH = 64

    def __init__(self) -> None:
        self.passes = 0
        self.best_request = array("Q")
        self.best_expire = array("Q")
        self.best_stretch = array("Q")
        self.setup_slots: List[int] = []  # index of each unit's set-up stretch
        self.unit_requests = [0]
        self.start_pass()

    def start_pass(self) -> None:
        self.request_ns = array("Q")
        self.expire_ns = array("Q")
        self.stretch_ns = array("Q")
        self.bounds: List[Tuple[int, int, int, int]] = []  # call ranges of each stretch
        self.marks: List[Tuple[int, int, int]] = []  # (ns, requests, expiries)
        self._setup_slots: List[int] = []

    def _mark(self, now_ns: int) -> None:
        self.marks.append((now_ns, len(self.request_ns), len(self.expire_ns)))

    def start_unit(self, now_ns: int) -> None:
        self.unit_requests[0] = 0
        self.marks = []
        self._mark(now_ns)

    def end_unit(self, now_ns: int) -> None:
        self._mark(now_ns)
        self._setup_slots.append(len(self.stretch_ns))
        for (t0, r0, e0), (t1, r1, e1) in zip(self.marks, self.marks[1:]):
            self.stretch_ns.append(t1 - t0)
            self.bounds.append((r0, r1, e0, e1))

    def end_pass(self) -> None:
        """Keep each stretch of a pass whose units all succeeded if it ran
        faster than in every pass before."""
        if self.passes == 0:
            self.best_request, self.best_expire = self.request_ns, self.expire_ns
            self.best_stretch, self.best_bounds = self.stretch_ns, self.bounds
            self.setup_slots = self._setup_slots
        else:
            if self.bounds != self.best_bounds:
                raise RuntimeError("a pass made other calls than the first pass")
            for i, (r0, r1, e0, e1) in enumerate(self.bounds):
                if self.stretch_ns[i] < self.best_stretch[i]:
                    self.best_stretch[i] = self.stretch_ns[i]
                    self.best_request[r0:r1] = self.request_ns[r0:r1]
                    self.best_expire[e0:e1] = self.expire_ns[e0:e1]
        self.passes += 1
        self.start_pass()

    def _requests(self, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        stretch = self.STRETCH
        count = self.unit_requests
        probe = self

        def timed(*args, **kwargs):
            start = clock()
            if count[0] % stretch == 0:
                probe._mark(start)
            count[0] += 1
            result = fn(*args, **kwargs)
            probe.request_ns.append(clock() - start)
            return result

        return timed

    def _expiries(self, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        probe = self

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            probe.expire_ns.append(clock() - start)
            return result

        return timed

    def installed(self):
        return patched([
            (Controller, "handle_request", self._requests),
            (Controller, "handle_expiry", self._expiries),
        ])

    def setups_ns(self) -> List[int]:
        """Kept set-up time of each unit of the pass."""
        return [self.best_stretch[i] for i in self.setup_slots]


class Tracer:
    """Span recorder for the layer boundaries in ``LAYERS``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.lsp = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, lsp: Optional[int]) -> int:
        """Append a span under the innermost open one and make it innermost.
        Allocates nothing the garbage collector tracks, so no collection can
        start (and append its own span) in between."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        if lsp is None:
            lsp = self.lsp[parent] if parent >= 0 else 0
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.lsp.append(lsp)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        lsp_of: Optional[Callable] = None,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call, its LSP id from ``lsp_of(args)``
        or else the parent's.  ``before(counts, args)`` and
        ``after(counts, args, result)`` update counters outside the span."""
        nid = self._name_id(name)
        counts = self.counts
        call_key = name + "_calls"

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args)
            counts[call_key] += 1
            idx = self._open(nid, lsp_of(args) if lsp_of is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._open(self._gc_id, None)
        else:
            self._close(self._stack[-1])
            self.counts["runtime.gc_collections"] += 1

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Every wrapper in ``LAYERS`` plus the collector callback."""
        targets = [
            (owner, attr, functools.partial(self.wrap, name=name, **hooks))
            for owner, attr, name, hooks in LAYERS
        ]
        self._gc_id = self._name_id("runtime.gc")
        with patched(targets):
            gc.callbacks.append(self._on_gc)
            try:
                yield
            finally:
                gc.callbacks.remove(self._on_gc)

    def span_self_ns(self) -> List[int]:
        """Self time of every span, in recording order."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def self_times(self) -> Dict[str, int]:
        """Summed self time in ns per span name."""
        totals = [0] * len(self.names)
        for nid, ns in zip(self.name, self.span_self_ns()):
            totals[nid] += ns
        return dict(zip(self.names, totals))

    def write(self, path: str) -> None:
        """All spans as tab-separated text, one per line."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tlsp\tstart_ns\tend_ns\n")
            for i, (nid, p, lsp, s, e) in enumerate(
                zip(self.name, self.parent, self.lsp, self.start, self.end)
            ):
                fh.write("%d\t%s\t%d\t%d\t%d\t%d\n" % (i, names[nid], p, lsp, s, e))


# Counter hooks.  ``before(counts, args)`` runs before the span opens and
# ``after(counts, args, result)`` after it closes, so neither is in the span.

def _sample_active(counts, args):
    active = len(args[0].state.active_lsps)
    counts["core.active_lsps_sum"] += active
    counts["core.active_lsps_max"] = max(counts["core.active_lsps_max"], active)


_VERDICT_KEYS = {
    bam.Verdict.GRANT: "bam.grant",
    bam.Verdict.GRANT_WITH_PREEMPTION: "bam.grant_preempt",
    bam.Verdict.DENY: "bam.deny",
}


def _count_verdict(counts, args, decision):
    counts[_VERDICT_KEYS[decision.verdict]] += 1


def _count_candidates(counts, args):
    counts["bam.victim_candidates"] += len(args[0].active_lsps)


def _count_chosen(counts, args, victims):
    # Calls that raise Infeasible never get here.
    counts["bam.select_victims_returns"] += 1
    counts["bam.victims_chosen"] += len(victims)


def _count_promotions(counts, args, promoted):
    counts["bam.promotions"] += int(promoted)


def _count_scanned(counts, args):
    rules = args[0].rule_count()
    counts["fabric.rules_scanned"] += rules
    counts["fabric.rules_max"] = max(counts["fabric.rules_max"], rules)


def _count_removed(counts, args, removed):
    counts["fabric.rules_removed"] += removed


def _count_csv_bytes(counts, args, _result):
    counts["metrics.csv_bytes"] += os.path.getsize(args[1])


def _count_journal_events(counts, args):
    counts["metrics.journal_events"] += len(args[0])


def _count_journal_bytes(counts, args, _result):
    counts["metrics.journal_bytes"] += os.path.getsize(args[1])


# (owner, attribute, span name, keyword arguments of Tracer.wrap).  Each
# owner is where the caller looks the name up: the controller imports commit
# and release from core by name, and bam.reconfigure calls release from its
# own module.
LAYERS = [
    (scenario, "simulate", "scenario.simulate", {}),
    (scenario, "build", "scenario.build", {}),
    (scenario, "generate_schedule", "scenario.schedule", {}),
    (Classifier, "for_state", "controller.routes", {}),
    (Classifier, "classify", "controller.classify", {}),
    (Controller, "handle_request", "controller.request",
     {"lsp_of": lambda args: args[1].id, "before": _sample_active}),
    (Controller, "handle_expiry", "controller.expire", {"lsp_of": lambda args: args[1]}),
    (Controller, "apply_reconfig", "controller.reconfig", {}),
    (bam, "decide", "bam.decide", {"after": _count_verdict}),
    (bam, "select_victims", "bam.select_victims",
     {"before": _count_candidates, "after": _count_chosen}),
    (bam, "promote_pending_if_clear", "bam.promote", {"after": _count_promotions}),
    (bam, "reconfigure", "bam.reconfigure", {}),
    (bam, "release", "core.release", {}),
    (controller, "commit", "core.commit", {}),
    (controller, "release", "core.release", {}),
    (Fabric, "install_path", "fabric.install", {}),
    (Fabric, "record_drop", "fabric.drop", {}),
    (Fabric, "remove_by_owner", "fabric.remove",
     {"before": _count_scanned, "after": _count_removed}),
    (MetricsLog, "append", "metrics.append", {}),
    (MetricsLog, "write_csv", "metrics.csv", {"after": _count_csv_bytes}),
    (metrics, "write_journal", "metrics.journal",
     {"before": _count_journal_events, "after": _count_journal_bytes}),
    (checks, "check_all", "checks.all", {}),
    (checks, "check_state", "checks.state", {}),
    (checks, "check_fabric", "checks.fabric", {}),
]

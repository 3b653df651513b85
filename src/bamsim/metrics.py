"""Per-request measurement records, derived rates and the event journal.

One MetricsRecord is emitted for every request, carrying the observed
utilization of the watched (bottleneck) link per class plus the cumulative
blocked/preempted counters at that instant.  The journal is the raw ordered
event stream (JSON lines) from which every figure can be recounted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .core import mbps


class RateUndefined(Exception):
    """A ratio whose denominator is zero (no admitted/observed requests)."""


@dataclass(frozen=True)
class MetricsRecord:
    request_index: int
    sim_time: float
    util_kbps: Tuple[int, ...]       # watched-link allocation per class
    blocked: Tuple[int, ...]         # cumulative per class
    preempted: Tuple[int, ...]       # cumulative per class
    admitted: Tuple[int, ...] = ()   # cumulative per class; kept for rate
                                     # recomputation, not exported to CSV

    def csv_row(self) -> str:
        cells = [str(self.request_index), "%g" % self.sim_time]
        cells += ["%g" % mbps(v) for v in self.util_kbps]
        cells += [str(v) for v in self.blocked]
        cells += [str(v) for v in self.preempted]
        return ",".join(cells)


def csv_header(n_classes: int) -> str:
    cols = ["request_index", "sim_time"]
    cols += ["util_ct%d" % i for i in range(n_classes)]
    cols += ["blk_ct%d" % i for i in range(n_classes)]
    cols += ["pre_ct%d" % i for i in range(n_classes)]
    return ",".join(cols)


class MetricsLog:
    def __init__(self, n_classes: int) -> None:
        self.n_classes = n_classes
        self.records: List[MetricsRecord] = []

    def append(self, record: MetricsRecord) -> None:
        if self.records and record.request_index <= self.records[-1].request_index:
            raise ValueError("request_index must be strictly increasing")
        self.records.append(record)

    def to_csv(self) -> str:
        lines = [csv_header(self.n_classes)]
        lines += [r.csv_row() for r in self.records]
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def windowed_blocking(
    outcomes: Sequence[Tuple[int, bool]], class_index: int, window: int = 100
) -> float:
    """Blocking fraction over the trailing `window` requests of one class.

    ``outcomes`` is the request stream in order as (class_index, blocked)
    pairs.  Raises RateUndefined when the class has no requests yet.
    """
    tail: List[bool] = []
    for ct, blocked in reversed(outcomes):
        if ct == class_index:
            tail.append(blocked)
            if len(tail) == window:
                break
    if not tail:
        raise RateUndefined("no class %d requests observed" % class_index)
    return sum(tail) / len(tail)


def preemption_rate(admitted: Sequence[int], preempted: Sequence[int], class_index: int) -> float:
    """Preempted-to-admitted ratio for one class."""
    if admitted[class_index] == 0:
        raise RateUndefined("no class %d admissions" % class_index)
    return preempted[class_index] / admitted[class_index]


def write_journal(events: Iterable[Dict], path: str) -> None:
    """One sorted-key JSON object per line, all from one encoder.  Lines go
    through the file's buffer, not one string: that would hold the whole
    journal a second time."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        for event in events:
            fh.write(encode(event) + "\n")


def read_journal(path: str) -> List[Dict]:
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def outcomes_from_journal(journal: Sequence[Dict]) -> List[Tuple[int, bool]]:
    """(class, blocked) per request, in stream order, recounted from events."""
    verdicts: Dict[int, bool] = {}
    order: List[Tuple[int, int]] = []  # (lsp id, ct)
    for event in journal:
        if event["kind"] == "request":
            order.append((event["lsp"], event["ct"]))
        elif event["kind"] == "block":
            verdicts[event["lsp"]] = True
        elif event["kind"] == "admit":
            verdicts[event["lsp"]] = False
    return [(ct, verdicts[lsp_id]) for lsp_id, ct in order]


def summarize(journal: Sequence[Dict]) -> Dict[str, List[int]]:
    """Recount per-class lifecycle totals from an event journal."""
    n = 0
    for event in journal:
        if "ct" in event:
            n = max(n, event["ct"] + 1)
    stats = {
        key: [0] * n for key in ("requested", "admitted", "blocked", "preempted", "completed")
    }
    kind_to_key = {
        "request": "requested",
        "admit": "admitted",
        "block": "blocked",
        "preempt": "preempted",
        "expire": "completed",
    }
    for event in journal:
        key = kind_to_key.get(event["kind"])
        if key is not None:
            stats[key][event["ct"]] += 1
    return stats


def render_summary(stats: Dict[str, List[int]]) -> str:
    """Line-oriented key=value form, one counter per line."""
    keys = ["requested", "admitted", "blocked", "preempted", "completed"]
    n = len(stats["requested"]) if stats["requested"] else 0
    lines = []
    for key in keys:
        for c in range(n):
            lines.append("%s_ct%d=%d" % (key, c, stats[key][c]))
    return "\n".join(lines)

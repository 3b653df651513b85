"""Per-request measurement records, derived rates and the event journal.

One MetricsRecord is emitted for every request, carrying the observed
utilization of the watched (bottleneck) link per class plus the cumulative
blocked/preempted counters at that instant.  The journal is the raw ordered
event stream (JSON lines) from which every figure can be recounted.
"""

from __future__ import annotations

import json
from collections import abc
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple


class RateUndefined(Exception):
    """A ratio whose denominator is zero (no admitted/observed requests)."""


class MetricsRecord(NamedTuple):
    request_index: int
    sim_time: float
    util_kbps: Tuple[int, ...]       # watched-link allocation per class
    blocked: Tuple[int, ...]         # cumulative per class
    preempted: Tuple[int, ...]       # cumulative per class

    def csv_row(self) -> str:
        return _row_format(len(self.util_kbps)) % _cells(self)


def csv_header(n_classes: int) -> str:
    cols = ["request_index", "sim_time"]
    cols += ["util_ct%d" % i for i in range(n_classes)]
    cols += ["blk_ct%d" % i for i in range(n_classes)]
    cols += ["pre_ct%d" % i for i in range(n_classes)]
    return ",".join(cols)


def _row_format(n_classes: int) -> str:
    """The one CSV row format: index, time, then per class the utilisation in
    Mbps, the blocked count and the preempted count."""
    return "%d,%g" + ",%g" * n_classes + ",%d" * (2 * n_classes)


def _cells(record: MetricsRecord) -> Tuple:
    index, time, util, blocked, preempted = record
    return (index, time, *[v / 1000.0 for v in util], *blocked, *preempted)


class MetricsLog:
    def __init__(self, n_classes: int) -> None:
        self.n_classes = n_classes
        self.records: List[MetricsRecord] = []
        self._row = _row_format(n_classes)

    def append(self, record: MetricsRecord) -> None:
        if self.records and record.request_index <= self.records[-1].request_index:
            raise ValueError("request_index must be strictly increasing")
        self.records.append(record)

    def _lines(self) -> Iterator[str]:
        row = self._row + "\n"
        yield csv_header(self.n_classes) + "\n"
        for record in self.records:
            yield row % _cells(record)

    def to_csv(self) -> str:
        return "".join(self._lines())

    def write_csv(self, path: str) -> None:
        """Line by line through the file's buffer, as ``write_journal`` does:
        one string would hold the whole file a second time."""
        with open(path, "w") as fh:
            fh.writelines(self._lines())


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


# The journal schema: each event kind's fields, in the order its record holds
# them after the kind.  "lsp", "ct" and "by" are ints ("by" is None for a
# victim of a reconfiguration), "src", "dst" and "mode" are strings, "time"
# and "demand_mbps" are numbers.  "path", "bc_mbps" and "preempted" are
# tuples in a record and lists in an event.
FIELDS: Dict[str, Tuple[str, ...]] = {
    "request": ("time", "lsp", "ct", "demand_mbps", "src", "dst"),
    "block": ("time", "lsp", "ct"),
    "admit": ("time", "lsp", "ct", "path"),
    "preempt": ("time", "lsp", "ct", "by"),
    "expire": ("time", "lsp", "ct"),
    "reconfig": ("time", "mode", "bc_mbps", "preempted"),
    "promote": ("time", "bc_mbps"),
}


# Where a record holds its class, by kind.
_CT = {kind: 1 + fields.index("ct") for kind, fields in FIELDS.items() if "ct" in fields}


def _event(record: Tuple) -> Dict:
    names = ("kind",) + FIELDS[record[0]]
    return {k: list(v) if type(v) is tuple else v for k, v in zip(names, record)}


class Journal(abc.Sequence):
    """The controller's ordered record of events, one tuple per event,
    ``(kind, *fields)`` as laid out in ``FIELDS``.  Read as a sequence, it
    yields event dicts built afresh from the records."""

    def __init__(self) -> None:
        self.records: List[Tuple] = []
        self.append = self.records.append

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_event(r) for r in self.records[index]]
        return _event(self.records[index])

    def __iter__(self) -> Iterator[Dict]:
        return map(_event, self.records)


def _template(kind: str) -> str:
    """The kind's line with its keys sorted and a %s for every field."""
    items = [json.dumps(k) + ": " + (json.dumps(kind) if k == "kind" else "%s")
             for k in sorted(("kind",) + FIELDS[kind])]
    return "{" + ", ".join(items) + "}\n"


class _Encoded(dict):
    """Strings and tuples of strings as json spells them, each encoded once."""

    def __missing__(self, value):
        text = self[value] = (encode_basestring_ascii(value) if type(value) is str else
                              "[" + ", ".join(map(encode_basestring_ascii, value)) + "]")
        return text


def _render(records: List[Tuple], write: Callable[[str], object], encode: Callable) -> None:
    """The frequent kinds through their templates, arguments in key order:
    str() spells an int, and a finite float, as json does.  The rare kinds,
    a non-finite time or demand, and a preemption with no preemptor go
    through the encoder."""
    request, admit, block, preempt, expire = map(
        _template, ("request", "admit", "block", "preempt", "expire"))
    text = _Encoded()
    for record in records:
        kind = record[0]
        if kind == "request":
            _, time, lsp, ct, demand, src, dst = record
            if -inf < time < inf and -inf < demand < inf:
                write(request % (ct, demand, text[dst], lsp, text[src], time))
                continue
        elif kind == "block" or kind == "expire":
            _, time, lsp, ct = record
            if -inf < time < inf:
                write((block if kind == "block" else expire) % (ct, lsp, time))
                continue
        elif kind == "admit":
            _, time, lsp, ct, path = record
            if -inf < time < inf:
                write(admit % (ct, lsp, text[path], time))
                continue
        elif kind == "preempt":
            _, time, lsp, ct, by = record
            if by is not None and -inf < time < inf:
                write(preempt % (by, ct, lsp, time))
                continue
        write(encode(_event(record)) + "\n")


def write_journal(events: Iterable[Dict], path: str) -> None:
    """One line per event, exactly ``json.dumps(event, sort_keys=True)``.

    A ``Journal`` is rendered from its records, any other iterable of events
    through the one sorted-key encoder.  Lines go through the file's buffer,
    not one string: that would hold the whole journal a second time."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        if isinstance(events, Journal):
            _render(events.records, fh.write, encode)
        else:
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
    """Recount per-class lifecycle totals from an event journal.  A
    ``Journal`` is read from its records, without building its dicts."""
    kind_to_key = {
        "request": "requested",
        "admit": "admitted",
        "block": "blocked",
        "preempt": "preempted",
        "expire": "completed",
    }
    if isinstance(journal, Journal):
        classed = [(r[0], r[_CT[r[0]]]) for r in journal.records if r[0] in _CT]
    else:
        classed = [(e["kind"], e["ct"]) for e in journal if "ct" in e or e["kind"] in kind_to_key]
    n = max((ct + 1 for _, ct in classed), default=0)
    stats = {key: [0] * n for key in kind_to_key.values()}
    for kind, ct in classed:
        key = kind_to_key.get(kind)
        if key is not None:
            stats[key][ct] += 1
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

"""Per-request measurement records, derived rates and the event journal.

One MetricsRecord is emitted for every request, carrying the observed
utilization of the watched (bottleneck) link per class plus the cumulative
blocked/preempted counters at that instant.  The journal is the raw ordered
event stream (JSON lines) from which every figure can be recounted.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


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

    def to_csv(self) -> str:
        row = self._row
        lines = [csv_header(self.n_classes)]
        lines += [row % _cells(r) for r in self.records]
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


def _template(keys: Sequence[str], types: Tuple[type, ...]) -> Optional[Tuple]:
    """(format, positions of str, float and list values) for values given in
    ``keys`` order, or None for a value type the format cannot spell as json
    does.  Strings are encoded as json encodes them; ints and floats go
    through ``%r``, which is json's spelling of an int and a finite float."""
    items, strs, floats, lists = [], [], [], []
    for i, (key, t) in enumerate(zip(keys, types)):
        if t is str:
            strs.append(i)
        elif t is float:
            floats.append(i)
        elif t is list:
            lists.append(i)
        elif t is not int:
            return None
        spec = "%s" if t is str or t is list else "%r"
        items.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + spec)
    return "{" + ", ".join(items) + "}\n", tuple(strs), tuple(floats), tuple(lists)


def _line(shapes: Dict[Tuple, Optional[Tuple]], event: Dict) -> Optional[str]:
    """The event's journal line from its template, or None where only json
    can write it: an event that is not a dict, keys other than strings, a
    value of another type, a NaN or infinite float, a list holding anything
    but strings.  ``shapes`` maps a key tuple to its sorted keys, their
    getter and a template per tuple of value types, or to None."""
    if type(event) is not dict:
        return None
    keys = tuple(event)
    try:
        shape = shapes[keys]
    except KeyError:
        ordered = sorted(keys) if all(type(k) is str for k in keys) else ()
        # An itemgetter of one key returns the value, not a tuple.
        shape = shapes[keys] = (ordered, itemgetter(*ordered), {}) if len(ordered) > 1 else None
    if shape is None:
        return None
    ordered, get, templates = shape
    values = get(event)
    types = tuple(map(type, values))
    try:
        template = templates[types]
    except KeyError:
        template = templates[types] = _template(ordered, types)
    if template is None:
        return None
    fmt, strs, floats, lists = template
    args = list(values)
    for i in floats:
        if not isfinite(args[i]):
            return None
    for i in strs:
        args[i] = encode_basestring_ascii(args[i])
    for i in lists:
        if not all(type(v) is str for v in args[i]):
            return None
        args[i] = "[" + ", ".join(map(encode_basestring_ascii, args[i])) + "]"
    return fmt % tuple(args)


def write_journal(events: Iterable[Dict], path: str) -> None:
    """One line per event, exactly ``json.dumps(event, sort_keys=True)``.

    The controller emits a few event shapes, each with a fixed key order and
    value types, so each shape gets a %-template on first sight.  What no
    template covers goes through the one sorted-key encoder.  Lines go
    through the file's buffer, not one string: that would hold the whole
    journal a second time."""
    encode = json.JSONEncoder(sort_keys=True).encode
    shapes: Dict[Tuple, Optional[Tuple]] = {}
    with open(path, "w") as fh:
        write = fh.write
        for event in events:
            line = _line(shapes, event)
            write(line if line is not None else encode(event) + "\n")


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

"""Per-request measurement records, derived rates and the event journal.

Every request leaves one MetricsLog row: the observed utilization of the
watched (bottleneck) link per class plus the cumulative blocked/preempted
counters at that instant.  The journal is the raw ordered event stream (JSON
lines) from which every figure can be recounted.  Both logs keep their
entries as flat cells in one list, not one container per entry, so a run's
logs give the garbage collector nothing to count or to walk; each builds its
records afresh when it is read.
"""

from __future__ import annotations

import json
from array import array
from collections import abc
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class RateUndefined(Exception):
    """A ratio whose denominator is zero (no admitted/observed requests)."""


class MetricsRecord(NamedTuple):
    request_index: int
    sim_time: float
    util_kbps: Tuple[int, ...]       # watched-link allocation per class
    blocked: Tuple[int, ...]         # cumulative per class
    preempted: Tuple[int, ...]       # cumulative per class


def csv_header(n_classes: int) -> str:
    cols = ["request_index", "sim_time"]
    cols += ["util_ct%d" % i for i in range(n_classes)]
    cols += ["blk_ct%d" % i for i in range(n_classes)]
    cols += ["pre_ct%d" % i for i in range(n_classes)]
    return ",".join(cols)


# Lines per chunk: the writers hand the file buffer joined chunks, not lines.
_CHUNK = 4096


def _csv_chunks(n_classes: int, cells: List) -> Iterator[str]:
    """The rows of a ``MetricsLog``'s cells: index, time, then per class the
    utilisation in Mbps, the blocked count and the preempted count.  The
    utilisation and preempted cells are rendered once, into the row format,
    for consecutive rows that hold the same tuple object, as ``simulate``'s
    rows do while they are equal."""
    width = 4 + n_classes
    util_cells, count_cells = ",%g" * n_classes, ",%d" * n_classes
    util = preempted = object()  # matches no row's tuple
    for start in range(0, len(cells), _CHUNK * width):
        lines = []
        add = lines.append
        for row in zip(*[iter(cells[start:start + _CHUNK * width])] * width):
            if row[0] is not util or row[1] is not preempted:
                if row[0] is not util:
                    util = row[0]
                    util_text = util_cells % tuple([v / 1000.0 for v in util])
                preempted = row[1]
                # Neither text holds a "%": it is %g and %d output.
                line = "%d,%g" + util_text + count_cells + count_cells % preempted + "\n"
            add(line % row[2:])
        yield "".join(lines)


class _Cells(abc.Sequence):
    """A log kept as flat cells in one list rather than one container per
    entry.  ``_starts()`` gives the cell where each entry starts, and read
    as a sequence, the log yields the items ``_item(start)`` builds afresh."""

    def __len__(self) -> int:
        return len(self._starts())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(start) for start in self._starts()[index]]
        return self._item(self._starts()[index])

    def __iter__(self) -> Iterator:
        return map(self._item, self._starts())


class MetricsLog(_Cells):
    """One row per request, appended in request order.  A row is kept as
    ``4 + n_classes`` cells, ``(util_kbps, preempted, request_index,
    sim_time, *blocked)``: the two tuples by reference, so that equal rows
    can share them, and the blocked counts by value.  Read as a sequence,
    it yields ``MetricsRecord``s."""

    def __init__(self, n_classes: int) -> None:
        self.n_classes = n_classes
        self._width = 4 + n_classes
        self._cells: List = []

    def append(self, record: Sequence) -> None:
        """Append ``(request_index, sim_time, util_kbps, blocked,
        preempted)``, a ``MetricsRecord`` or a plain tuple.  ``blocked`` is
        copied, so it may be a live counter list.  A row whose vectors are
        not ``n_classes`` long, or whose index does not exceed the last one,
        raises ValueError and leaves the log as it was."""
        index, time, util, blocked, preempted = record
        n = self.n_classes
        if len(util) != n or len(blocked) != n or len(preempted) != n:
            raise ValueError("row %r: util_kbps, blocked and preempted must each hold %d values"
                             % (index, n))
        cells = self._cells
        if cells and index <= cells[-2 - n]:
            raise ValueError("request_index must be strictly increasing")
        cells.extend((util, preempted, index, time))
        cells.extend(blocked)

    def _starts(self) -> range:
        return range(0, len(self._cells), self._width)

    def _item(self, start: int) -> MetricsRecord:
        cells = self._cells
        return MetricsRecord(cells[start + 2], cells[start + 3], cells[start],
                             tuple(cells[start + 4:start + self._width]), cells[start + 1])

    @property
    def records(self) -> List[MetricsRecord]:
        return list(self)

    def _chunks(self) -> Iterator[str]:
        yield csv_header(self.n_classes) + "\n"
        yield from _csv_chunks(self.n_classes, self._cells)

    def to_csv(self) -> str:
        return "".join(self._chunks())

    def write_csv(self, path: str) -> None:
        """Chunk by chunk through the file's buffer, as ``write_journal``
        does: one string would hold the whole file a second time."""
        with open(path, "w") as fh:
            fh.writelines(self._chunks())


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
# Cells per record, the kind's included.
_WIDTH = {kind: 1 + len(fields) for kind, fields in FIELDS.items()}


def _width(cell) -> Optional[int]:
    """The width of the record that ``cell`` starts, or None if it is no kind."""
    return _WIDTH.get(cell) if type(cell) is str else None


def _misaligned(start: int) -> ValueError:
    return ValueError("journal cell %d: no whole event record starts here; "
                      "a record has the wrong width for its kind" % start)


def _event(record: Sequence) -> Dict:
    names = ("kind",) + FIELDS[record[0]]
    return {k: list(v) if type(v) is tuple else v for k, v in zip(names, record)}


class Journal(_Cells):
    """The controller's ordered record of events.  ``append`` takes one
    record, ``(kind, *fields)`` as laid out in ``FIELDS``, and keeps its
    cells back to back.  Read as a sequence, it yields event dicts;
    ``records`` gives the records as tuples.  Reading a journal with a
    record of the wrong width for its kind raises ValueError."""

    def __init__(self) -> None:
        self._cells: List = []
        self.append = self._cells.extend
        self._scanned = array("q")  # the start cell of every record scanned
        self._end = 0               # the cell after the last record scanned

    def _starts(self) -> array:
        """The start cell of every record, scanned on from the last one."""
        cells, starts, start = self._cells, self._scanned, self._end
        end = len(cells)
        while start < end:
            width = _width(cells[start])
            if width is None or start + width > end:
                self._end = start
                raise _misaligned(start)
            starts.append(start)
            start += width
        self._end = start
        return starts

    def _record(self, start: int) -> Tuple:
        cells = self._cells
        return tuple(cells[start:start + _WIDTH[cells[start]]])

    def _item(self, start: int) -> Dict:
        return _event(self._record(start))

    @property
    def records(self) -> List[Tuple]:
        return list(map(self._record, self._starts()))


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


def _render(cells: List, encode: Callable) -> Iterator[str]:
    """A journal's lines, from its cells, in chunks of about ``_CHUNK``
    lines.  The frequent kinds go through their templates, arguments in key
    order: str() spells an int, and a finite float, as json does.  A time is
    spelled once for consecutive records that hold the same object, as a
    request and its block, admit and preempt records do.  The rare kinds, a
    time that is not a finite float, a non-finite demand and a preemption
    with no preemptor go through the encoder.

    A record is rendered only once the cell after it is known to start a
    record, or to be the end: a record of the wrong width raises ValueError
    before any line after it, or the line it shifts, is handed out."""
    request, admit, block, preempt, expire = map(
        _template, ("request", "admit", "block", "preempt", "expire"))
    text = _Encoded()
    last = object()  # is no record's time
    p, end = 0, len(cells)
    while p < end:
        lines = []
        add = lines.append
        stop = min(end, p + 4 * _CHUNK)  # about _CHUNK lines: most records hold 4+ cells
        try:
            while p < stop:
                kind, time = cells[p], cells[p + 1]
                if time is not last:
                    last = time
                    stamp = str(time) if type(time) is float and -inf < time < inf else None
                # Each template reads its record's last cell, so a short
                # record at the end raises IndexError.
                if stamp is not None:
                    if kind == "request":
                        demand = cells[p + 4]
                        if -inf < demand < inf:
                            add(request % (cells[p + 3], demand, text[cells[p + 6]],
                                           cells[p + 2], text[cells[p + 5]], stamp))
                            p += 7
                            continue
                    elif kind == "block" or kind == "expire":
                        add((block if kind == "block" else expire) % (cells[p + 3], cells[p + 2], stamp))
                        p += 4
                        continue
                    elif kind == "admit":
                        add(admit % (cells[p + 3], cells[p + 2], text[cells[p + 4]], stamp))
                        p += 5
                        continue
                    elif kind == "preempt":
                        by = cells[p + 4]
                        if by is not None:
                            add(preempt % (by, cells[p + 3], cells[p + 2], stamp))
                            p += 5
                            continue
                width = _width(kind)
                if width is None or p + width > end:
                    raise _misaligned(p)
                add(encode(_event(cells[p:p + width])) + "\n")
                p += width
        except IndexError:
            raise _misaligned(p) from None
        if p < end and _width(cells[p]) is None:
            raise _misaligned(p)
        yield "".join(lines)


def write_journal(events: Iterable[Dict], path: str) -> None:
    """One line per event, exactly ``json.dumps(event, sort_keys=True)``.

    A ``Journal`` is rendered from its cells, any other iterable of events
    through the one sorted-key encoder.  Lines go through the file's buffer
    in chunks, not as one string: that would hold the whole journal a second
    time."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w") as fh:
        if isinstance(events, Journal):
            fh.writelines(_render(events._cells, encode))
        else:
            for event in events:
                fh.write(encode(event) + "\n")


def _not_an_event(event) -> Optional[str]:
    """Why a parsed journal line is no event ``summarize`` can count, or
    None: an event is an object with a string kind, and a class index
    ``ct`` >= 0 if it has one or is of a kind that is counted per class."""
    if type(event) is not dict:
        return "not a JSON object"
    kind = event.get("kind")
    if type(kind) is not str:
        return "event has no kind string"
    if "ct" in event or kind in _COUNTERS:
        if "ct" not in event:
            return "%s event has no ct" % kind
        if type(event["ct"]) is not int or event["ct"] < 0:
            return "%s event: ct must be an integer >= 0, got %s" % (kind, json.dumps(event["ct"]))
    return None


def read_journal(path: str) -> List[Dict]:
    """The events of a journal file.  A line that is not JSON, or not an
    event, raises ValueError with the path and the line number."""
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
            problem = _not_an_event(event)
            if problem is not None:
                raise ValueError("%s:%d: %s" % (path, lineno, problem))
            events.append(event)
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


# The per-class counter of each kind that has one.
_COUNTERS = {
    "request": "requested",
    "admit": "admitted",
    "block": "blocked",
    "preempt": "preempted",
    "expire": "completed",
}


def summarize(journal: Sequence[Dict], n_classes: int = 0) -> Dict[str, List[int]]:
    """Recount per-class lifecycle totals from an event journal.  The
    totals cover ``n_classes`` classes, or more if the journal names a
    higher class: without the count, a class with no events is left out."""
    classed = [(e["kind"], e["ct"]) for e in journal if "ct" in e or e["kind"] in _COUNTERS]
    n = max(n_classes, max((ct + 1 for _, ct in classed), default=0))
    stats = {key: [0] * n for key in _COUNTERS.values()}
    for kind, ct in classed:
        key = _COUNTERS.get(kind)
        if key is not None:
            stats[key][ct] += 1
    return stats


def render_summary(stats: Dict[str, List[int]]) -> str:
    """Line-oriented key=value form, one counter per line."""
    n = len(stats["requested"])
    return "\n".join("%s_ct%d=%d" % (key, c, stats[key][c]) for key in _COUNTERS.values() for c in range(n))

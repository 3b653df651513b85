import json
import math
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bamsim import metrics
from bamsim.metrics import (
    Journal,
    MetricsLog,
    MetricsRecord,
    RateUndefined,
    csv_header,
    outcomes_from_journal,
    preemption_rate,
    read_journal,
    render_summary,
    summarize,
    windowed_blocking,
    write_journal,
)

from helpers import csv_oracle

THREE_CLASS_HEADER = (
    "request_index,sim_time,"
    "util_ct0,util_ct1,util_ct2,"
    "blk_ct0,blk_ct1,blk_ct2,"
    "pre_ct0,pre_ct1,pre_ct2"
)


def csv_line(record):
    """The CSV row of one record, from a log holding it alone."""
    log = MetricsLog(len(record.util_kbps))
    log.append(record)
    return log.to_csv().splitlines()[1]


def rec(i, t=1.0, util=(0, 0, 0), blocked=(0, 0, 0), preempted=(0, 0, 0)):
    return MetricsRecord(i, t, tuple(util), tuple(blocked), tuple(preempted))


class TestCsv:
    def test_three_class_header_is_pinned(self):
        assert csv_header(3) == THREE_CLASS_HEADER

    def test_row_renders_mbps_compactly(self):
        r = rec(7, t=12.5, util=(250000, 2500, 0), blocked=(3, 0, 1), preempted=(0, 2, 0))
        assert csv_line(r) == "7,12.5,250,2.5,0,3,0,1,0,2,0"

    @pytest.mark.parametrize("bad", [
        rec(2, util=(0, 0)), rec(2, blocked=(0, 0, 0, 0)), rec(2, preempted=()),
        (2, 1.0, (0, 0, 0), [0, 0], (0, 0, 0)),
    ])
    def test_log_rejects_a_row_of_the_wrong_width_and_stays_as_it_was(self, bad):
        log = MetricsLog(3)
        log.append(rec(1, util=(5000, 0, 0), blocked=(1, 2, 3)))
        before = log.to_csv()
        with pytest.raises(ValueError, match="each hold 3 values"):
            log.append(bad)
        assert log.to_csv() == before
        assert log.records == [rec(1, util=(5000, 0, 0), blocked=(1, 2, 3))]
        log.append(rec(2))
        assert len(log) == 2

    def test_log_requires_strictly_increasing_indices(self):
        log = MetricsLog(3)
        log.append(rec(1))
        log.append(rec(2))
        with pytest.raises(ValueError):
            log.append(rec(2))
        with pytest.raises(ValueError):
            log.append(rec(1))

    def test_to_csv_exact_bytes(self):
        log = MetricsLog(3)
        log.append(rec(1, t=0.25, util=(5000, 0, 0)))
        log.append(rec(2, t=1.0, util=(10000, 20000, 0), blocked=(1, 0, 0)))
        assert log.to_csv() == (
            THREE_CLASS_HEADER + "\n"
            "1,0.25,5,0,0,0,0,0,0,0,0\n"
            "2,1,10,20,0,1,0,0,0,0,0\n"
        )

    def test_write_csv_round_trips(self, tmp_path):
        log = MetricsLog(3)
        log.append(rec(1))
        path = tmp_path / "m.csv"
        log.write_csv(str(path))
        assert path.read_text() == log.to_csv()


def naive_window(outcomes, ct, window):
    mine = [b for c, b in outcomes if c == ct][-window:]
    return sum(mine) / len(mine)


class TestRates:
    def test_windowed_blocking_simple(self):
        outcomes = [(0, False)] * 6 + [(0, True)] * 2
        assert windowed_blocking(outcomes, 0, window=4) == 0.5
        assert windowed_blocking(outcomes, 0, window=8) == 0.25

    def test_window_clips_to_available_history(self):
        outcomes = [(1, True), (1, False)]
        assert windowed_blocking(outcomes, 1, window=100) == 0.5

    def test_other_classes_are_invisible(self):
        outcomes = [(0, True)] * 50 + [(1, False)] * 3
        assert windowed_blocking(outcomes, 1, window=10) == 0.0
        assert windowed_blocking(outcomes, 0, window=10) == 1.0

    def test_no_observations_raises(self):
        with pytest.raises(RateUndefined):
            windowed_blocking([(0, True)], 1)
        with pytest.raises(RateUndefined):
            windowed_blocking([], 0)

    def test_windowed_blocking_matches_naive_recount(self):
        rng = random.Random(42)
        for _trial in range(30):
            outcomes = [
                (rng.randrange(3), rng.random() < 0.3)
                for _ in range(rng.randrange(1, 400))
            ]
            window = rng.choice([1, 5, 100])
            for ct in range(3):
                if not any(c == ct for c, _b in outcomes):
                    continue
                assert windowed_blocking(outcomes, ct, window) == pytest.approx(
                    naive_window(outcomes, ct, window)
                )

    def test_preemption_rate(self):
        assert preemption_rate([100, 50], [6, 0], 0) == pytest.approx(0.06)
        assert preemption_rate([100, 50], [6, 0], 1) == 0.0
        with pytest.raises(RateUndefined):
            preemption_rate([0, 5], [0, 0], 0)


JOURNAL = [
    {"kind": "request", "time": 0.5, "lsp": 1, "ct": 0},
    {"kind": "admit", "time": 0.5, "lsp": 1, "ct": 0, "path": ["L1"]},
    {"kind": "request", "time": 0.8, "lsp": 2, "ct": 1},
    {"kind": "block", "time": 0.8, "lsp": 2, "ct": 1},
    {"kind": "request", "time": 1.1, "lsp": 3, "ct": 1},
    {"kind": "admit", "time": 1.1, "lsp": 3, "ct": 1, "path": ["L1"]},
    {"kind": "preempt", "time": 2.0, "lsp": 1, "ct": 0, "by": 3},
    {"kind": "expire", "time": 300.0, "lsp": 3, "ct": 1},
]


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(JOURNAL, str(path))
        assert read_journal(str(path)) == JOURNAL

    def test_serialization_is_key_sorted_and_line_oriented(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(JOURNAL, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(JOURNAL)
        assert lines[0] == '{"ct": 0, "kind": "request", "lsp": 1, "time": 0.5}'
        for line in lines:
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True)

    def test_outcomes_follow_request_order(self):
        assert outcomes_from_journal(JOURNAL) == [(0, False), (1, True), (1, False)]

    def test_summarize_recounts_each_kind(self):
        stats = summarize(JOURNAL)
        assert stats["requested"] == [1, 2]
        assert stats["admitted"] == [1, 1]
        assert stats["blocked"] == [0, 1]
        assert stats["preempted"] == [1, 0]
        assert stats["completed"] == [0, 1]

    def test_summarize_of_nothing(self):
        stats = summarize([])
        assert stats["requested"] == []

    def test_render_summary_exact_lines(self):
        stats = summarize(JOURNAL)
        assert render_summary(stats).splitlines() == [
            "requested_ct0=1",
            "requested_ct1=2",
            "admitted_ct0=1",
            "admitted_ct1=1",
            "blocked_ct0=0",
            "blocked_ct1=1",
            "preempted_ct0=1",
            "preempted_ct1=0",
            "completed_ct0=0",
            "completed_ct1=1",
        ]


# Property tests: both artifacts equal an independent rendering for arbitrary
# input, not only for what the bundled scenarios produce.
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# Characters json escapes or spells in full, plus "%", which the journal's
# templates must not read as a conversion.
ODD_CHARS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "%", "é", "\u2028", "\ud800", "\U0001f600"]
texts = st.text(st.one_of(st.characters(), st.sampled_from(ODD_CHARS)), max_size=6)
ints = st.one_of(st.integers(), st.integers(0, 10**6))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 123.456789, math.nan, math.inf, -math.inf]),
)
odd_values = st.one_of(st.booleans(), st.none(), floats, ints, texts)


def _maybe(strategy, odd_rate=8):
    """Mostly the controller's own value type, sometimes any other."""
    return st.integers(0, odd_rate - 1).flatmap(lambda r: odd_values if r == 0 else strategy)


def _event(kind, **fields):
    return st.fixed_dictionaries({"kind": _maybe(st.just(kind)), "time": _maybe(floats), **fields})


LSP = {"lsp": _maybe(ints), "ct": _maybe(st.integers(0, 3))}
controller_events = st.one_of(
    _event("request", **LSP, demand_mbps=_maybe(floats), src=_maybe(texts), dst=_maybe(texts)),
    _event("block", **LSP),
    _event("expire", **LSP),
    _event("preempt", **LSP, by=st.one_of(ints, st.none())),
    _event("admit", **LSP, path=_maybe(st.lists(st.one_of(texts, texts, ints), max_size=4))),
    _event("reconfig", mode=texts, bc_mbps=st.lists(floats, max_size=3),
           preempted=st.lists(ints, max_size=3)),
    _event("promote", bc_mbps=st.lists(floats, max_size=3)),
)
foreign_events = st.one_of(
    st.dictionaries(texts, st.one_of(odd_values, st.lists(texts, max_size=3)), max_size=5),
    st.dictionaries(st.integers(), ints, max_size=3),
    st.lists(st.one_of(texts, odd_values), max_size=3),
)


def _written(write, *args) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact")
        write(*args, path)
        with open(path, "rb") as fh:
            return fh.read().decode("ascii")


@PROPERTY
@given(st.lists(st.one_of(controller_events, controller_events, foreign_events), max_size=12))
def test_journal_lines_are_exactly_json_dumps_with_sorted_keys(events):
    expected = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    assert _written(write_journal, events) == expected


# Each kind's record fields after the kind, written out here and not read
# from the package, so that the oracle shares no table with the renderer.
RECORD_FIELDS = {
    "request": ("time", "lsp", "ct", "demand_mbps", "src", "dst"),
    "block": ("time", "lsp", "ct"),
    "admit": ("time", "lsp", "ct", "path"),
    "preempt": ("time", "lsp", "ct", "by"),
    "expire": ("time", "lsp", "ct"),
    "reconfig": ("time", "mode", "bc_mbps", "preempted"),
    "promote": ("time", "bc_mbps"),
}
# Repeats are likely among these, so the renderer's memo is hit as well.
names = st.one_of(texts, st.sampled_from(ODD_CHARS + ["h1", "L%d"]))
big_ints = st.one_of(ints, st.integers(-2**256, 2**256))
record_values = {
    "time": floats, "demand_mbps": floats, "lsp": big_ints, "ct": big_ints,
    "by": st.one_of(big_ints, st.none()), "src": names, "dst": names, "mode": names,
    "path": st.lists(names, max_size=4).map(tuple),
    "bc_mbps": st.lists(floats, max_size=3).map(tuple),
    "preempted": st.lists(big_ints, max_size=3).map(tuple),
}
journal_records = st.one_of(*[
    st.tuples(st.just(kind), *[record_values[f] for f in fields])
    for kind, fields in RECORD_FIELDS.items()
])


def oracle_event(record):
    event = dict(zip(("kind",) + RECORD_FIELDS[record[0]], record))
    return {k: list(v) if type(v) is tuple else v for k, v in event.items()}


# Lines per write: one line, a few lines, and the size the writers use.
chunk_sizes = st.sampled_from([1, 2, 3, metrics._CHUNK])
# Equal values of unequal spelling, non-finite values, and whole numbers
# that are ints, not floats: a time is rendered once per object, so none of
# these may take another's text.
shared_times = st.lists(
    st.one_of(floats, st.integers(-2, 2),
              st.sampled_from([-0.0, 0.0, 1, 1.0, math.nan, math.inf, -math.inf])),
    min_size=1, max_size=4)


@st.composite
def shared_time_journals(draw):
    """Records of every kind whose times come from a small pool, so that one
    time object recurs within and across kinds, in runs and apart."""
    pool = draw(shared_times)
    records = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(sorted(RECORD_FIELDS)))
        time = pool[draw(st.integers(0, len(pool) - 1))]
        records.append((kind, time, *[draw(record_values[f]) for f in RECORD_FIELDS[kind][1:]]))
    return records


@PROPERTY
@given(st.lists(journal_records, max_size=12))
def test_journal_records_render_exactly_as_json_dumps_of_their_events(records):
    journal = Journal()
    for record in records:
        journal.append(record)
    lines = [json.dumps(oracle_event(r), sort_keys=True) + "\n" for r in records]
    assert _written(write_journal, journal) == "".join(lines)
    assert len(journal) == len(records)
    assert [json.dumps(e, sort_keys=True) + "\n" for e in journal] == lines


@PROPERTY
@given(shared_time_journals(), chunk_sizes)
def test_records_sharing_a_time_object_render_exactly_as_json_dumps(records, chunk):
    journal = Journal()
    for record in records:
        journal.append(record)
    with mock.patch.object(metrics, "_CHUNK", chunk):
        written = _written(write_journal, journal)
    assert written == "".join(json.dumps(oracle_event(r), sort_keys=True) + "\n" for r in records)


def test_a_shared_zero_and_a_shared_non_finite_time_keep_their_spelling():
    zero, negative_zero, infinite = 0.0, -0.0, math.inf
    journal = Journal()
    for time in (negative_zero, zero, infinite, 1, 1.0):
        journal.append(("request", time, 1, 0, 5.0, "A", "B"))
        journal.append(("admit", time, 1, 0, ("L1",)))
        journal.append(("expire", time, 1, 0))
    times = [line.rsplit(": ", 1)[1] for line in _written(write_journal, journal).splitlines()]
    assert times == [t for t in ("-0.0}", "0.0}", "Infinity}", "1}", "1.0}") for _ in range(3)]


def test_journal_reads_as_a_sequence_of_event_dicts():
    journal = Journal()
    journal.append(("request", 0.5, 1, 0, 5.0, "A", "B"))
    journal.append(("admit", 0.5, 1, 0, ("L1", "L2")))
    journal.append(("preempt", 2.0, 1, 0, None))
    assert journal[1] == {"kind": "admit", "time": 0.5, "lsp": 1, "ct": 0, "path": ["L1", "L2"]}
    assert journal[-1] == {"kind": "preempt", "time": 2.0, "lsp": 1, "ct": 0, "by": None}
    assert journal[:2] == [journal[0], journal[1]] == list(journal)[:2]
    journal[1]["path"].append("L9")  # a view, not the record
    assert journal.records[1] == ("admit", 0.5, 1, 0, ("L1", "L2"))


REQUEST = ("request", 0.5, 1, 0, 5.0, "A", "B")  # cells 0-6


@pytest.mark.parametrize("records, good, cell", [
    # A short block: the next record's time sits where a kind should.
    ([REQUEST, ("block", 0.5, 1), ("expire", 2.0, 2, 0)], 1, 11),
    # A short record last, and a long one last.
    ([REQUEST, ("block", 0.5, 1)], 1, 7),
    ([REQUEST, ("expire", 2.0, 1, 0, 9)], 1, 11),
    # A short request first: its template would read the block's kind.
    ([("request", 0.5, 1, 0, 5.0, "A"), ("block", 0.5, 1, 0)], 0, 7),
])
@pytest.mark.parametrize("chunk", [1, 2, metrics._CHUNK])
def test_a_journal_with_a_record_of_the_wrong_width_raises_and_never_shifts(
        records, good, cell, chunk, tmp_path):
    journal = Journal()
    for record in records:
        journal.append(record)
    message = "journal cell %d: no whole event record starts here" % cell
    for read in (len, list, lambda j: j.records, lambda j: j[0], lambda j: j[-1], lambda j: j[:]):
        with pytest.raises(ValueError, match=message):
            read(journal)
    path = tmp_path / "j.jsonl"
    with mock.patch.object(metrics, "_CHUNK", chunk), pytest.raises(ValueError, match=message):
        write_journal(journal, str(path))
    # Only the whole records before the bad one may have been written.
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(oracle_event(r), sort_keys=True) for r in records[:good]][:len(lines)]


@PROPERTY
@given(st.lists(journal_records, max_size=12), st.integers(0, 12), st.data())
def test_journal_reads_like_the_list_of_its_records(records, split, data):
    journal = Journal()
    for record in records[:split]:
        journal.append(record)
    assert len(journal) == len(records[:split])  # the scan resumes from here
    for record in records[split:]:
        journal.append(record)
    events = [oracle_event(r) for r in records]
    assert len(journal) == len(records)
    assert journal.records == records
    assert list(journal) == events
    for i in range(-len(records), len(records)):
        assert journal[i] == events[i]
    cut = data.draw(st.slices(len(records) + 2))
    assert journal[cut] == events[cut]
    with pytest.raises(IndexError):
        journal[len(records)]


@st.composite
def metrics_logs(draw):
    n = draw(st.integers(1, 4))
    counts = st.tuples(*[st.integers(0, 10**12)] * n)
    records, index = [], 0
    for _ in range(draw(st.integers(0, 8))):
        index += draw(st.integers(1, 10**9))
        records.append(MetricsRecord(
            index, draw(floats), draw(counts), draw(counts), draw(counts)))
    return n, records


@PROPERTY
@given(metrics_logs())
def test_csv_is_exactly_the_cell_by_cell_rendering(log_spec):
    n, records = log_spec
    log = MetricsLog(n)
    for record in records:
        log.append(record)
    expected = csv_oracle(n, records)
    assert log.to_csv() == expected
    assert [csv_line(r) for r in records] == expected.splitlines()[1:]


@PROPERTY
@given(metrics_logs(), st.data())
def test_metrics_log_reads_like_the_list_of_its_records(log_spec, data):
    n, records = log_spec
    log = MetricsLog(n)
    for record in records:
        log.append(record)
    assert len(log) == len(records)
    assert log.records == list(log) == records
    assert all(type(r) is MetricsRecord and type(r.blocked) is tuple for r in log)
    for i in range(-len(records), len(records)):
        assert log[i] == records[i]
    cut = data.draw(st.slices(len(records) + 2))
    assert log[cut] == records[cut]
    with pytest.raises(IndexError):
        log[len(records)]


@st.composite
def shared_tuple_logs(draw):
    """Records whose tuples come from small pools, so that one tuple object
    recurs in runs and apart, mixed with equal but distinct copies.  A
    utilisation may hold 0 or -0.0, equal values that %g spells apart."""
    n = draw(st.integers(1, 3))
    util = st.one_of(st.integers(0, 10**6), st.sampled_from([0, -0.0, 0.0]))
    util_pool = draw(st.lists(st.tuples(*[util] * n), min_size=1, max_size=3))
    count_pool = draw(st.lists(st.tuples(*[st.integers(0, 10**6)] * n), min_size=1, max_size=3))

    def pick(pool):
        shared = pool[draw(st.integers(0, len(pool) - 1))]
        return tuple(list(shared)) if draw(st.booleans()) else shared

    records, index = [], 0
    for _ in range(draw(st.integers(0, 12))):
        index += draw(st.integers(1, 5))
        records.append(MetricsRecord(
            index, draw(floats), pick(util_pool), pick(count_pool), pick(count_pool)))
    return n, records


@PROPERTY
@given(shared_tuple_logs(), chunk_sizes)
def test_csv_of_records_sharing_tuples_is_the_cell_by_cell_rendering(log_spec, chunk):
    n, records = log_spec
    log = MetricsLog(n)
    for record in records:
        log.append(record)
    with mock.patch.object(metrics, "_CHUNK", chunk):
        assert _written(MetricsLog.write_csv, log) == csv_oracle(n, records)
        assert log.to_csv() == csv_oracle(n, records)

import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def rec(i, t=1.0, util=(0, 0, 0), blocked=(0, 0, 0), preempted=(0, 0, 0)):
    return MetricsRecord(i, t, tuple(util), tuple(blocked), tuple(preempted))


class TestCsv:
    def test_three_class_header_is_pinned(self):
        assert csv_header(3) == THREE_CLASS_HEADER

    def test_row_renders_mbps_compactly(self):
        r = rec(7, t=12.5, util=(250000, 2500, 0), blocked=(3, 0, 1), preempted=(0, 2, 0))
        assert r.csv_row() == "7,12.5,250,2.5,0,3,0,1,0,2,0"

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
    assert [r.csv_row() for r in records] == expected.splitlines()[1:]

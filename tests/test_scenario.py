import gc
import math
import os
import tempfile
from collections import deque
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bamsim import Model, ParseError, ScenarioError, ValidationError, simulate
from bamsim import cli, scenario
from bamsim.checks import check_all
from bamsim.controller import Controller, LspRequest
from bamsim.metrics import read_journal, summarize, write_journal

from helpers import heap_loop_run

MINI = """
# two hosts, one switch, tiny demand
[topology]
node A host
node B host
node SW switch
link L1 A SW 100
link L2 SW B 100
bottleneck L2

[classes]
class 0 rate 5 ports 30000-30999
class 1 rate 10 ports 31000-31999

[bc]
model MAM
bc 50 50

[demand]
flows A B class 0 count 12 start_cycle 0
flows A B class 1 count 6 start_cycle 1

[run]
cycles 3
cycle_length 100
lsp_lifetime 80
seed 5
stop 18
"""

TIE = """
[topology]
node A host
node B host
link L1 A B 10

[classes]
class 0 rate 10 ports 30000-30000

[bc]
model MAM
bc 10

[demand]
flows A B class 0 count 2

[run]
cycles 2
cycle_length 50
lsp_lifetime 50
seed 1
stop 2
"""

CUT = """
[topology]
node A host
node B host
link L1 A B 100

[classes]
class 0 rate 5 ports 30000-30999

[bc]
model MAM
bc 50

[reconfig]
event hard after_request 5 bc 5

[demand]
flows A B class 0 count 10

[run]
cycles 1
cycle_length 100
lsp_lifetime 1000
seed 3
stop 10
"""


def parse(text=MINI):
    return scenario.parse_text(text, source="<test>")


class TestParsing:
    def test_round_trip_of_every_section(self):
        scn = parse()
        assert [n for n, k in scn.nodes if k == "host"] == ["A", "B"]
        assert [n for n, k in scn.nodes if k == "switch"] == ["SW"]
        assert scn.links == [("L1", "A", "SW", 100.0), ("L2", "SW", "B", 100.0)]
        assert scn.bottleneck == "L2"
        assert [(c.index, c.rate_mbps, c.port_lo, c.port_hi) for c in scn.classes] == [
            (0, 5.0, 30000, 30999),
            (1, 10.0, 31000, 31999),
        ]
        assert scn.model == "MAM"
        assert scn.bc_mbps == [50.0, 50.0]
        assert scn.demands[1].start_cycle == 1
        assert scn.run.cycles == 3
        assert scn.run.cycle_length == 100.0
        assert scn.run.lsp_lifetime == 80.0
        assert scn.run.seed == 5
        assert scn.run.stop == 18

    def test_comments_and_blank_lines_ignored(self):
        scn = parse(MINI.replace("[run]", "# noise\n\n[run]"))
        assert scn.run.stop == 18

    def test_reconfig_lines(self):
        text = MINI.replace(
            "[demand]",
            "[reconfig]\nevent hard after_request 9 bc 30 70\n"
            "event soft at_time 150 bc 40 60\n\n[demand]",
        )
        scn = parse(text)
        hard, soft = scn.reconfigs
        assert (hard.mode, hard.after_request, hard.bc_mbps) == ("hard", 9, [30.0, 70.0])
        assert (soft.mode, soft.at_time, soft.bc_mbps) == ("soft", 150.0, [40.0, 60.0])

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: t.replace("[topology]", "[nonsense]"),
            lambda t: t.replace("node A host", "node A router"),
            lambda t: t.replace("class 0 rate 5 ports", "class 0 speed 5 ports"),
            lambda t: t.replace("model MAM", "model FOO"),
            lambda t: t.replace("flows A B class 0", "pipes A B class 0"),
            lambda t: t.replace("cycles 3", "epochs 3"),
            lambda t: "stray line\n" + t,
            lambda t: t.replace("bottleneck L2", "bottle L2"),
            lambda t: t.replace("class 1 rate", "klass 1 rate"),
            lambda t: t.replace("model MAM", "modle MAM"),
            lambda t: t.replace("[demand]", "[reconfig]\nchange hard after_request 3 bc 30 70\n[demand]"),
            lambda t: t.replace("[demand]", "[reconfig]\nevent firm after_request 3 bc 30 70\n[demand]"),
            lambda t: t.replace("[demand]", "[reconfig]\nevent hard after_request 3 when 9 bc 30 70\n[demand]"),
            lambda t: t.replace("[demand]", "[reconfig]\nevent hard after_request 3\n[demand]"),
            lambda t: t.replace("flows A B class 0", "flows A B klass 0"),
            lambda t: t.replace("count 6 start_cycle 1", "count 6 begin 1"),
        ],
    )
    def test_syntax_errors_carry_source_and_line(self, mangle, tmp_path, capsys):
        text = mangle(MINI)
        # The error is on the last line the mangle wrote.
        lineno = max(i for i, line in enumerate(text.splitlines(), 1) if line not in MINI.splitlines())
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value).startswith("<test>:%d: " % lineno)
        path = tmp_path / "bad.scn"
        path.write_text(text)
        with pytest.raises(SystemExit) as exit:
            cli.main(["validate", str(path)])
        assert exit.value.code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: %s:%d: " % (path, lineno))

    def test_reconfig_trigger_must_be_exactly_one(self):
        bad = MINI.replace("[demand]", "[reconfig]\nevent hard bc 30 70\n\n[demand]")
        with pytest.raises(ParseError):
            parse(bad)
        bad = MINI.replace(
            "[demand]",
            "[reconfig]\nevent hard after_request 3 at_time 9 bc 30 70\n\n[demand]",
        )
        with pytest.raises(ParseError):
            parse(bad)


class TestValidation:
    @pytest.mark.parametrize(
        "mangle,needle",
        [
            (lambda t: t.replace("node SW switch", "node SW switch\nnode A switch"), "duplicate"),
            (lambda t: t.replace("bottleneck L2", "link L1 SW B 100\nbottleneck L2"), "duplicate link 'L1'"),
            (lambda t: t.replace("class 1 rate", "class 2 rate"), "indices"),
            (lambda t: t.replace("rate 5", "rate 0"), "positive"),
            (lambda t: t.replace("ports 31000-31999", "ports 31999-31000"), "port"),
            (lambda t: t.replace("bottleneck L2", "bottleneck L9"), "bottleneck"),
            (lambda t: t.replace("bc 50 50", "bc 50"), "length"),
            (lambda t: t.replace("flows A B", "flows A SW"), "hosts"),
            (lambda t: t.replace("class 1 count", "class 7 count"), "unknown class"),
            (lambda t: t.replace("count 12", "count -1"), "count"),
            (lambda t: t.replace("start_cycle 1", "start_cycle 3"), "start_cycle"),
            (lambda t: t.replace("cycle_length 100", "cycle_length 0"), "out of range"),
            (lambda t: t.replace("stop 18", "stop 17"), "stop"),
            (lambda t: t.replace("link L1 A SW 100", "link L1 A SW 0"), "capacity must be positive"),
            (lambda t: t.replace("link L2 SW B 100", "link L2 SW B -5"), "capacity must be positive"),
            (lambda t: t.replace("flows A B class 1", "flows B B class 1"), "same source and destination"),
            (lambda t: t.replace("[demand]", "[reconfig]\nevent hard after_request 0 bc 30 70\n\n[demand]"),
             "after_request 0 outside 1..18"),
            (lambda t: t.replace("[demand]", "[reconfig]\nevent soft after_request 19 bc 30 70\n\n[demand]"),
             "after_request 19 outside 1..18"),
            (lambda t: t.replace("[demand]", "[reconfig]\nevent soft after_request 3 bc 30\n\n[demand]"),
             "constraint vector length must match class count"),
            (lambda t: t.replace("link L1 A SW 100\n", "").replace("link L2 SW B 100\n", ""), "no links defined"),
            (lambda t: t.replace("class 0 rate 5 ports 30000-30999\n", "").replace("class 1 rate 10", "#"),
             "no traffic classes defined"),
            (lambda t: t.replace("bc 50 50", "bc 50 50\nlinks L1 L9"), "bc links reference unknown link L9"),
        ],
    )
    def test_inconsistent_scenarios_rejected(self, mangle, needle, tmp_path, capsys):
        # Some checks need the built topology or state, so a scenario is
        # judged as validate and run judge it: parsed, then built.
        with pytest.raises(ValidationError) as err:
            scenario.build(parse(mangle(MINI)))
        assert needle in str(err.value)
        path = tmp_path / "bad.scn"
        path.write_text(mangle(MINI))
        try:
            code = cli.main(["validate", str(path)])
        except SystemExit as exit:
            code = exit.code
        assert code == cli.EXIT_BAD_INPUT
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("ports", ["30000-30999", "30999-31999", "30100-30200", "29000-31999"],
                             ids=["same", "one_port", "inside", "around"])
    def test_overlapping_class_port_ranges_name_the_later_line(self, ports):
        text = MINI.replace("ports 31000-31999", "ports " + ports)
        lineno = text.splitlines().index("class 1 rate 10 ports " + ports) + 1
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == (
            "<test>:%d: class 1 ports %s overlap class 0 ports 30000-30999" % (lineno, ports)
        )

    @pytest.mark.parametrize("ports, reason", [
        ("31999-31000", "are an empty range"),
        ("99990-200000", "are outside 0-65535, OpenFlow's 16-bit tp_dst"),
        ("65000-65536", "are outside 0-65535, OpenFlow's 16-bit tp_dst"),
        ("70000-69999", "are an empty range"),
    ], ids=["empty", "far_above", "one_above", "empty_above"])
    def test_a_port_range_that_does_not_fit_tp_dst_names_its_line(self, ports, reason):
        text = MINI.replace("ports 31000-31999", "ports " + ports)
        lineno = text.splitlines().index("class 1 rate 10 ports " + ports) + 1
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == "<test>:%d: class 1 ports %s %s" % (lineno, ports, reason)

    def test_the_widest_port_ranges_are_accepted(self):
        text = MINI.replace("ports 30000-30999", "ports 0-0").replace("ports 31000-31999", "ports 1-65535")
        assert [(c.port_lo, c.port_hi) for c in parse(text).classes] == [(0, 0), (1, 65535)]

    def test_adjacent_and_reordered_port_ranges_are_accepted(self):
        text = MINI.replace("class 0 rate 5 ports 30000-30999", "class 0 rate 5 ports 31000-31999")
        scn = parse(text.replace("class 1 rate 10 ports 31000-31999", "class 1 rate 10 ports 29000-30999"))
        assert [(c.port_lo, c.port_hi) for c in scn.classes] == [(31000, 31999), (29000, 30999)]

    @pytest.mark.parametrize("after", [1, 18])
    def test_reconfig_may_fire_after_the_first_or_the_last_request(self, after):
        text = MINI.replace(
            "[demand]", "[reconfig]\nevent hard after_request %d bc 30 70\n\n[demand]" % after
        )
        assert parse(text).reconfigs[0].after_request == after

    SECOND_FLOWS = "flows A B class 1 count 6 start_cycle 1"

    @pytest.mark.parametrize("old, new, message", [
        ("flows A B", "flows A SW", "demand endpoints must be hosts"),
        ("flows A B", "flows B B", "demand B -> B has the same source and destination"),
        ("class 1 count", "class 7 count", "demand references unknown class 7"),
        ("count 6", "count -1", "demand count must be >= 0"),
        ("start_cycle 1", "start_cycle 3", "start_cycle 3 outside run"),
    ], ids=["endpoints", "same_endpoints", "class", "count", "start_cycle"])
    def test_a_demand_rejection_names_its_flows_line(self, old, new, message):
        # The second flows line is the bad one, so a message naming the
        # first, or the section, is caught.
        text = MINI.replace(self.SECOND_FLOWS, self.SECOND_FLOWS.replace(old, new))
        lineno = MINI.splitlines().index(self.SECOND_FLOWS) + 1
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == "<test>:%d: %s" % (lineno, message)

    @pytest.mark.parametrize("topology, flows, message", [
        ("node C host", "flows A C class 1", "no route for demand A -> C"),
        # A -> D over host C (L0, L01) ties with the route over SW (L1,
        # L02), and the link-id tie-break takes C, which holds no flow table.
        ("node C host\nnode D host\nlink L0 A C 100\nlink L01 C D 100\nlink L02 SW D 100",
         "flows A D class 1", "demand A -> D crosses host C"),
    ], ids=["no_route", "crosses_host"])
    def test_a_route_rejection_names_its_flows_line(self, topology, flows, message):
        line = self.SECOND_FLOWS.replace("flows A B class 1", flows)
        text = MINI.replace("node SW switch", "node SW switch\n" + topology).replace(self.SECOND_FLOWS, line)
        lineno = text.splitlines().index(line) + 1
        scn = parse(text)
        with pytest.raises(ValidationError) as err:
            scenario.build(scn)
        assert str(err.value) == "<test>:%d: %s" % (lineno, message)

    FIRST_EVENT = "event hard after_request 3 bc 30 70"

    def with_second_event(self, event):
        """MINI with two reconfig events, the second ``event``, and that
        event's line number: a message naming the first, or the section, is
        caught."""
        text = MINI.replace("[demand]", "[reconfig]\n%s\n%s\n\n[demand]" % (self.FIRST_EVENT, event))
        return text, text.splitlines().index(event) + 1

    @pytest.mark.parametrize("after", [0, 19])
    def test_a_reconfig_that_would_never_fire_names_its_event_line(self, after):
        text, lineno = self.with_second_event("event soft after_request %d bc 40 60" % after)
        with pytest.raises(ValidationError) as err:
            parse(text)
        assert str(err.value) == "<test>:%d: reconfig after_request %d outside 1..18, so it would never fire" % (
            lineno, after)

    @pytest.mark.parametrize("bc, message", [
        ("bc -5 60", "constraints must be non-negative"),
        ("bc% 150 50", "percentages must be <= 100"),
        ("bc 30", "constraint vector length must match class count"),
        ("bc 150 50", "constraint 0 (150000 kbps) exceeds capacity of link L1"),
    ], ids=["negative", "percent_over_100", "length", "over_capacity"])
    def test_an_invalid_reconfig_vector_names_its_event_line(self, bc, message):
        # The first two come from BcConfig, the last two from check_config.
        text, lineno = self.with_second_event("event soft at_time 150 " + bc)
        scn = parse(text)
        assert [spec.line for spec in scn.reconfigs] == [lineno - 1, lineno]
        with pytest.raises(ValidationError) as err:
            scenario.build(scn)
        assert str(err.value) == "<test>:%d: %s" % (lineno, message)

    def test_demand_without_a_route_is_a_validation_error(self):
        text = MINI.replace("node SW switch", "node SW switch\nnode C host").replace(
            "flows A B class 1", "flows A C class 1"
        )
        with pytest.raises(ValidationError, match="no route for demand A -> C"):
            scenario.build(parse(text))

    def test_demand_routed_through_a_host_is_a_validation_error(self):
        # A -> B over host C (L0, L01) ties with the route over SW (L1, L2),
        # and the link-id tie-break takes C, which holds no flow table.
        text = MINI.replace("node SW switch", "node SW switch\nnode C host").replace(
            "link L2 SW B 100", "link L2 SW B 100\nlink L0 A C 100\nlink L01 C B 100")
        scn = parse(text)
        with pytest.raises(ValidationError) as err:
            scenario.build(scn)
        lineno = text.splitlines().index("flows A B class 0 count 12 start_cycle 0") + 1
        assert str(err.value) == "<test>:%d: demand A -> B crosses host C" % lineno

    def test_bc_over_capacity_is_a_validation_error(self):
        scn = parse(MINI.replace("bc 50 50", "bc 150 50"))
        with pytest.raises(ValidationError):
            scenario.build(scn)

    def test_build_names_a_duplicate_link_added_after_parsing(self):
        scn = parse()
        scn.links.append(scn.links[0])
        with pytest.raises(ValidationError, match="duplicate link 'L1'"):
            scenario.build(scn)

    def test_rdm_vector_order_is_a_validation_error(self):
        text = MINI.replace("model MAM", "model RDM").replace("bc 50 50", "bc 40 50")
        scn = parse(text)
        with pytest.raises(ValidationError):
            scenario.build(scn)


class TestBuild:
    def test_state_mirrors_the_text(self):
        state, fabric, events = scenario.build(parse())
        assert state.bc_config.model is Model.MAM
        assert state.bc_config.values_kbps == (50000, 50000)
        assert state.topology.links["L1"].capacity_kbps == 100000
        assert [c.max_lsp_kbps for c in state.classes] == [5000, 10000]
        assert events == []
        assert fabric.rule_count() == 0

    def test_reconfig_events_built_in_order(self):
        text = MINI.replace(
            "[demand]",
            "[reconfig]\nevent hard after_request 9 bc 30 70\n"
            "event soft at_time 150 bc 40 60\n\n[demand]",
        )
        _state, _fabric, events = scenario.build(parse(text))
        assert events[0].after_request == 9
        assert events[0].config.values_kbps == (30000, 70000)
        assert events[1].at_time == 150.0


def class_of(scn, req):
    """The class whose port range holds the request's destination port."""
    return next(c.index for c in scn.classes if c.port_lo <= req.dst_port <= c.port_hi)


class TestSchedule:
    def test_counts_split_evenly_with_remainder_up_front(self):
        scn = parse()
        schedule = scenario.generate_schedule(scn)
        assert len(schedule) == 18
        per_cycle = {0: [0, 0, 0], 1: [0, 0, 0]}
        for req in schedule:
            cycle = int(req.time // scn.run.cycle_length)
            per_cycle[class_of(scn, req)][cycle] += 1
        assert per_cycle[0] == [4, 4, 4]   # 12 over cycles 0..2
        assert per_cycle[1] == [0, 3, 3]   # 6 over cycles 1..2
        # uneven split: 7 requests over 3 cycles lands 3, 2, 2
        text = MINI.replace("count 12", "count 7").replace("stop 18", "stop 13")
        lop_scn = parse(text)
        lop = scenario.generate_schedule(lop_scn)
        sided = [0, 0, 0]
        for req in lop:
            if class_of(lop_scn, req) == 0:
                sided[int(req.time // 100.0)] += 1
        assert sided == [3, 2, 2]

    def test_stream_ids_are_one_based_and_time_ordered(self):
        schedule = scenario.generate_schedule(parse())
        assert [r.id for r in schedule] == list(range(1, 19))
        times = [r.time for r in schedule]
        assert times == sorted(times)
        for req in schedule:
            cycle = int(req.time // 100.0)
            assert cycle * 100.0 <= req.time < (cycle + 1) * 100.0

    def test_ports_derive_from_stream_position(self):
        scn = parse()
        for req in scenario.generate_schedule(scn):
            assert req.src_port == 20000 + req.id
            lo, hi = (30000, 30999) if class_of(scn, req) == 0 else (31000, 31999)
            assert req.dst_port == lo + req.id % (hi - lo + 1)

    def test_endpoints_are_the_ips_build_gives_the_hosts(self):
        text = MINI.replace("node A host", "node C host\nnode A host").replace(
            "flows A B class 1", "flows B A class 1")
        scn = parse(text)
        state, _fabric, _events = scenario.build(scn)
        hosts = state.topology.hosts
        pairs = {(req.src_ip, req.dst_ip) for req in scenario.generate_schedule(scn)}
        assert pairs == {(hosts["A"], hosts["B"]), (hosts["B"], hosts["A"])}
        assert hosts["A"] == "10.0.0.2"  # numbered in file order, C first

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", scenario.bundled_names())
    def test_the_schedule_is_the_stream_in_one_list(self, name, seed):
        scn = scenario.load(name)
        scn.run.seed = seed
        schedule = scenario.generate_schedule(scn)
        streamed = list(scenario.arrivals(scn))
        assert len(schedule) == scn.run.stop
        assert schedule == streamed
        assert set(map(record_types, schedule + streamed)) == {(LspRequest, (int, float, str, str, int, int))}

    def test_same_seed_same_schedule_different_seed_differs(self):
        a = scenario.generate_schedule(parse())
        b = scenario.generate_schedule(parse())
        assert a == b
        other = parse(MINI.replace("seed 5", "seed 6"))
        c = scenario.generate_schedule(other)
        assert [r.time for r in c] != [r.time for r in a]


def record_types(request):
    return type(request), tuple(map(type, request))


def held_by(roots):
    """Every object reachable from ``roots`` through dicts, lists, tuples,
    sets, deques and the ``vars()`` of the package's objects.  The garbage
    collector cannot answer this: it untracks a tuple that holds only
    atomic values, as a request does."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("bamsim") and hasattr(obj, "__dict__"):
            stack.append(vars(obj))


class TestSimulate:
    def test_run_drains_completely(self):
        result = simulate(parse())
        state = result.state
        assert sum(state.counters.requested) == 18
        assert state.active_lsps == {}
        for c in range(2):
            assert state.counters.admitted[c] == (
                state.counters.completed[c] + state.counters.preempted[c]
            )
        assert result.fabric.rule_count() == 0

    def test_every_admitted_lsp_lives_exactly_its_lifetime(self):
        result = simulate(parse())
        admits = {e["lsp"]: e["time"] for e in result.journal if e["kind"] == "admit"}
        expires = {e["lsp"]: e["time"] for e in result.journal if e["kind"] == "expire"}
        assert admits
        assert set(admits) == set(expires)
        for lsp_id, t0 in admits.items():
            assert math.isclose(expires[lsp_id] - t0, 80.0)

    @pytest.mark.parametrize("stop", [None, 5, 0])
    def test_the_controller_receives_the_stream_in_order_and_stop_cuts_it_short(self, stop, monkeypatch):
        seen = []
        handle = Controller.handle_request

        def spy(controller, req):
            seen.append(req)
            return handle(controller, req)

        monkeypatch.setattr(Controller, "handle_request", spy)
        scn = parse()
        scn.run.stop = stop
        simulate(scn)
        expected = scenario.generate_schedule(parse())[:stop]
        assert len(seen) == (18 if stop is None else stop)
        assert seen == expected
        assert list(map(record_types, seen)) == list(map(record_types, expected))

    @pytest.mark.parametrize("name", scenario.bundled_names())
    def test_a_finished_run_holds_no_request(self, name):
        """A handled request is garbage at once: nothing the run keeps, the
        fabric's drop log included, reaches an ``LspRequest``."""
        result = simulate(scenario.load(name))
        assert result.fabric.drops and all(type(d) is int for d in result.fabric.drops)
        roots = [result.state, result.fabric, result.controller, result.journal, result.metrics]
        assert not any(isinstance(obj, LspRequest) for obj in held_by(roots))
        # The walk does reach a request that something keeps.
        result.fabric.drops.append(scenario.generate_schedule(parse())[0])
        assert any(isinstance(obj, LspRequest) for obj in held_by(roots))

    def test_stop_short_circuits_but_still_drains(self):
        scn = parse()
        scn.run.stop = 5
        result = simulate(scn)
        assert sum(result.state.counters.requested) == 5
        assert len(result.metrics.records) == 5
        assert result.state.active_lsps == {}

    def test_metrics_record_per_request_in_stream_order(self):
        result = simulate(parse())
        records = result.metrics.records
        assert [r.request_index for r in records] == list(range(1, 19))
        assert all(len(r.util_kbps) == 2 for r in records)
        last = records[-1]
        assert last.blocked == tuple(result.state.counters.blocked)

    def test_journal_totals_match_state_counters(self, tmp_path):
        result = simulate(parse())
        stats = summarize(result.journal)
        counters = result.state.counters
        assert stats["requested"] == counters.requested
        assert stats["admitted"] == counters.admitted
        assert stats["blocked"] == counters.blocked
        assert stats["preempted"] == counters.preempted
        assert stats["completed"] == counters.completed
        # The written journal, read back, recounts to the same totals.
        path = str(tmp_path / "journal.jsonl")
        write_journal(result.journal, path)
        assert summarize(read_journal(path), result.scenario.n_classes) == stats

    @pytest.mark.parametrize("name", scenario.bundled_names())
    def test_a_run_leaves_its_logs_nothing_for_the_collector(self, name):
        # Both logs keep flat cells, not a container per event or per
        # request, so once the collector has untracked the few shared
        # tuples of atoms (paths, utilisations), no cell is tracked.
        result = simulate(scenario.load(name))
        gc.collect()
        for log in (result.journal, result.metrics):
            cells = [cell for held in vars(log).values() if type(held) is list for cell in held]
            assert cells
            assert not any(map(gc.is_tracked, cells))

    def test_on_event_hook_sees_consistent_state_throughout(self):
        seen = []

        def hook(kind, state, fabric):
            seen.append(kind)
            check_all(state, fabric)

        simulate(parse(), on_event=hook)
        assert seen.count("request") == 18
        assert "expire" in seen

    def test_count_triggered_reconfig_fires_after_the_nth_record(self):
        # Nothing expires during this run, so five LSPs hold 25 of the 50
        # Mbps limit when the cut to 5 Mbps lands.  The 5th record must
        # predate the cut's evictions; the 6th must show them.
        result = simulate(parse(CUT))
        records = result.metrics.records
        assert records[4].preempted == (0,)
        assert records[4].util_kbps == (25000,)
        assert records[5].preempted == (4,)
        reconfigs = [e for e in result.journal if e["kind"] == "reconfig"]
        assert len(reconfigs) == 1
        assert reconfigs[0]["time"] == records[4].sim_time

    def test_departures_precede_arrivals_at_equal_times(self, monkeypatch):
        scn = parse(TIE)
        first, second = scenario.generate_schedule(scn)
        forced = second._replace(time=first.time + 50.0)
        monkeypatch.setattr(scenario, "arrivals", lambda _scn: iter([first, forced]))
        result = simulate(scn)
        # The link fits one LSP; the second request lands exactly at the
        # first's expiry and must see the freed capacity.
        assert [(e["kind"], e["time"]) for e in result.journal][2:4] == [("expire", forced.time), ("request", forced.time)]
        assert result.state.counters.blocked == [0]
        assert result.state.counters.completed == [2]

    def test_bundled_scenarios_enumerate_and_load(self, tmp_path):
        names = scenario.bundled_names()
        assert names == ["exp1_mam", "exp1_rdm", "exp2_hard", "exp2_soft"]
        scn = scenario.load("exp1_mam")
        assert scn.run.stop == sum(d.count for d in scn.demands)
        with pytest.raises(ScenarioError):
            scenario.load_bundled("exp9_missing")
        # A path is no bundled name, even where path + ".scn" is a file.
        (tmp_path / "mini.scn").write_text(MINI)
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            scenario.load_bundled(str(tmp_path / "mini"))

    def test_load_prefers_filesystem_paths(self, tmp_path):
        p = tmp_path / "mini.scn"
        p.write_text(MINI)
        scn = scenario.load(str(p))
        assert scn.source == str(p)


def exp2_soft_with(*replacements):
    text = (resources.files("bamsim") / "scenarios" / "exp2_soft.scn").read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    return text


# exp2_soft restated: every link has 500 Mbps, so these percentages are its
# vectors, and every flow crosses L6, so governing L6 alone binds as
# governing every link does.
RESTATED = {
    "percent": (("bc 350 50 100", "bc% 70 10 20"), ("bc 250 150 100", "bc% 50 30 20")),
    "links": (("bc 350 50 100", "bc 350 50 100\nlinks L6"),),
}


class TestConstraintScopes:
    """``bc%`` vectors and ``links`` subsets, from scenario text to a run
    checked after every event."""

    def checked_run(self, text, tmp_path):
        path = tmp_path / "scoped.scn"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == cli.EXIT_OK
        return simulate(scenario.parse_file(str(path)), on_event=lambda kind, state, fabric: check_all(state, fabric))

    @pytest.mark.parametrize("name", list(RESTATED))
    def test_a_restated_vector_runs_as_the_bundled_one(self, name, tmp_path):
        result = self.checked_run(exp2_soft_with(*RESTATED[name]), tmp_path)
        bundled = simulate(scenario.load_bundled("exp2_soft"))
        assert result.metrics.to_csv() == bundled.metrics.to_csv()
        assert sum(result.state.counters.blocked) > 0

    def test_links_outside_the_subset_hold_only_their_capacity(self, tmp_path):
        # Governing the ingress links of HS1 and HS2 leaves HS3's classes 1
        # and 2 capped by nothing but the 500 Mbps links.
        result = self.checked_run(exp2_soft_with(("bc 350 50 100", "bc 350 50 100\nlinks L1 L2")), tmp_path)
        table = result.state.tables().current.table
        assert [row[4] for row in table["L3"]] == ["capacity"]
        assert [row[4] for row in table["L1"]] == ["class 0", "class 1", "class 2", "capacity"]
        bundled = simulate(scenario.load_bundled("exp2_soft"))
        assert result.state.counters.blocked[1:] < bundled.state.counters.blocked[1:]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: a bc% reconfig is journaled as bc_mbps []")
    def test_a_percent_reconfig_journals_its_vector_in_mbps(self):
        result = simulate(scenario.parse_text(exp2_soft_with(*RESTATED["percent"])))
        logged = [(e["kind"], e["bc_mbps"]) for e in result.journal if e["kind"] in ("reconfig", "promote")]
        assert logged == [("reconfig", [250.0, 150.0, 100.0]), ("promote", [250.0, 150.0, 100.0])]


def artifacts(journal, log):
    """(metrics.csv, journal.jsonl) as the writers put them on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, journal_path = os.path.join(tmp, "m.csv"), os.path.join(tmp, "j.jsonl")
        log.write_csv(csv_path)
        write_journal(journal, journal_path)
        with open(csv_path, "rb") as csv_file, open(journal_path, "rb") as journal_file:
            return csv_file.read(), journal_file.read()


def assert_same_bytes_as_the_heap_loop(scn):
    result = simulate(scn)
    controller, log = heap_loop_run(scn)
    assert len(result.metrics.records) == len(log.records)
    assert artifacts(result.journal, result.metrics) == artifacts(controller.journal, log)
    return result


# Requests from two sources into one bottleneck of room for four class-0
# LSPs; ``tie_runs`` fills in the model, reconfigs, counts and lifetime.
TIES = """
[topology]
node A host
node B host
node C host
node S switch
link L1 A S 100
link L2 B S 100
link L3 S C 40
bottleneck L3

[classes]
class 0 rate 10 ports 30000-30999
class 1 rate 20 ports 31000-31999

[bc]
model %s
bc 40 20
%s
[demand]
flows A C class 0 count %d
flows B C class 1 count %d

[run]
cycles 1
cycle_length 100
lsp_lifetime %d
seed 1
"""


@st.composite
def tie_runs(draw):
    """A TIES scenario whose arrivals sit on whole seconds and whose
    lifetime is a whole number, so that expiries, timed reconfigurations and
    arrivals meet at one time again and again."""
    n0, n1 = draw(st.integers(1, 8)), draw(st.integers(0, 6))
    total = n0 + n1
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        mode = draw(st.sampled_from(["hard", "soft"]))
        trigger = draw(st.one_of(
            st.builds("at_time {}".format, st.integers(0, 14)),
            st.builds("after_request {}".format, st.integers(1, total)),
        ))
        bc = draw(st.sampled_from(["40 20", "30 10", "20 20"]))
        lines.append("event %s %s bc %s" % (mode, trigger, bc))
    model = draw(st.sampled_from(["MAM", "RDM"]))
    reconfig = "[reconfig]\n" + "\n".join(lines) + "\n" if lines else ""
    text = TIES % (model, reconfig, n0, n1, draw(st.integers(1, 5)))
    times = sorted(draw(st.lists(st.integers(0, 10), min_size=total, max_size=total)))
    stop = draw(st.one_of(st.none(), st.integers(0, total)))
    return text, [float(t) for t in times], stop


class TestLoopMatchesTheHeapLoop:
    """``simulate`` pulls arrivals from ``arrivals``, expiries from a FIFO
    and timed reconfigurations from a list sorted once;
    ``helpers.heap_loop_run`` pushes every event into one heap.  Both must
    write the same bytes."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", scenario.bundled_names())
    def test_bundled_scenarios(self, name, seed):
        scn = scenario.load(name)
        scn.run.seed = seed
        assert_same_bytes_as_the_heap_loop(scn)

    @pytest.mark.parametrize("name", scenario.bundled_names())
    def test_bundled_scenarios_with_stop_cut_short(self, name):
        scn = scenario.load(name)
        scn.run.stop //= 3
        result = assert_same_bytes_as_the_heap_loop(scn)
        assert len(result.metrics.records) == scn.run.stop
        assert result.state.active_lsps == {}

    def test_timed_reconfig_at_exactly_an_arrival_time(self):
        arrival = scenario.generate_schedule(parse())[9]
        scn = parse(MINI.replace(
            "[demand]", "[reconfig]\nevent hard at_time %r bc 10 10\n\n[demand]" % arrival.time))
        result = assert_same_bytes_as_the_heap_loop(scn)
        kinds = [(e["kind"], e.get("lsp")) for e in result.journal]
        # The reconfig goes between the 9th and the 10th request.
        assert kinds.index(("request", 9)) < kinds.index(("reconfig", None)) < kinds.index(("request", 10))

    def test_expiry_exactly_on_an_arrival(self):
        scn = parse(TIE)
        first, second = scenario.generate_schedule(scn)
        forced = [first, second._replace(time=first.time + 50.0)]
        with mock.patch.object(scenario, "arrivals", lambda _scn: iter(forced)):
            result = assert_same_bytes_as_the_heap_loop(scn)
        assert [(e["kind"], e["time"]) for e in result.journal][2:4] == [("expire", forced[1].time), ("request", forced[1].time)]

    def test_expiries_whose_times_round_together_go_in_id_order(self):
        # 0.0 + 2**53 and 1.0 + 2**53 round to the same float, so two arrivals
        # a second apart expire at one time, and in the order they came.
        scn = parse(TIE.replace("link L1 A B 10", "link L1 A B 20").replace("bc 10", "bc 20")
                    .replace("lsp_lifetime 50", "lsp_lifetime %r" % 2.0 ** 53))
        first, second = scenario.generate_schedule(scn)
        forced = [first._replace(time=0.0), second._replace(time=1.0)]
        with mock.patch.object(scenario, "arrivals", lambda _scn: iter(forced)):
            result = assert_same_bytes_as_the_heap_loop(scn)
        expired = [(e["time"], e["lsp"]) for e in result.journal if e["kind"] == "expire"]
        assert expired == [(2.0 ** 53, 1), (2.0 ** 53, 2)]

    def test_after_request_reconfig_on_the_last_request(self):
        scn = parse(CUT.replace("after_request 5", "after_request 10"))
        result = assert_same_bytes_as_the_heap_loop(scn)
        kinds = [e["kind"] for e in result.journal]
        assert kinds.index("reconfig") > max(i for i, k in enumerate(kinds) if k == "request")
        assert result.state.counters.preempted == [9]

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(tie_runs())
    def test_generated_runs_with_ties_everywhere(self, run):
        text, times, stop = run
        scn = parse(text)
        scn.run.stop = stop
        schedule = [r._replace(time=t) for r, t in zip(scenario.generate_schedule(scn), times)]
        with mock.patch.object(scenario, "arrivals", lambda _scn: iter(schedule)):
            result = assert_same_bytes_as_the_heap_loop(scn)
        assert [r.sim_time for r in result.metrics.records] == times[:stop]

import os
import subprocess
import sys
from importlib import resources

import pytest

import bamsim
from bamsim import cli, metrics, scenario

MINI = """
[topology]
node A host
node B host
link L1 A B 100
bottleneck L1

[classes]
class 0 rate 5 ports 30000-30999
class 1 rate 10 ports 31000-31999

[bc]
model MAM
bc 40 40

[demand]
flows A B class 0 count 20
flows A B class 1 count 10

[run]
cycles 2
cycle_length 50
lsp_lifetime 40
seed 9
stop 30
"""

# The endpoints are hosts, but the demanded pair has no path.
SPLIT_BRAIN = """
[topology]
node A host
node B host
node C host
node D host
link L1 A B 10
link L2 C D 10

[classes]
class 0 rate 5 ports 30000-30999

[bc]
model MAM
bc 10

[demand]
flows A C class 0 count 2

[run]
cycles 1
cycle_length 10
lsp_lifetime 10
seed 1
stop 2
"""

# Both endpoints are hosts with a route, but the min-hop route A -> C takes
# L1, L2 over host B, which holds no flow table; the equally short route over
# S1 loses the link-id tie-break.
HOST_TRANSIT = """
[topology]
node A host
node B host
node C host
node S1 switch
link L1 A B 10
link L2 B C 10
link L3 A S1 10
link L4 S1 C 10

[classes]
class 0 rate 5 ports 30000-30999

[bc]
model MAM
bc 10

[demand]
flows A C class 0 count 3

[run]
cycles 1
cycle_length 10
lsp_lifetime 10
seed 1
"""


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def mini(tmp_path):
    path = tmp_path / "mini.scn"
    path.write_text(MINI)
    return str(path)


class TestRun:
    def test_writes_outputs_and_prints_summary(self, mini, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(["run", mini, "--out", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "metrics.csv").exists()
        assert (out / "journal.jsonl").exists()
        stdout = capsys.readouterr().out
        assert "requested_ct0=20" in stdout
        assert "requested_ct1=10" in stdout

    def test_quiet_suppresses_summary(self, mini, tmp_path, capsys):
        code = run_cli(["run", mini, "--quiet", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out == ""

    def test_same_inputs_same_bytes(self, mini, tmp_path):
        for d in ("a", "b"):
            assert run_cli(["run", mini, "--quiet", "--out", str(tmp_path / d)]) == 0
        for name in ("metrics.csv", "journal.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_seed_override_changes_the_run(self, mini, tmp_path):
        assert run_cli(["run", mini, "--quiet", "--out", str(tmp_path / "a")]) == 0
        assert run_cli(
            ["run", mini, "--quiet", "--seed", "77", "--out", str(tmp_path / "b")]
        ) == 0
        assert (tmp_path / "a" / "metrics.csv").read_text() != (
            tmp_path / "b" / "metrics.csv"
        ).read_text()

    def test_stop_override_truncates(self, mini, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["run", mini, "--quiet", "--stop", "4", "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 4

    @pytest.mark.parametrize("stop", ["0", "-5", "31"])
    def test_stop_outside_the_request_count_is_bad_input(self, mini, tmp_path, capsys, stop):
        out = tmp_path / "o"
        code = run_cli(["run", mini, "--quiet", "--stop", stop, "--out", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "--stop" in err and "30" in err
        assert not out.exists()

    def test_stop_at_the_request_count_runs_everything(self, mini, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["run", mini, "--quiet", "--stop", "30", "--out", str(out)]) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 30

    def test_nested_out_dir_is_created(self, mini, tmp_path):
        out = tmp_path / "deep" / "er" / "out"
        assert run_cli(["run", mini, "--quiet", "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    def test_out_naming_a_file_is_bad_input_before_the_run(self, mini, tmp_path, capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("keep")

        def never(*_args, **_kwargs):
            raise RuntimeError("simulated before --out was checked")

        monkeypatch.setattr("bamsim.scenario.simulate", never)
        code = run_cli(["run", mini, "--quiet", "--out", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --out:") and "Traceback" not in err
        assert out.read_text() == "keep"

    def test_unwritable_artifact_is_bad_input(self, mini, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "metrics.csv").mkdir(parents=True)
        code = run_cli(["run", mini, "--quiet", "--out", str(out)])
        assert code == cli.EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: --out:")

    def test_unknown_scenario_is_bad_input(self, tmp_path, capsys):
        code = run_cli(["run", "exp_missing", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_mid_run_failure_is_a_runtime_error(self, mini, tmp_path, capsys, monkeypatch):
        def broken(*_args):
            raise RuntimeError("decision engine fault")

        monkeypatch.setattr("bamsim.bam.decide", broken)
        assert run_cli(["validate", mini]) == cli.EXIT_OK
        capsys.readouterr()
        code = run_cli(["run", mini, "--quiet", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "simulation failed" in err and "decision engine fault" in err

    def test_demand_without_a_route_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "split.scn"
        path.write_text(SPLIT_BRAIN)
        code = run_cli(["run", str(path), "--quiet", "--out", str(tmp_path / "o" / "deep")])
        assert code == cli.EXIT_BAD_INPUT
        assert "no route for demand A -> C" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # nothing left behind
        existing = tmp_path / "kept"
        existing.mkdir()
        (existing / "note.txt").write_text("mine")
        code = run_cli(["run", str(path), "--quiet", "--out", str(existing)])
        assert code == cli.EXIT_BAD_INPUT
        assert sorted(p.name for p in existing.iterdir()) == ["note.txt"]
        assert (existing / "note.txt").read_text() == "mine"

    def test_demand_routed_through_a_host_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "transit.scn"
        path.write_text(HOST_TRANSIT)
        code = run_cli(["run", str(path), "--quiet", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_BAD_INPUT
        lineno = HOST_TRANSIT.splitlines().index("flows A C class 0 count 3") + 1
        assert "error: %s:%d: demand A -> C crosses host B" % (path, lineno) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overlapping_port_ranges_are_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(MINI.replace("ports 30000-30999", "ports 31500-32000"))
        code = run_cli(["run", str(bad), "--quiet", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "error: %s:10: class 1 ports 31000-31999 overlap class 0" % bad in err
        assert not (tmp_path / "o").exists()

    def test_bundled_name_resolves(self, tmp_path):
        code = run_cli(
            ["run", "exp1_mam", "--quiet", "--stop", "30", "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_OK


class TestValidate:
    def test_ok_scenario(self, mini, capsys):
        assert run_cli(["validate", mini]) == cli.EXIT_OK
        assert "ok (30 requests over 2 cycles)" in capsys.readouterr().out

    def test_a_missing_file_is_not_taken_for_a_bundled_name(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "x.scn"
        assert run_cli(["validate", str(missing)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: no such file: %s " % missing)
        assert all(name in err for name in scenario.bundled_names())

    def test_a_path_is_not_completed_with_the_suffix(self, mini, capsys):
        # mini.scn exists, mini does not: the argument names no file, and a
        # path is never joined onto the bundled scenarios' directory.
        stem = mini.removesuffix(".scn")
        assert run_cli(["validate", stem]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no such file: %s " % stem)

    def test_cost_follows_the_request_count_not_the_cycle_count(self, tmp_path):
        # A billion cycles, 770 requests: the schedule must not visit every
        # cycle.  In a subprocess, so that a regression times out instead of
        # hanging the suite.
        text = (resources.files("bamsim") / "scenarios" / "exp2_soft.scn").read_text()
        assert "cycles 10\n" in text
        path = tmp_path / "long.scn"
        path.write_text(text.replace("cycles 10\n", "cycles 1000000000\n"))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bamsim.__file__)))
        done = subprocess.run([sys.executable, "-m", "bamsim.cli", "validate", str(path)],
                              env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert "ok (770 requests over 1000000000 cycles)" in done.stdout

    def test_validate_draws_no_request(self, tmp_path):
        # 100 M requests: the counts are checked as numbers and no request is
        # drawn, so validate fits under a 512 MB address-space limit that a
        # drawn schedule would exhaust.  The limit binds the child alone.
        text = (resources.files("bamsim") / "scenarios" / "exp1_rdm.scn").read_text()
        total = 1125 - 400 + 99999999
        for old, new in [("flows HS1 DST class 0 count 400 ", "flows HS1 DST class 0 count 99999999 "),
                         ("stop 1125", "stop %d" % total)]:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "huge.scn"
        path.write_text(text)
        limited = ("import resource, sys\n"
                   "limit = 512 * 2 ** 20\n"
                   "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
                   "from bamsim import cli\n"
                   "sys.exit(cli.main(['validate', sys.argv[1]]))\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bamsim.__file__)))
        done = subprocess.run([sys.executable, "-c", limited, str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert done.stdout == "%s: ok (%d requests over 10 cycles)\n" % (path, total)

    def test_parse_error_is_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(MINI.replace("[run]", "[nope]"))
        assert run_cli(["validate", str(bad)]) == cli.EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_build_error_is_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(MINI.replace("bc 40 40", "bc 400 40"))
        assert run_cli(["validate", str(bad)]) == cli.EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_demand_without_a_route_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "split.scn"
        path.write_text(SPLIT_BRAIN)
        assert run_cli(["validate", str(path)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and "no route for demand A -> C" in err

    def test_demand_routed_through_a_host_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "transit.scn"
        path.write_text(HOST_TRANSIT)
        assert run_cli(["validate", str(path)]) == cli.EXIT_BAD_INPUT
        lineno = HOST_TRANSIT.splitlines().index("flows A C class 0 count 3") + 1
        assert "error: %s:%d: demand A -> C crosses host B" % (path, lineno) in capsys.readouterr().err

    def test_a_demand_rejection_names_its_line_and_is_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "q.scn"
        bad.write_text(MINI.replace("flows A B class 1", "flows A X class 1"))
        lineno = MINI.splitlines().index("flows A B class 1 count 10") + 1
        assert run_cli(["validate", str(bad)]) == cli.EXIT_BAD_INPUT == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s:%d: demand endpoints must be hosts\n" % (bad, lineno)

    def test_a_reconfig_rejection_names_its_event_line_and_is_bad_input(self, tmp_path, capsys):
        # The second event line is the bad one.
        text = MINI.replace("[demand]", "[reconfig]\nevent hard after_request 5 bc 30 30\n"
                                        "event soft at_time 60 bc 30\n\n[demand]")
        lineno = text.splitlines().index("event soft at_time 60 bc 30") + 1
        bad = tmp_path / "r.scn"
        bad.write_text(text)
        assert run_cli(["validate", str(bad)]) == cli.EXIT_BAD_INPUT == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s:%d: constraint vector length must match class count\n" % (bad, lineno)

    def test_overlapping_port_ranges_are_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(MINI.replace("ports 31000-31999", "ports 30000-30999"))
        assert run_cli(["validate", str(bad)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "error: %s:10: class 1 ports 30000-30999 overlap class 0" % bad in err

    @pytest.mark.parametrize("ports, reason", [
        ("31999-31000", "are an empty range"),
        ("99990-200000", "are outside 0-65535, OpenFlow's 16-bit tp_dst"),
    ], ids=["empty", "beyond_16_bits"])
    def test_a_port_range_that_does_not_fit_tp_dst_is_bad_input_at_its_line(self, tmp_path, capsys, ports, reason):
        text = MINI.replace("ports 31000-31999", "ports " + ports)
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        lineno = text.splitlines().index("class 1 rate 10 ports " + ports) + 1
        for command in (["validate", str(bad)], ["run", str(bad), "--quiet", "--out", str(tmp_path / "out")]):
            assert run_cli(command) == cli.EXIT_BAD_INPUT
            assert "error: %s:%d: class 1 ports %s %s" % (bad, lineno, ports, reason) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # (line replaced, its replacement, message, line the message cites if
    # not the replacement's own).  Non-finite numbers once validated and then
    # ran to "Infinity" in the journal, exited 3 mid-run, or crashed validate.
    @pytest.mark.parametrize("old,new,needle,cited", [
        ("lsp_lifetime 40", "lsp_lifetime inf", "inf is not a finite number", None),
        ("cycle_length 50", "cycle_length 1e308",
         "the run outlasts the float range: cycles 2 x cycle_length 1e+308 + lsp_lifetime 40.0",
         "lsp_lifetime 40"),
        ("cycle_length 50", "cycle_length nan", "nan is not a finite number", None),
        ("[demand]", "[reconfig]\nevent hard at_time nan bc 40 40\n[demand]",
         "nan is not a finite number", "event hard at_time nan bc 40 40"),
        ("class 0 rate 5 ports 30000-30999", "class 0 rate nan ports 30000-30999",
         "nan is not a finite number", None),
        ("class 0 rate 5 ports 30000-30999", "class 0 rate inf ports 30000-30999",
         "inf is not a finite number", None),
        ("link L1 A B 100", "link L1 A B nan", "nan is not a finite number", None),
        ("link L1 A B 100", "link L1 A B 1e400", "1e400 is not a finite number", None),
        ("bc 40 40", "bc nan 40", "nan is not a finite number", None),
        ("bc 40 40", "bc 40 -inf", "-inf is not a finite number", None),
        ("bc 40 40", "bc% 40 nan", "nan is not a finite number", None),
        ("bc 40 40", "bc 1e306 40", "1e306 is beyond 9007199254740.992", None),
        ("class 0 rate 5 ports 30000-30999", "class 0 rate 0.0004 ports 30000-30999",
         "class 0 rate must be positive: 0.0004 Mbps rounds to 0 kbps", None),
        ("link L1 A B 100", "link L1 A B 4e-4",
         "link L1 capacity must be positive: 4e-4 Mbps rounds to 0 kbps", None),
        ("cycles 2", "cycles 1" + "0" * 400,
         "the run outlasts the float range: cycles 1%s x cycle_length 50.0 + lsp_lifetime 40.0" % ("0" * 400),
         "lsp_lifetime 40"),
    ], ids=["lifetime_inf", "cycle_length_overflows", "cycle_length_nan", "at_time_nan",
            "rate_nan", "rate_inf", "capacity_nan", "capacity_overflows", "bc_nan",
            "bc_minus_inf", "bc_percent_nan", "bc_beyond_exact_kbps",
            "rate_rounds_to_0_kbps", "capacity_rounds_to_0_kbps", "cycles_beyond_the_float_range"])
    def test_non_finite_or_overflowing_number_is_bad_input(
        self, tmp_path, capsys, old, new, needle, cited
    ):
        text = MINI.replace(old, new)
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        assert run_cli(["validate", str(bad)]) == cli.EXIT_BAD_INPUT
        lineno = text.splitlines().index(cited or new) + 1
        assert "error: %s:%d: %s" % (bad, lineno, needle) in capsys.readouterr().err

    # A rate or capacity that rounds to 0 kbps once crashed validate with a
    # traceback, and made run exit 3 or run a dead link.
    @pytest.mark.parametrize("old,new", [
        ("class 1 rate 10 ports 31000-31999", "class 1 rate 0.0004 ports 31000-31999"),
        ("link L1 A B 100", "link L1 A B 0.0002"),
    ], ids=["rate", "capacity"])
    def test_bandwidth_rounding_to_0_kbps_stops_run_as_bad_input(self, tmp_path, capsys, old, new):
        text = MINI.replace(old, new)
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["run", str(bad), "--quiet", "--out", str(out)]) == cli.EXIT_BAD_INPUT
        lineno = text.splitlines().index(new) + 1
        assert "error: %s:%d: " % (bad, lineno) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("links,needle", [
        ("link L1 A B 100\nlink L1 B A 50", "duplicate link 'L1'"),
        ("link L1 A B 100\nlink L2 A Z 50", "link L2 references unknown node 'Z'"),
    ], ids=["duplicate_id", "unknown_endpoint"])
    def test_bad_link_is_bad_input(self, tmp_path, capsys, links, needle):
        bad = tmp_path / "bad.scn"
        bad.write_text(MINI.replace("link L1 A B 100", links))
        assert run_cli(["validate", str(bad)]) == cli.EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "error:" in err and needle in err


@pytest.mark.parametrize("command", ["validate", "run"])
class TestScenarioFileThatIsNotText:
    """A scenario path that cannot be read as UTF-8 text is bad input with
    a location, never a traceback, and run creates no --out directory."""

    def _error(self, command, path, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert run_cli(argv) == cli.EXIT_BAD_INPUT
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_a_byte_that_is_not_utf8_is_bad_input_at_its_line(self, command, tmp_path, capsys):
        lines = (resources.files("bamsim") / "scenarios" / "exp1_rdm.scn").read_bytes().splitlines(True)
        path = tmp_path / "latin1.scn"
        path.write_bytes(b"".join(lines[:3]) + b"# caf\xe9\n" + b"".join(lines[3:]))
        err = self._error(command, path, tmp_path, capsys)
        assert err.startswith("error: %s:4: byte 0xe9 is not UTF-8" % path)

    def test_a_directory_is_bad_input(self, command, tmp_path, capsys):
        path = tmp_path / "dir.scn"
        path.mkdir()
        assert self._error(command, path, tmp_path, capsys).startswith("error: %s: " % path)


class TestSummary:
    def test_recounts_saved_journal(self, mini, tmp_path, capsys):
        out = tmp_path / "o"
        run_cli(["run", mini, "--quiet", "--out", str(out)])
        capsys.readouterr()
        assert run_cli(["summary", str(out / "journal.jsonl")]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "requested_ct0=20" in stdout
        assert "completed_ct" in stdout

    @pytest.mark.parametrize("name", ["exp1_mam", "exp1_rdm", "exp2_hard", "exp2_soft"])
    def test_run_prints_what_its_journal_recounts(self, name, tmp_path, capsys):
        """run prints the state's final counters; its journal must recount
        to the same lines."""
        n_classes = scenario.load(name).n_classes
        for seed in (1, 7):
            out = tmp_path / str(seed)
            assert run_cli(["run", name, "--seed", str(seed), "--out", str(out)]) == cli.EXIT_OK
            journal = metrics.read_journal(str(out / "journal.jsonl"))
            assert capsys.readouterr().out == metrics.render_summary(metrics.summarize(journal, n_classes)) + "\n"

    def test_missing_journal_is_bad_input(self, tmp_path, capsys):
        code = run_cli(["summary", str(tmp_path / "nope.jsonl")])
        assert code == cli.EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, needle", [
        ('[1,2]', "not a JSON object"),
        ('"request"', "not a JSON object"),
        ('{"ct": 0}', "no kind"),
        ('{"kind": ["request"], "ct": 0}', "no kind"),
        ('{"kind":"request"}', "ct"),
        ('{"kind": "request", "ct": -1}', "ct"),
        ('{"kind": "request", "ct": "x"}', "ct"),
        ('{"kind": "admit", "ct": 1.0}', "ct"),
        ('{"kind": "block", "ct": true}', "ct"),
        ('{"kind": "future", "ct": null}', "ct"),
        ('{"kind": "request", "ct": 0', "Expecting"),
    ])
    def test_a_line_that_is_not_an_event_is_bad_input_at_its_line(
            self, tmp_path, capsys, line, needle):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "request", "ct": 0}\n\n%s\n{"kind": "promote"}\n' % line)
        assert run_cli(["summary", str(path)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s:3: " % path)
        assert needle in captured.err

    # A Latin-1 byte, a byte that never starts UTF-8, and an encoded surrogate.
    @pytest.mark.parametrize("bad", [b"caf\xe9", b"\xff", b"\xed\xa0\x80"])
    def test_a_line_that_is_not_utf8_is_bad_input_at_its_line(self, tmp_path, capsys, bad):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"kind": "request", "ct": 0}\n{"kind": "request", "ct": 0, "src": "%s"}\n' % bad)
        assert run_cli(["summary", str(path)]) == cli.EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s:2: " % path)

    def test_events_without_a_class_are_not_counted(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "reconfig"}\n{"kind": "request", "ct": 1}\n')
        assert run_cli(["summary", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[:2] == ["requested_ct0=0", "requested_ct1=1"]


def test_run_reports_a_class_with_no_events(tmp_path, capsys):
    text = resources.files(bamsim).joinpath("scenarios/exp1_rdm.scn").read_text()
    without_ct2 = [line for line in text.splitlines() if "class 2 count" not in line]
    total = sum(int(line.split()[6]) for line in without_ct2 if line.startswith("flows"))
    path = tmp_path / "no_ct2.scn"
    path.write_text("\n".join(without_ct2).replace("stop 1125", "stop %d" % total))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "requested_ct2=0" in lines and "completed_ct2=0" in lines
    assert len(lines) == 5 * 3


CHECKED_RUN = """
from bamsim import checks, scenario
scenario.simulate(scenario.load("exp1_mam"),
                  on_event=lambda kind, state, fabric: checks.check_all(state, fabric))
"""


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """Set iteration order changes with PYTHONHASHSEED; the artifacts and
    the checks' verdicts must not.  Fresh processes, one per setting."""
    src = os.path.dirname(os.path.dirname(bamsim.__file__))
    outputs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        out = tmp_path / hash_seed
        done = subprocess.run(
            [sys.executable, "-m", "bamsim.cli", "run", "exp2_soft", "--out", str(out), "--quiet"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == cli.EXIT_OK, done.stderr
        outputs.append([(out / name).read_bytes() for name in ("metrics.csv", "journal.jsonl")])
        done = subprocess.run([sys.executable, "-c", CHECKED_RUN],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
    assert outputs[0] == outputs[1]

"""``tests/trace_gate.py`` must pass a traced run whose counts agree and
fail one that breaks any of its equalities."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from trace_gate import gate, main

GATE = Path(__file__).resolve().parent / "trace_gate.py"

# Counts that meet every equality: 12 grants (2 of them preemptions), 5
# denies, 8 releases.
PASSING = {
    "bam.decide_calls": 17, "controller.classify_calls": 17, "fabric.drop_calls": 5, "bam.deny": 5,
    "core.commit_calls": 12, "fabric.install_calls": 12, "bam.grant": 10, "bam.grant_preempt": 2,
    "core.release_calls": 8, "fabric.remove_calls": 8, "bam.select_victims_calls": 3, "bam.infeasible_calls": 1,
    "fabric.rules_max": 4, "fabric.remove_yield": 0.5, "checks.state_calls": 30, "checks.fabric_calls": 30,
    "metrics.journal_events": 42, "runtime.gc_collections": 3,
}

# Each breaks one equality, or one link of a chain that cannot break alone.
BREAKS = {
    "check_calls_equal": ("checked", {"checks.fabric_calls": 31}),
    "check_calls_positive": ("checked", {"checks.state_calls": 0, "checks.fabric_calls": 0}),
    "decide_is_classify": (None, {"bam.decide_calls": 18}),
    "classify_is_verdicts": (None, {"bam.decide_calls": 18, "controller.classify_calls": 18}),
    "drop_is_deny": (None, {"fabric.drop_calls": 6}),
    "deny_positive": (None, {"bam.deny": 0, "fabric.drop_calls": 0, "bam.decide_calls": 12,
                             "controller.classify_calls": 12}),
    "commit_is_install": (None, {"core.commit_calls": 13}),
    "install_is_grants": (None, {"core.commit_calls": 13, "fabric.install_calls": 13}),
    "grants_positive": (None, {"bam.grant": 0, "bam.grant_preempt": 0, "core.commit_calls": 0,
                               "fabric.install_calls": 0, "bam.decide_calls": 5, "controller.classify_calls": 5,
                               "bam.select_victims_calls": 1}),
    "release_is_remove": (None, {"fabric.remove_calls": 9}),
    "remove_positive": (None, {"core.release_calls": 0, "fabric.remove_calls": 0}),
    "victim_sets_are_preemptions": (None, {"bam.infeasible_calls": 0}),
    "preemptions_positive": (None, {"bam.grant": 12, "bam.grant_preempt": 0, "bam.select_victims_calls": 1}),
    "rules_max_positive": (None, {"fabric.rules_max": 0}),
    "remove_yield_positive": (None, {"fabric.remove_yield": 0}),
    "remove_yield_at_most_one": (None, {"fabric.remove_yield": 1.5}),
    "journal_is_layer_events": ("rdm_k16", {"metrics.journal_events": 43}),
}


def result(workload, correct=True, **overrides):
    """A traced result as bench.py prints it.  The journal keeps its
    equality with the layer counts unless an override sets it."""
    value = {**PASSING, **overrides}
    if "metrics.journal_events" not in overrides:
        value["metrics.journal_events"] = (value["controller.classify_calls"] + value["bam.grant"]
                                           + value["bam.grant_preempt"] + value["bam.deny"]
                                           + value["core.release_calls"])
    return {"workload": workload, "correct": correct,
            "metrics": {name: {"value": v, "unit": "count"} for name, v in value.items()}}


@pytest.mark.parametrize("workload, line", [
    ("checked", "correct: True check calls: 30 30 decide/classify calls/verdicts: 17 17 17 "
                "drop calls/denies: 5 5 commit/install calls/grants: 12 12 12 release/remove calls: 8 8 "
                "victim sets/preemption grants: 2 2 rules max/remove yield: 4 0.5"),
    ("rdm_k16", "correct: True decide/classify calls/verdicts: 17 17 17 drop calls/denies: 5 5 "
                "commit/install calls/grants: 12 12 12 release/remove calls: 8 8 "
                "victim sets/preemption grants: 2 2 journal events/layer events: 42 42 "
                "rules max/remove yield: 4 0.5 gc collections: 3"),
])
def test_a_passing_run_prints_its_counts_and_exits_0(workload, line, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(result(workload))))
    assert main(["trace_gate.py", workload]) == 0
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("workload", ["checked", "rdm_k16"])
@pytest.mark.parametrize("only, overrides", BREAKS.values(), ids=list(BREAKS))
def test_each_broken_equality_fails_the_gate(only, overrides, workload):
    shown, ok = gate(workload, result(workload, **overrides))
    assert ok is (only is not None and only != workload), shown


@pytest.mark.parametrize("workload", ["checked", "rdm_k16"])
def test_an_incorrect_run_fails_the_gate(workload):
    assert gate(workload, result(workload, correct=False))[1] is False


def test_the_script_reads_stdin_and_exits_1_on_a_broken_run():
    # As CI runs it: the workload as argument, the result on stdin.
    broken = json.dumps(result("checked", **{"fabric.remove_calls": 9}))
    done = subprocess.run([sys.executable, str(GATE), "checked"], input=broken + "\n",
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 1 and done.stdout.startswith("correct: True check calls: 30 30 ")
    done = subprocess.run([sys.executable, str(GATE), "mam_k16"], input=broken, capture_output=True, text=True,
                          timeout=30)
    assert done.returncode == 1 and done.stderr.startswith("usage: trace_gate.py {checked,rdm_k16}")

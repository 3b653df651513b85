"""The benchmark's tracer and probe patch package functions by owner and
name, so each name they patch must be defined on the owner they patch it on,
and callers must reach it there.

``perfbench/tracing.py`` imports only the standard library and the package,
so it is loaded here by path and the contract holds on every supported
interpreter, also where the benchmark itself does not run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from bamsim import bam, scenario
from bamsim.controller import Controller

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_is_defined_on_its_owner():
    tracing = load_tracing()
    targets = [(owner, attr) for owner, attr, _name, _hooks in tracing.LAYERS]
    targets += [(Controller, "handle_request"), (Controller, "handle_expiry")]  # the probe's
    missing = [(owner.__name__, attr) for owner, attr in targets if attr not in vars(owner)]
    assert missing == []


def test_every_preemption_grant_reaches_select_victims_through_the_module(monkeypatch):
    # The tracer counts victim sets at bam.select_victims: each one that
    # returns must be one preemption grant of bam.decide.
    counts = Counter()
    select_victims, decide = bam.select_victims, bam.decide

    def counting_select_victims(*args):
        victims = select_victims(*args)  # an Infeasible raise is no victim set
        counts["victim sets"] += 1
        return victims

    def counting_decide(*args):
        decision = decide(*args)
        counts[decision.verdict] += 1
        return decision

    monkeypatch.setattr(bam, "select_victims", counting_select_victims)
    monkeypatch.setattr(bam, "decide", counting_decide)
    scenario.simulate(scenario.load("exp1_rdm"))
    assert counts["victim sets"] == counts[bam.Verdict.GRANT_WITH_PREEMPTION] > 0

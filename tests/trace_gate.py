"""Gate a traced benchmark run on the tracer's call counts.

Usage, with the workload's name as the only argument and the benchmark's
last output line on stdin:

    python3 perfbench/bench.py --workload rdm_k16 --seconds 2 --trace 1 | tail -n 1 \\
        | python3 tests/trace_gate.py rdm_k16

Prints one line of the counts and exits 0 when the run is correct and every
equality below holds, 1 otherwise.

The tracer counts decisions, classifications and drops by patching
``bam.decide``, ``Classifier.classify`` and ``Fabric.record_drop`` by name,
so every request must reach them through the module or the class.  It
counts grants and teardowns through ``controller.commit``,
``Fabric.install_path``, ``controller.release``, ``bam.release`` and
``Fabric.remove_by_owner`` the same way: every grant commits and installs
once, and every release removes once.  It counts verdicts from the decision
each ``decide`` returns, so grants, preemption grants and denies must add up
to the decide calls.  It counts victim selection through
``bam.select_victims``, which ``decide`` must reach through the module:
every victim set it returns is one preemption grant.  The fabric's peak rule
count and removal yield pin that ``rule_count()`` and ``remove_by_owner``'s
return count per-switch rules.  Unequal or zero counts mean a refactor
bypassed one of them.

``checked``: the tracer times the checks by patching ``checks.check_state``
and ``checks.check_fabric`` by name, so ``check_all`` must still call both
through the module.  The benchmark always passes a fabric, so every
``check_all`` calls each once.  This workload runs the MAM denies and every
kind of config change.

``rdm_k16``: the journal holds one event per classification, grant, deny and
release (a request, an admit, a block, and a preempt or an expire), so its
length must equal their sum.  In ``checked`` the journal also holds the
reconfig and promote events, so that equality is this workload's alone.
"""

import json
import sys

WORKLOADS = ("checked", "rdm_k16")


def gate(workload, result):
    """The fields of the printed line, and whether every equality holds."""
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    decide, classify, drop, deny = (value[name] for name in (
        "bam.decide_calls", "controller.classify_calls", "fabric.drop_calls", "bam.deny"))
    commit, install, grants = (value["core.commit_calls"], value["fabric.install_calls"],
                               value["bam.grant"] + value["bam.grant_preempt"])
    release, remove = value["core.release_calls"], value["fabric.remove_calls"]
    victim_sets = value["bam.select_victims_calls"] - value["bam.infeasible_calls"]
    rules_max, remove_yield = value["fabric.rules_max"], value["fabric.remove_yield"]
    ok = (result["correct"] and decide == classify == grants + deny and drop == deny > 0
          and commit == install == grants > 0 and release == remove > 0
          and victim_sets == value["bam.grant_preempt"] > 0
          and rules_max > 0 and 0 < remove_yield <= 1)
    shown = ["correct:", result["correct"]]
    if workload == "checked":
        state, fabric = value["checks.state_calls"], value["checks.fabric_calls"]
        shown += ["check calls:", state, fabric]
        ok = ok and state == fabric > 0
    shown += ["decide/classify calls/verdicts:", decide, classify, grants + deny,
              "drop calls/denies:", drop, deny, "commit/install calls/grants:", commit, install, grants,
              "release/remove calls:", release, remove,
              "victim sets/preemption grants:", victim_sets, value["bam.grant_preempt"]]
    if workload == "rdm_k16":
        events, layer_events = value["metrics.journal_events"], classify + grants + deny + release
        shown += ["journal events/layer events:", events, layer_events]
        ok = ok and events == layer_events > 0
    shown += ["rules max/remove yield:", rules_max, remove_yield]
    if workload == "rdm_k16":
        shown += ["gc collections:", value["runtime.gc_collections"]]
    return shown, bool(ok)


def main(argv):
    if len(argv) != 2 or argv[1] not in WORKLOADS:
        sys.exit("usage: trace_gate.py {%s} < last line of a traced bench.py run" % ",".join(WORKLOADS))
    shown, ok = gate(argv[1], json.load(sys.stdin))
    print(*shown)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Host-cost benchmark of bamsim: whole runs of ``scenario.simulate``, checked
byte for byte, plus a traced split across the package's modules.

    python3 perfbench/bench.py                       # all workloads, untraced
    python3 perfbench/bench.py --workload rdm_k16 --seed 3 --seconds 60 --trace 1
    python3 perfbench/bench.py --record              # re-record references.json

Run it from any directory; it imports bamsim from the ``src`` directory next
to this one and writes artifacts under ``.perfbench_out`` there.  The
workloads, metrics and layers are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

try:
    import bamsim
    from bamsim import checks, metrics, scenario
except ModuleNotFoundError as exc:
    sys.exit("perfbench: cannot import bamsim from %s: %s" % (ROOT / "src", exc))

import scaling  # noqa: E402
from tracing import Probe, Tracer  # noqa: E402

OUT = ROOT / ".perfbench_out"
REFERENCES = Path(__file__).with_name("references.json")
ARTIFACTS = ("metrics.csv", "journal.jsonl")
BUNDLED = ("exp1_mam", "exp1_rdm", "exp2_hard", "exp2_soft")
SEED_POOL = tuple(range(1, 17))  # scenario seeds with recorded references


@dataclass(frozen=True)
class Workload:
    scenarios: Tuple[str, ...]
    k: int
    seeds_per_pass: int
    checked: bool = False


# Why each workload exists is in README.md; in short:
WORKLOADS = {
    # Preemption-heavy RDM at scale: victim selection and the fabric removal scan.
    "rdm_k16": Workload(("exp1_rdm",), 16, 2),
    # check_all after every event, small active sets: the checks and the
    # per-request fixed costs.
    "checked": Workload(BUNDLED, 1, 1, checked=True),
}


@dataclass(frozen=True)
class Unit:
    """One simulated (scenario, scale, seed)."""

    scenario: str
    k: int
    seed: int
    checked: bool = False

    @property
    def key(self) -> str:
        return "%s@x%d/seed%d" % (self.scenario, self.k, self.seed)


def units_for(workload: str, seed: int) -> List[Unit]:
    """The pass a workload repeats: its scenarios at scenario seeds drawn
    from ``SEED_POOL`` by the workload seed."""
    spec = WORKLOADS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    seeds = rng.sample(SEED_POOL, spec.seeds_per_pass)
    return [Unit(name, spec.k, s, spec.checked) for s in seeds for name in spec.scenarios]


def scenario_texts(units: List[Unit]) -> Dict[Tuple[str, int], str]:
    """Scaled scenario text for every unit that is not a bundled file as is."""
    return {
        (u.scenario, u.k): scaling.scaled_text(u.scenario, u.k) for u in units if u.k != 1
    }


def _check_all(kind, state, fabric) -> None:
    checks.check_all(state, fabric)


def run_unit(
    unit: Unit,
    texts: Dict[Tuple[str, int], str],
    out: Path,
    probe: Optional[Probe] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[int, float]:
    """Simulate one unit as ``bamsim run`` does, from scenario load to both
    artifacts written, under the probe or the tracer if one is given.
    Returns (requests, wall seconds)."""
    if unit.k == 1:
        load = functools.partial(scenario.load, unit.scenario)
    else:
        load = functools.partial(
            scenario.parse_text,
            texts[(unit.scenario, unit.k)],
            source=scaling.source(unit.scenario, unit.k),
        )
    if tracer is not None:
        load = tracer.wrap(load, "scenario.load")
    instrument = probe or tracer
    with instrument.installed() if instrument is not None else contextlib.nullcontext():
        t0 = perf_counter_ns()
        if probe is not None:
            probe.start_unit(t0)
        scn = load()
        scn.run.seed = unit.seed
        result = scenario.simulate(scn, on_event=_check_all if unit.checked else None)
        result.metrics.write_csv(str(out / ARTIFACTS[0]))
        metrics.write_journal(result.journal, str(out / ARTIFACTS[1]))
        t1 = perf_counter_ns()
        if probe is not None:
            probe.end_unit(t1)
    return len(result.metrics.records), (t1 - t0) / 1e9


def digests(out: Path) -> Dict[str, str]:
    result = {}
    for name in ARTIFACTS:
        with open(out / name, "rb") as fh:
            result[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return result


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    requests: int = 0
    wall: float = 0.0


def run_pass(
    units: List[Unit],
    texts: Dict[Tuple[str, int], str],
    out: Path,
    refs: Dict[str, Dict[str, str]],
    tally: Tally,
    probe: Optional[Probe] = None,
    tracer: Optional[Tracer] = None,
) -> None:
    """Each unit once.  A unit fails if it raises (``check_all`` included) or
    if an artifact's sha256 differs from its reference.  The probe keeps the
    pass's times only if every unit succeeded."""
    failed = tally.failed
    for unit in units:
        gc.collect()  # start every unit from a clean heap, as a fresh process does
        tally.attempted += 1
        try:
            requests, wall = run_unit(unit, texts, out, probe, tracer)
        except Exception:  # noqa: BLE001 - any failure of the program counts
            traceback.print_exc()
            tally.failed += 1
            continue
        got = digests(out)
        if got != refs.get(unit.key):
            print("perfbench: %s artifacts %s differ from reference %s"
                  % (unit.key, got, refs.get(unit.key)), file=sys.stderr)
            tally.failed += 1
            continue
        tally.requests += requests
        tally.wall += wall
    if probe is not None:
        if tally.failed == failed:
            probe.end_pass()
        else:
            probe.start_pass()


def _percentile(ordered: List[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(tally: Tally, probe: Probe, peak_rss_kb: int) -> Dict[str, Tuple[float, str]]:
    """Figures of one pass put together from the fastest run of each of its
    stretches (see ``Probe``)."""
    if not probe.passes or not probe.best_request or not probe.best_expire:
        return {}
    requests = sorted(probe.best_request)
    expiries = sorted(probe.best_expire)
    return {
        "requests_per_s": (len(requests) / (sum(probe.best_stretch) / 1e9), "req/s"),
        "request_p50_us": (_percentile(requests, 0.50) / 1e3, "us"),
        "request_p99_us": (_percentile(requests, 0.99) / 1e3, "us"),
        "expire_p50_us": (_percentile(expiries, 0.50) / 1e3, "us"),
        "setup_s": (statistics.median(probe.setups_ns()) / 1e9, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures of one traced pass of the workload."""
    own = tracer.self_times()
    c = tracer.counts

    def secs(span: str) -> Tuple[float, str]:
        return own.get(span, 0) / 1e9, "s"

    def count(key: str) -> Tuple[float, str]:
        return c[key], "count"

    def ratio(num: float, den: float) -> Tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    requests = c["controller.request_calls"]
    return {
        "scenario.load_s": secs("scenario.load"),
        "scenario.build_s": secs("scenario.build"),
        "scenario.schedule_s": secs("scenario.schedule"),
        "controller.routes_s": secs("controller.routes"),
        "scenario.loop_self_s": secs("scenario.simulate"),
        "controller.classify_calls": count("controller.classify_calls"),
        "controller.classify_s": secs("controller.classify"),
        "controller.request_self_s": secs("controller.request"),
        "core.commit_calls": count("core.commit_calls"),
        "core.commit_s": secs("core.commit"),
        "fabric.install_calls": count("fabric.install_calls"),
        "fabric.install_s": secs("fabric.install"),
        "fabric.drop_calls": count("fabric.drop_calls"),
        "fabric.drop_s": secs("fabric.drop"),
        "metrics.append_s": secs("metrics.append"),
        "bam.decide_calls": count("bam.decide_calls"),
        "bam.decide_self_s": secs("bam.decide"),
        "bam.grant": count("bam.grant"),
        "bam.grant_preempt": count("bam.grant_preempt"),
        "bam.deny": count("bam.deny"),
        "bam.promote_calls": count("bam.promote_calls"),
        "bam.promote_s": secs("bam.promote"),
        "bam.promotions": count("bam.promotions"),
        "bam.reconfigure_calls": count("bam.reconfigure_calls"),
        "bam.reconfigure_s": secs("bam.reconfigure"),
        "controller.reconfig_s": secs("controller.reconfig"),
        "bam.select_victims_calls": count("bam.select_victims_calls"),
        "bam.select_victims_s": secs("bam.select_victims"),
        "bam.victim_candidates": count("bam.victim_candidates"),
        "bam.victims_chosen": count("bam.victims_chosen"),
        "bam.victim_yield": ratio(c["bam.victims_chosen"], c["bam.victim_candidates"]),
        "bam.infeasible_calls": (
            c["bam.select_victims_calls"] - c["bam.select_victims_returns"], "count"),
        "fabric.remove_calls": count("fabric.remove_calls"),
        "fabric.remove_s": secs("fabric.remove"),
        "fabric.rules_scanned": count("fabric.rules_scanned"),
        "fabric.remove_yield": ratio(c["fabric.rules_removed"], c["fabric.rules_scanned"]),
        "fabric.rules_max": (c["fabric.rules_max"], "count"),
        "core.release_calls": count("core.release_calls"),
        "core.release_s": secs("core.release"),
        "controller.expire_self_s": secs("controller.expire"),
        "core.active_lsps_mean": (c["core.active_lsps_sum"] / requests if requests else 0.0, "count"),
        "core.active_lsps_max": (c["core.active_lsps_max"], "count"),
        "metrics.csv_s": secs("metrics.csv"),
        "metrics.csv_bytes": (c["metrics.csv_bytes"], "B"),
        "metrics.journal_s": secs("metrics.journal"),
        "metrics.journal_events": count("metrics.journal_events"),
        "metrics.journal_bytes": (c["metrics.journal_bytes"], "B"),
        "runtime.gc_s": secs("runtime.gc"),
        "runtime.gc_collections": count("runtime.gc_collections"),
        "checks.state_calls": count("checks.state_calls"),
        "checks.state_s": secs("checks.state"),
        "checks.fabric_calls": count("checks.fabric_calls"),
        "checks.fabric_s": secs("checks.fabric"),
        "trace.coverage": ratio(sum(own.values()) / 1e9, traced.wall),
        "trace.overhead": ratio(untraced.requests / untraced.wall,
                                traced.requests / traced.wall),
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    refs: Dict[str, Dict[str, str]],
) -> Dict:
    """Repeat the workload's pass under the probe while another pass fits in
    ``seconds`` (at least once).  Traced, one more pass follows under the
    tracer and the per-layer figures come from it.  Returns the result
    object."""
    units = units_for(workload, seed)
    texts = scenario_texts(units)
    out.mkdir(parents=True, exist_ok=True)
    probe = Probe()
    untraced, traced = Tally(), Tally()
    passes = 0
    start = now = perf_counter()
    while True:
        run_pass(units, texts, out, refs, untraced, probe=probe)
        passes += 1
        last, now = now, perf_counter()
        if now + (now - last) - start > seconds:  # the next pass would not fit
            break
    # Read before sorting the samples, which would add their size to the peak.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        tracer = Tracer()
        run_pass(units, texts, out, refs, traced, tracer=tracer)
        tracer.write(str(out / "spans.tsv"))
        figures = per_layer(tracer, traced, untraced) if traced.wall and untraced.wall else {}
    else:
        figures = end_to_end(untraced, probe, peak_rss_kb)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    for name, (value, unit) in figures.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print("%-28s %14s (%d untraced passes of %d units, stretches kept from %d, %d requests a pass)"
          % ("failed/attempted", "%d/%d" % (failed, attempted), passes, len(units),
             probe.passes, len(probe.best_request)))
    return {
        "correct": failed == 0 and bool(figures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()},
    }


def record(out: Path) -> None:
    """Write references.json: artifact digests of every unit any workload
    seed can select, from untraced, unchecked runs."""
    units = sorted(
        {Unit(name, spec.k, seed) for spec in WORKLOADS.values()
         for seed in SEED_POOL for name in spec.scenarios},
        key=lambda u: (u.k, u.scenario, u.seed),
    )
    texts = scenario_texts(units)
    out.mkdir(parents=True, exist_ok=True)
    refs = {}
    for unit in units:
        run_unit(unit, texts, out)
        refs[unit.key] = digests(out)
        print(unit.key, refs[unit.key]["metrics.csv"][:12], refs[unit.key]["journal.jsonl"][:12])
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record the artifact references and exit")
    args = parser.parse_args(argv)
    if Path(bamsim.__file__).resolve().parent != ROOT / "src" / "bamsim":
        print("perfbench: bamsim imported from %s, not from %s/src"
              % (bamsim.__file__, ROOT), file=sys.stderr)
        return 2
    if args.record:
        record(OUT / "record")
        return 0
    refs = json.loads(REFERENCES.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print("== %s (seed %d, %s)" % (name, args.seed, "traced" if args.trace else "untraced"))
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), OUT / name, refs)
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Load-scaled variants of the bundled scenarios, emitted as scenario text.

``scaled_text(name, k)`` multiplies link capacities, absolute constraint
vectors (initial and reconfig), reconfig ``after_request`` counts, demand
counts and ``stop`` by k.  Class rates, cycles, cycle length and LSP lifetime
stay as they are, so utilisation and blocking shares stay the same while the
active-LSP set grows k-fold.  Percentage vectors (``bc%``) and timed
reconfigs (``at_time``) are scale-free and are copied unchanged.  At k = 1 the
text describes the bundled scenario exactly: floats are written with
``repr``, which parses back to the same value.
"""

from __future__ import annotations

from typing import List

from bamsim import scenario


def render(scn: scenario.Scenario, k: int = 1) -> str:
    """Scenario text for ``scn`` scaled by ``k``."""
    def vector(values: List[float], percent: bool) -> str:
        scaled = values if percent else [v * k for v in values]
        return "%s %s" % ("bc%" if percent else "bc", " ".join(repr(v) for v in scaled))

    lines = ["[topology]"]
    lines += ["node %s %s" % node for node in scn.nodes]
    lines += ["link %s %s %s %r" % (lid, a, b, cap * k) for lid, a, b, cap in scn.links]
    if scn.bottleneck is not None:
        lines.append("bottleneck %s" % scn.bottleneck)
    lines.append("[classes]")
    lines += [
        "class %d rate %r ports %d-%d" % (c.index, c.rate_mbps, c.port_lo, c.port_hi)
        for c in scn.classes
    ]
    lines += ["[bc]", "model %s" % scn.model, vector(scn.bc_mbps, scn.bc_percent)]
    if scn.bc_links:
        lines.append("links %s" % " ".join(scn.bc_links))
    if scn.reconfigs:
        lines.append("[reconfig]")
    for spec in scn.reconfigs:
        when = (
            "at_time %r" % spec.at_time
            if spec.at_time is not None
            else "after_request %d" % (spec.after_request * k)
        )
        lines.append("event %s %s %s" % (spec.mode, when, vector(spec.bc_mbps, spec.percent)))
    lines.append("[demand]")
    lines += [
        "flows %s %s class %d count %d start_cycle %d"
        % (d.src, d.dst, d.class_index, d.count * k, d.start_cycle)
        for d in scn.demands
    ]
    run = scn.run
    lines += [
        "[run]",
        "cycles %d" % run.cycles,
        "cycle_length %r" % run.cycle_length,
        "lsp_lifetime %r" % run.lsp_lifetime,
        "seed %d" % run.seed,
    ]
    if run.stop is not None:
        lines.append("stop %d" % (run.stop * k))
    return "\n".join(lines) + "\n"


def scaled_text(name: str, k: int) -> str:
    """A bundled scenario scaled by ``k``, checked the way ``bamsim validate``
    checks a file: parse, build and schedule generation must all succeed."""
    text = render(scenario.load_bundled(name), k)
    scn = scenario.parse_text(text, source=source(name, k))
    scenario.build(scn)
    scenario.generate_schedule(scn)
    return text


def source(name: str, k: int) -> str:
    return "perfbench:%s@x%d" % (name, k)

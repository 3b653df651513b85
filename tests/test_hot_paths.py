"""The functions every request, preemption and expiry runs read no enum
member through its class and build no record through ``NamedTuple._make``.

On CPython 3.10 and 3.11 ``LspState.PREEMPTED`` runs Python-level code in
the enum's metaclass, ~100-140 ns a read against ~8 ns for a module global,
and ``Lsp._make`` costs ~230 ns against ~140 ns for ``tuple.__new__``.  The
per-event code therefore reads the members it needs through module
constants (``core.PREEMPTED``, ``bam.DENY``, ...) and builds its records
with ``tuple.__new__``.  A name in a function's ``co_names`` is a global or
attribute it reads, so these tests catch a member read through its class, or
a ``_make``, that slips back into a hot path.

A grant and a teardown also build no per-switch rule and format no match
key: the fabric keeps one record per LSP, and its per-switch tables are a
view built only when read.
"""

import types

import pytest

from bamsim import bam, checks, core, scenario
from bamsim.controller import Controller
from bamsim.fabric import Fabric, FlowMatch, FlowRule

HOT_PATHS = {
    "Controller.handle_request": Controller.handle_request,
    "Controller.handle_expiry": Controller.handle_expiry,
    "core.release": core.release,
    "core.commit": core.commit,
    "bam.decide": bam.decide,
    "bam._choose_victims": bam._choose_victims,
    "Fabric.install_path": Fabric.install_path,
    "Fabric.remove_by_owner": Fabric.remove_by_owner,
    "scenario.generate_schedule": scenario.generate_schedule,
}

FORBIDDEN = {"LspState", "Verdict", "Model", "ReconfigMode", "_make"}


def names_read(code: types.CodeType) -> set:
    """The global and attribute names a code object reads, its nested code
    objects (comprehensions, closures) included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= names_read(const)
    return names


@pytest.mark.parametrize("name", sorted(HOT_PATHS))
def test_hot_path_reads_no_enum_class_and_calls_no_make(name):
    assert not names_read(HOT_PATHS[name].__code__) & FORBIDDEN


def test_the_constants_are_the_public_members():
    assert core.PREEMPTED is core.LspState.PREEMPTED
    assert core.COMPLETED is core.LspState.COMPLETED
    assert bam.GRANT_WITH_PREEMPTION is bam.Verdict.GRANT_WITH_PREEMPTION
    assert bam.DENY is bam.Verdict.DENY
    assert bam.SOFT is bam.ReconfigMode.SOFT


@pytest.mark.parametrize("name", scenario.bundled_names())
def test_a_checked_run_formats_no_match_key(name, monkeypatch):
    def refuse(match):
        raise AssertionError("FlowMatch.key called on a per-event path")

    monkeypatch.setattr(FlowMatch, "key", refuse)
    result = scenario.simulate(scenario.load(name), on_event=lambda kind, state, fabric: checks.check_all(state, fabric))
    assert len(result.journal) > 0


@pytest.mark.parametrize("name", scenario.bundled_names())
def test_a_checked_run_diffs_in_full_only_what_neither_common_move_explains(name, monkeypatch):
    """``check_all`` enters each full check once, on its first call, and
    the general registry diff only on a call whose registry moved by neither
    of the event loop's two common moves: one commit, appended at the tail,
    or one release of the oldest LSP, at the head.  So neither move is sent
    to a slower path unseen."""
    entered = {"_check_state_in_full": [], "_check_fabric_in_full": [], "_diff": []}
    calls = []
    for full, log in entered.items():
        real = getattr(checks, full)
        monkeypatch.setattr(checks, full, lambda *args, real=real, log=log: (log.append(len(calls)), real(*args))[1])
    other = []

    def hook(kind, state, fabric):
        keys = list(state.active_lsps)
        if calls and keys not in (calls[-1], calls[-1][1:]) and keys[:-1] != calls[-1]:
            other.append(len(calls))
        checks.check_all(state, fabric)
        calls.append(keys)

    scn = scenario.load(name)
    scn.run.seed = 7
    scenario.simulate(scn, on_event=hook)
    assert len(calls) > 1000
    assert entered == {"_check_state_in_full": [0], "_check_fabric_in_full": [0], "_diff": other}


class _Half(Exception):
    pass


def _reachable(root, skip):
    """Every object held by ``root`` through dicts, lists and tuples (tuple
    subclasses included), except the objects in ``skip``."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or any(obj is other for other in skip):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)


@pytest.mark.parametrize("name", scenario.bundled_names())
def test_the_fabric_of_a_half_finished_run_holds_no_flow_rule(name):
    events = []
    scenario.simulate(scenario.load(name), on_event=lambda kind, state, fabric: events.append(kind))
    total = len(events)
    seen = []

    def stop_halfway(kind, state, fabric):
        seen.append((state, fabric))
        if len(seen) == total // 2:
            raise _Half

    with pytest.raises(_Half):
        scenario.simulate(scenario.load(name), on_event=stop_halfway)
    state, fabric = seen[-1]
    assert fabric.rule_count() > 0
    # Each record holds the registry's very LSP, not a copy of its fields.
    assert [record[0] for record in fabric._records.values()] == list(state.active_lsps.values())
    assert all(record[0] is state.active_lsps[owner] for owner, record in fabric._records.items())
    held = list(_reachable(vars(fabric), skip=[fabric.topology, fabric.drops]))
    assert any(type(obj) is FlowMatch for obj in held)
    assert not any(isinstance(obj, FlowRule) for obj in held)
    # One owner per match: no list of owners, nor any other list, besides
    # the drop log.
    assert not any(isinstance(obj, list) for obj in held)

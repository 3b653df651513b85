"""The benchmark's tracer and probe patch package functions by owner and
name, so each name they patch must be defined on the owner they patch it on.

``perfbench/tracing.py`` imports only the standard library and the package,
so it is loaded here by path and the contract holds on every supported
interpreter, also where the benchmark itself does not run.
"""

import importlib.util
from pathlib import Path

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

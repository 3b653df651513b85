"""The bundled scenarios at x1 reproduce, byte for byte, the artifacts whose
sha256 digests ``perfbench/references.json`` records.

The benchmark compares the same digests, but it reads them with
``hashlib.file_digest``, which is new in Python 3.11.  This test hashes the
bytes with ``hashlib.sha256`` and imports only the standard library and the
package, so every supported interpreter checks the artifacts.  It writes
them as ``perfbench/bench.py`` does, through ``MetricsLog.write_csv`` and
``metrics.write_journal``.
"""

import hashlib
import json
from pathlib import Path

from bamsim import metrics, scenario

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
ARTIFACTS = ("metrics.csv", "journal.jsonl")


def test_bundled_artifacts_match_the_recorded_digests(tmp_path):
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    units = sorted(key for key in references if "@x1/" in key)
    assert {key.split("@")[0] for key in units} == set(scenario.bundled_names())
    digests = {}
    for key in units:
        name, seed = key.split("@x1/seed")
        scn = scenario.load(name)
        scn.run.seed = int(seed)
        result = scenario.simulate(scn)
        result.metrics.write_csv(str(tmp_path / ARTIFACTS[0]))
        metrics.write_journal(result.journal, str(tmp_path / ARTIFACTS[1]))
        digests[key] = {a: hashlib.sha256((tmp_path / a).read_bytes()).hexdigest() for a in ARTIFACTS}
    assert digests == {key: references[key] for key in units}

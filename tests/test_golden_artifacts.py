"""Golden artifact manifest: every experiment at its smoke preset.

``tests/golden/report_fast.sha256`` (``sha256sum`` format) pins the SHA-256
of each experiment's JSON artifact at its declared ``ExperimentSpec.smoke``
parameters — the files ``python -m repro report --fast --out DIR`` writes.
Here each experiment runs on its own fresh :class:`SimulationContext`, so
together with the shared-context ``report --fast`` check
(``sha256sum -c`` in CI) the manifest also proves that context sharing never
changes an artifact.  Regenerate it only for an intended change of results.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.runner import artifact_digests, read_digest_manifest
from repro.pipeline import SimulationContext, all_experiments

MANIFEST = Path(__file__).resolve().parent / "golden" / "report_fast.sha256"


def test_smoke_artifacts_match_the_golden_manifest(tmp_path):
    results = {
        spec.name: spec.run(SimulationContext(), **spec.smoke) for spec in all_experiments()
    }
    assert artifact_digests(results, tmp_path) == read_digest_manifest(MANIFEST)

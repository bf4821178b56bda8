"""Every output of a fixed command matrix is byte-identical to the one ``tests/output_manifest.json`` records."""

import json

import pytest

from output_manifest import MANIFEST, build, describe, run_matrix


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["build"] != build():
        pytest.skip(f"the manifest was taken on {describe(manifest['build'])}, this run is on {describe(build())}")
    digests = run_matrix(tmp_path)
    changed = sorted(name for name in digests.keys() | manifest["digests"].keys()
                     if digests.get(name) != manifest["digests"].get(name))
    assert not changed, (f"{len(changed)} outputs differ from {MANIFEST.name}: {changed}; a change that alters "
                         "them by design rewrites it with 'python tests/output_manifest.py'")

"""Pre-SEM cache artifacts must invalidate cleanly.

Two mechanisms rotate the persistent caches when semantic deltas
joined the analysis substrate, and both are pinned here:

* the framework-spec fingerprint hashes every method's ``semantics``
  field unconditionally, so a spec that gains (or changes) a delta is
  a different framework as far as every content-addressed key is
  concerned;
* ``CLASS_ARTIFACT_VERSION`` was bumped, so artifacts pickled by a
  pre-SEM build degrade to misses — re-analyzed, never replayed into
  wrong findings.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import pytest

import repro.cache.classes as classes_module
from repro.cache.classes import registered_stores, reset_class_stores
from repro.cache.fingerprint import fingerprint_spec
from repro.eval.runner import ToolSet, run_tools
from repro.framework.spec import (
    ClassHistory,
    FrameworkSpec,
    MethodHistory,
    SemanticDelta,
)
from repro.workload.appgen import AppForge


def _spec(semantics=()):
    return FrameworkSpec(
        (
            ClassHistory("java.lang.Object", super_name=None),
            ClassHistory(
                "android.x.Widget",
                methods=(
                    MethodHistory(
                        "tune", introduced=2, semantics=tuple(semantics)
                    ),
                ),
            ),
        )
    )


class TestSpecFingerprintRotation:
    def test_semantic_delta_rotates_the_digest(self):
        plain = _spec()
        delta = _spec(
            (SemanticDelta(24, "return-contract", "may return null"),)
        )
        assert fingerprint_spec(plain) != fingerprint_spec(delta)

    def test_delta_detail_is_part_of_the_digest(self):
        one = _spec(
            (SemanticDelta(24, "return-contract", "may return null"),)
        )
        other = _spec(
            (SemanticDelta(24, "return-contract", "always absolute"),)
        )
        assert fingerprint_spec(one) != fingerprint_spec(other)


class TestStaleArtifacts:
    @pytest.fixture()
    def corpus(self, apidb):
        apps = []
        for index in range(2):
            forge = AppForge(
                f"com.stale.app{index}",
                f"Stale{index}",
                apidb=apidb,
                min_sdk=19,
                target_sdk=26,
                seed=700 + index,
            )
            forge.add_semantic_issue()
            forge.add_direct_issue()
            apps.append(forge.build())
        return apps

    def test_old_store_degrades_to_misses_never_wrong_findings(
        self, framework, apidb, corpus, tmp_path, monkeypatch
    ):
        store_dir = str(tmp_path / "store")
        lazy = run_tools(
            corpus,
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
        )

        # Populate the store as a pre-SEM build would have: same
        # artifacts, older version stamp.
        reset_class_stores()
        with monkeypatch.context() as patch:
            patch.setattr(classes_module, "CLASS_ARTIFACT_VERSION", 1)
            stale = run_tools(
                corpus,
                ToolSet.default(
                    framework, apidb, include=("SAINTDroid",),
                    dedup=True, cache_dir=store_dir,
                ),
            )
        assert (
            stale.findings_fingerprint() == lazy.findings_fingerprint()
        )

        stale_entries = set(Path(store_dir).rglob("*.cls"))
        assert stale_entries

        # A current build over the stale store: the version is part of
        # the config fingerprint, so every pre-SEM entry is simply
        # unreachable — zero replays, full re-analysis, findings still
        # match the lazy run exactly.
        reset_class_stores()
        rerun = run_tools(
            corpus,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                dedup=True, cache_dir=store_dir,
            ),
        )
        assert (
            rerun.findings_fingerprint() == lazy.findings_fingerprint()
        )
        hits = sum(s.stats.hits for s in registered_stores())
        misses = sum(s.stats.misses for s in registered_stores())
        assert hits == 0 and misses > 0
        fresh_entries = (
            set(Path(store_dir).rglob("*.cls")) - stale_entries
        )
        assert fresh_entries, "rerun should key under the new version"
        reset_class_stores()

        # Second line of defense: an entry whose *payload* carries the
        # old version stamp under a current key (a downgraded build
        # re-stamping files, a partial restore) is dropped as corrupt,
        # never replayed.
        victim = sorted(fresh_entries)[0]
        blob = victim.read_bytes()
        artifact = pickle.loads(blob[32:])[1]
        payload = pickle.dumps(
            (1, artifact), protocol=pickle.HIGHEST_PROTOCOL
        )
        victim.write_bytes(hashlib.sha256(payload).digest() + payload)
        reset_class_stores()
        downgraded = run_tools(
            corpus,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                dedup=True, cache_dir=store_dir,
            ),
        )
        assert (
            downgraded.findings_fingerprint()
            == lazy.findings_fingerprint()
        )
        assert sum(s.stats.corrupt for s in registered_stores()) > 0
        reset_class_stores()

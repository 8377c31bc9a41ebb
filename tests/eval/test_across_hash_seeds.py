"""Run results are a pure function of (corpus seed, source): two
interpreters with different hash seeds must produce the same *full*
fingerprint — findings and every tool's work and memory units.

Framework method bodies are sized from the method signature, and the
eager ablation and CID size the whole image from the spec, so nothing
the cost model charges may follow ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

_FINGERPRINT = """
import json

from repro.core.arm import build_api_database
from repro.eval.runner import ALL_TOOL_CONFIGS, ToolSet, run_tools
from repro.framework import FrameworkRepository
from repro.workload.corpus import CorpusConfig, generate_corpus

framework = FrameworkRepository()
apidb = build_api_database(framework)
apps = [
    member.forged
    for member in generate_corpus(
        CorpusConfig(count=4, kloc_median=1.0, kloc_max=3.0, seed=5),
        apidb,
    )
]
results = run_tools(
    apps, ToolSet.default(framework, apidb, include=ALL_TOOL_CONFIGS)
)
print(json.dumps({
    "fingerprint": results.fingerprint(),
    "image": [
        framework.image_instruction_count(level) for level in (2, 23, 29)
    ],
}, sort_keys=True))
"""


def _run_under_hash_seed(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_FINGERPRINT)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_full_fingerprint_is_independent_of_hash_seed():
    first, second = _run_under_hash_seed(1), _run_under_hash_seed(2)
    tools = {
        tool
        for result in first["fingerprint"]["results"]
        for tool in result["reports"]
    }
    assert "SAINTDroid-eager" in tools
    assert first["image"] == second["image"]
    assert first["fingerprint"] == second["fingerprint"]

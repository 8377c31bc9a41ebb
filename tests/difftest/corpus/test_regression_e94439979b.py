"""Difftest regression (auto-generated by repro.difftest.shrink).

Shrunk repro for the disagreement signature:

    ('static-fp', 'API', 'java.nio.channels.Request1046.drawRequest()int')

The embedded plan rebuilds the minimal app deterministically; the
test fails if the detector ever disagrees with the dynamic oracle on
it again.  Regenerate with ``saintdroid difftest --shrink``.
"""

import json

from repro.core.detector import SaintDroid
from repro.difftest.oracle import DifferentialOracle
from repro.difftest.strategy import AppPlan, materialize

PLAN = json.loads("""
{
  "fillerKloc": 0.0,
  "index": 17,
  "label": "DiffApp0017",
  "minSdk": 22,
  "package": "com.difftest.app0017",
  "scenarios": [
    {
      "kind": "legacy-guard",
      "nonce": 0
    }
  ],
  "seed": 2026006095,
  "targetSdk": 26
}
""")

SIGNATURE = ('static-fp', 'API', 'java.nio.channels.Request1046.drawRequest()int')


def test_no_regression_e94439979b(framework, apidb):
    plan = AppPlan.from_dict(PLAN)
    forged = materialize(plan, apidb)
    tool = SaintDroid(framework, apidb)
    report = tool.analyze(forged.apk)
    records = DifferentialOracle(apidb).examine(forged, report)
    assert SIGNATURE not in [r.signature for r in records]

"""Difftest regression (auto-generated by repro.difftest.shrink).

Shrunk repro for the disagreement signature:

    ('static-fp', 'PRM-request', 'android.permission.CAMERA')

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
  "index": 137,
  "label": "DiffApp0137",
  "minSdk": 21,
  "package": "com.difftest.app0137",
  "scenarios": [
    {
      "kind": "permission-request-deep",
      "nonce": 0
    }
  ],
  "seed": 2026006215,
  "targetSdk": 25
}
""")

SIGNATURE = ('static-fp', 'PRM-request', 'android.permission.CAMERA')


def test_no_regression_b969ece50d(framework, apidb):
    plan = AppPlan.from_dict(PLAN)
    forged = materialize(plan, apidb)
    tool = SaintDroid(framework, apidb)
    report = tool.analyze(forged.apk)
    records = DifferentialOracle(apidb).examine(forged, report)
    assert SIGNATURE not in [r.signature for r in records]

"""EXPERIMENTS.md quotes every committed text result verbatim.

Each result appears between ``<!-- result: NAME -->`` and
``<!-- /result -->`` as a fenced block that must equal
``benchmarks/results/NAME`` byte for byte; CI's paper-anchor tests
separately check that the committed files equal what
``python -m repro reproduce`` writes.
Together the two tie every measured number in the document to the
code.
"""

import re
from pathlib import Path

from repro.eval.results import RESULTS

ROOT = Path(__file__).resolve().parents[1]

BLOCK = re.compile(
    r"<!-- result: (?P<name>\S+) -->\n```text\n(?P<body>.*?)```\n"
    r"<!-- /result -->",
    re.DOTALL,
)


def _blocks() -> dict[str, list[str]]:
    blocks: dict[str, list[str]] = {}
    for match in BLOCK.finditer((ROOT / "EXPERIMENTS.md").read_text()):
        blocks.setdefault(match["name"], []).append(match["body"])
    return blocks


def test_every_block_equals_its_committed_file():
    for name, bodies in _blocks().items():
        committed = (ROOT / "benchmarks" / "results" / name).read_text()
        for body in bodies:
            assert body == committed, name


def test_every_text_result_is_quoted():
    text_results = {name for name in RESULTS if name.endswith(".txt")}
    assert set(_blocks()) == text_results


def test_no_marker_is_malformed():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    opened = text.count("<!-- result: ")
    assert opened == text.count("<!-- /result -->")
    assert opened == sum(len(bodies) for bodies in _blocks().values())

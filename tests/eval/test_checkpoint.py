"""Tests for the checkpoint journal (kill/resume for corpus runs)."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import AnalysisError, ErrorKind
from repro.eval import CheckpointError, CheckpointJournal, ToolSet, run_tools
from repro.eval.checkpoint import result_from_dict, result_to_dict
from repro.workload.corpus import CorpusConfig, generate_corpus

#: Chaos tier: opt in locally with -m slow; CI runs these in
#: the dedicated chaos job.
pytestmark = pytest.mark.slow


SMALL_CORPUS = CorpusConfig(count=5, kloc_median=1.5, kloc_max=4.0)
TOOLS = ("SAINTDroid", "CID")


@pytest.fixture(scope="module")
def small_corpus(apidb):
    return [member.forged for member in generate_corpus(SMALL_CORPUS, apidb)]


@pytest.fixture(scope="module")
def toolset(framework, apidb):
    return ToolSet.default(framework, apidb, include=TOOLS)


@pytest.fixture(scope="module")
def baseline(toolset, small_corpus):
    """One uninterrupted run to compare resumed runs against."""
    return run_tools(small_corpus, toolset)


class TestCodec:
    def test_result_round_trip_is_fingerprint_identical(self, baseline):
        for index, result in enumerate(baseline.results):
            doc = json.loads(json.dumps(result_to_dict(index, result)))
            restored_index, restored = result_from_dict(doc)
            assert restored_index == index
            assert restored.fingerprint() == result.fingerprint()

    def test_error_record_round_trips(self, baseline):
        failed = baseline.results[0]
        failed.error = AnalysisError(
            kind=ErrorKind.TIMEOUT, message="budget", attempts=3,
            retryable=True,
        )
        try:
            doc = json.loads(json.dumps(result_to_dict(0, failed)))
            _, restored = result_from_dict(doc)
            assert restored.error == failed.error
        finally:
            failed.error = None

    def test_restored_metrics_usable_for_tables(self, baseline):
        result = baseline.results[0]
        doc = result_to_dict(0, result)
        _, restored = result_from_dict(doc)
        for tool in TOOLS:
            original = result.reports[tool].metrics
            metrics = restored.reports[tool].metrics
            assert metrics.work_units == original.work_units
            assert metrics.memory_units == original.memory_units
            assert metrics.modeled_seconds == pytest.approx(
                original.modeled_seconds
            )


class TestJournal:
    def test_fresh_journal_loads_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "run.jsonl", tools=TOOLS)
        assert journal.load() == {}

    def test_append_then_load(self, tmp_path, baseline):
        journal = CheckpointJournal(tmp_path / "run.jsonl", tools=TOOLS)
        for index, result in enumerate(baseline.results[:3]):
            journal.append(index, result)
        restored = journal.load()
        assert sorted(restored) == [0, 1, 2]
        for index, result in restored.items():
            assert (
                result.fingerprint()
                == baseline.results[index].fingerprint()
            )

    def test_truncated_final_line_dropped(self, tmp_path, baseline):
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(path, tools=TOOLS)
        journal.append(0, baseline.results[0])
        journal.append(1, baseline.results[1])
        # Kill mid-write: chop the final record in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        restored = journal.load()
        assert sorted(restored) == [0]

    def test_second_resume_after_torn_tail(self, tmp_path, baseline):
        """Records appended after a torn tail start their own line, so
        any number of kill/resume cycles keep the journal readable."""
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(path, tools=TOOLS)
        journal.append(0, baseline.results[0])
        journal.append(1, baseline.results[1])
        path.write_bytes(path.read_bytes()[:-20])
        assert sorted(journal.load()) == [0]
        resumed = CheckpointJournal(path, tools=TOOLS)
        resumed.append(1, baseline.results[1])
        resumed.append(2, baseline.results[2])
        restored = resumed.load()
        assert sorted(restored) == [0, 1, 2]
        for index, result in restored.items():
            assert (
                result.fingerprint()
                == baseline.results[index].fingerprint()
            )

    def test_corrupt_middle_line_rejected(self, tmp_path, baseline):
        path = tmp_path / "run.jsonl"
        journal = CheckpointJournal(path, tools=TOOLS)
        journal.append(0, baseline.results[0])
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            journal.load()

    def test_tool_mismatch_rejected(self, tmp_path, baseline):
        path = tmp_path / "run.jsonl"
        CheckpointJournal(path, tools=TOOLS).append(0, baseline.results[0])
        other = CheckpointJournal(path, tools=("SAINTDroid",))
        with pytest.raises(CheckpointError):
            other.load()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps(
                {"type": "header", "version": 999, "tools": list(TOOLS)}
            )
            + "\n"
        )
        with pytest.raises(CheckpointError):
            CheckpointJournal(path, tools=TOOLS).load()


class TestResume:
    def _truncate_to(self, path, records: int) -> None:
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 1 + records]) + "\n")

    def test_serial_resume_reproduces_fingerprint(
        self, tmp_path, toolset, small_corpus, baseline
    ):
        path = tmp_path / "run.jsonl"
        run_tools(small_corpus, toolset, checkpoint=path)
        self._truncate_to(path, 2)
        resumed = run_tools(small_corpus, toolset, checkpoint=path)
        assert resumed.resumed_indices == (0, 1)
        assert resumed.fingerprint() == baseline.fingerprint()

    def test_parallel_resume_reproduces_fingerprint(
        self, tmp_path, toolset, small_corpus, baseline
    ):
        path = tmp_path / "run.jsonl"
        run_tools(small_corpus, toolset, checkpoint=path)
        self._truncate_to(path, 2)
        resumed = run_tools(
            small_corpus, toolset, jobs=2, checkpoint=path
        )
        assert resumed.resumed_indices == (0, 1)
        assert resumed.fingerprint() == baseline.fingerprint()

    def test_fully_journaled_run_reanalyzes_nothing(
        self, tmp_path, toolset, small_corpus, baseline
    ):
        path = tmp_path / "run.jsonl"
        run_tools(small_corpus, toolset, checkpoint=path)
        seen: list[str] = []
        resumed = run_tools(
            small_corpus, toolset, checkpoint=path, progress=seen.append
        )
        assert seen == []  # nothing re-analyzed
        assert len(resumed.resumed_indices) == len(small_corpus)
        assert resumed.fingerprint() == baseline.fingerprint()

    def test_resume_appends_not_rewrites(
        self, tmp_path, toolset, small_corpus
    ):
        path = tmp_path / "run.jsonl"
        run_tools(small_corpus, toolset, checkpoint=path)
        self._truncate_to(path, 2)
        run_tools(small_corpus, toolset, checkpoint=path)
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("type") == "result"
        ]
        assert sorted(r["index"] for r in records) == list(
            range(len(small_corpus))
        )

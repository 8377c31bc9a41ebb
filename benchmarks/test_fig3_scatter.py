"""E4 — Figure 3: analysis time vs app size on real-world apps.

Paper anchors:

* SAINTDroid average ≈6.2 s/app (range 1.6-37.8) vs CID ≈29.5 s
  (4.1-78.4) and Lint ≈24.7 s (4.7-75.6);
* SAINTDroid up to ~8.3x (≈4x average) faster;
* outliers exist: small apps that load a disproportionate library
  surface take disproportionate time (top-left points).
"""

import pytest

from repro.eval.figures import ascii_scatter, figure3_series

from .conftest import write_result


@pytest.fixture(scope="module")
def data(corpus_run):
    return figure3_series(corpus_run)


def test_figure3_timing_summaries(benchmark, corpus_run, data):
    benchmark(figure3_series, corpus_run)
    tools = {s.tool: s for s in data["summaries"]}

    saint = tools["SAINTDroid"]
    assert 2.0 <= saint.average <= 10.0      # paper: 6.2 s
    assert saint.minimum >= 1.0              # paper: 1.6 s
    assert saint.maximum <= 45.0             # paper: 37.8 s
    assert saint.failed == 0

    cid = tools["CID"]
    lint = tools["Lint"]
    assert 15.0 <= cid.average <= 45.0       # paper: 29.5 s
    assert 10.0 <= lint.average <= 40.0      # paper: 24.7 s
    assert cid.average / saint.average >= 3.0
    assert lint.average / saint.average >= 2.0

    from repro.eval.export import export_timing_csv
    from .conftest import RESULTS_DIR
    RESULTS_DIR.mkdir(exist_ok=True)
    export_timing_csv(corpus_run, RESULTS_DIR / "figure3_series.csv")

    lines = ["Figure 3: SAINTDroid analysis time vs app size (KLOC)",
             ascii_scatter(data["scatter"])]
    for summary in data["summaries"]:
        lines.append(
            f"{summary.tool}: avg {summary.average:.1f}s "
            f"range {summary.minimum:.1f}-{summary.maximum:.1f} "
            f"({summary.completed} completed, {summary.failed} failed)"
        )
    write_result("figure3.txt", "\n".join(lines))


def test_figure3_scatter_correlates_with_size(benchmark, data):
    scatter = benchmark(lambda: data["scatter"])
    assert len(scatter) >= 50
    small = [s for k, s in scatter if k < 5.0]
    large = [s for k, s in scatter if k > 30.0]
    if small and large:
        assert (sum(large) / len(large)) > (sum(small) / len(small))


def test_figure3_outlier_mechanism(benchmark, toolset, picker_pool=None):
    """A small app with a huge framework vocabulary costs more than a
    plain app of the same size — the paper's top-left outlier."""
    from repro.workload.appgen import AppForge

    apidb = toolset.apidb

    def build(pool_size):
        forge = AppForge(
            "com.outlier.app", f"Outlier{pool_size}",
            min_sdk=19, target_sdk=26, seed=11,
            apidb=apidb,
        )
        forge._safe_pool = [
            forge.picker.safe_api(forge._rng) for _ in range(pool_size)
        ]
        forge.add_filler(kloc=2.0)
        return forge.build().apk

    saintdroid = toolset.tools[0]
    plain = saintdroid.analyze(build(10))
    heavy = benchmark.pedantic(
        lambda: saintdroid.analyze(build(400)), rounds=1, iterations=1
    )
    assert heavy.metrics.modeled_seconds > (
        1.5 * plain.metrics.modeled_seconds
    )

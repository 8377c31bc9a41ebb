"""Benchmark-suite replicas: CID-Bench and CIDER-Bench.

The paper evaluates on 19 buildable benchmark apps: 12 from CIDER-Bench
(Huang et al.) and 7 from CID-Bench (Li et al.).  We rebuild each as a
synthetic app with the paper's app names, plausible SDK ranges and
sizes, and a seeded scenario mix chosen so the suite-level ground truth
matches the paper's anchors:

* 42 callback (APC) issues in total, 2 of them hosted in anonymous
  inner classes (the two SAINTDroid misses; it detects 40/42 with no
  APC false positives);
* ~62 API invocation issues spread over the mechanisms of
  :mod:`repro.workload.appgen` (direct / inherited / library /
  secondary-dex / external-dynamic / forward-removed), with the four
  external-dynamic issues undetectable by any static tool — SAINTDroid
  recall lands at ≈93%;
* 25 anonymous-guard traps (SAINTDroid's ≈21% false-alarm rate, the
  paper's §VI discussion) and ~32 caller-guard traps that only
  context-insensitive tools trip over;
* the three apps whose Table III CID column is a dash — AFWall+,
  NetworkMonitor, PassAndroid — carry secondary dex files, which crash
  CID's loader;
* NyaaPantsu does not build, so Lint produces no result for it.

Scenario counts per app are fixed (not sampled) so the suite is fully
deterministic; only API *selection* within a scenario uses the per-app
seeded RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.apidb import ApiDatabase
from ..core.arm import build_api_database
from .appgen import AppForge, ForgedApp

__all__ = ["BenchmarkSpec", "CIDER_BENCH", "CID_BENCH", "BENCHMARK_SPECS",
           "build_benchmark_app", "build_benchmark_suite"]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Declarative description of one benchmark replica."""

    label: str
    package: str
    min_sdk: int
    target_sdk: int
    kloc: float
    suite: str  # "CIDER-Bench" | "CID-Bench"
    buildable: bool = True
    seed: int = 0
    # scenario counts
    direct: int = 0
    inherited: int = 0
    library: int = 0
    secondary_dex: int = 0
    external_dynamic: int = 0
    forward_removed: int = 0
    cb_modeled: int = 0
    cb_unmodeled: int = 0
    cb_anonymous: int = 0
    prm_request: int = 0
    prm_request_deep: int = 0
    prm_revocation: int = 0
    trap_anonymous: int = 0
    trap_caller_guard: int = 0
    trap_guarded: int = 0


CIDER_BENCH: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec(
        "AFWall+", "dev.ukanth.ufirewall", 15, 25, 45.0, "CIDER-Bench",
        seed=101, direct=1, inherited=1, library=2, secondary_dex=3,
        cb_modeled=1, cb_unmodeled=3,
        trap_anonymous=2, trap_caller_guard=3, trap_guarded=1,
    ),
    BenchmarkSpec(
        "DuckDuckGo", "com.duckduckgo.mobile.android", 21, 27, 30.0,
        "CIDER-Bench", seed=102, direct=1, inherited=1, library=1,
        external_dynamic=1, cb_modeled=1, cb_unmodeled=3,
        trap_anonymous=2, trap_caller_guard=2, trap_guarded=1,
    ),
    BenchmarkSpec(
        "FOSS Browser", "de.baumann.browser", 21, 27, 12.0, "CIDER-Bench",
        seed=103, direct=1, library=1, cb_modeled=1, cb_unmodeled=2,
        trap_anonymous=1, trap_caller_guard=1, trap_guarded=1,
    ),
    BenchmarkSpec(
        "Kolab notes", "org.kore.kolabnotes.android", 16, 26, 25.0,
        "CIDER-Bench", seed=104, direct=1, inherited=1, library=1,
        cb_modeled=1, cb_unmodeled=2, prm_request=1,
        trap_anonymous=2, trap_caller_guard=2, trap_guarded=1,
    ),
    BenchmarkSpec(
        "MaterialFBook", "me.zeeroooo.materialfb", 17, 25, 18.0,
        "CIDER-Bench", seed=105, direct=1, inherited=1, library=1,
        cb_modeled=1, cb_unmodeled=2,
        trap_anonymous=1, trap_caller_guard=2, trap_guarded=1,
    ),
    BenchmarkSpec(
        "NetworkMonitor", "ca.rmen.android.networkmonitor", 14, 25, 35.0,
        "CIDER-Bench", seed=106, direct=1, inherited=1, library=2,
        secondary_dex=2, external_dynamic=1, cb_modeled=1, cb_unmodeled=3,
        trap_anonymous=2, trap_caller_guard=2, trap_guarded=1,
    ),
    BenchmarkSpec(
        "NyaaPantsu", "eu.kanade.nyaa", 16, 25, 40.0, "CIDER-Bench",
        buildable=False, seed=107, direct=1, inherited=1, library=1,
        cb_modeled=1, cb_unmodeled=2,
        trap_anonymous=2, trap_caller_guard=2, trap_guarded=1,
    ),
    BenchmarkSpec(
        "Padland", "com.mikifus.padland", 16, 23, 10.4, "CIDER-Bench",
        seed=108, direct=1, library=1, cb_unmodeled=1,
        trap_anonymous=1, trap_caller_guard=1, trap_guarded=1,
    ),
    BenchmarkSpec(
        "PassAndroid", "org.ligi.passandroid", 14, 27, 120.0,
        "CIDER-Bench", seed=109, direct=2, inherited=2, library=2,
        secondary_dex=3, external_dynamic=1, cb_modeled=2, cb_unmodeled=4,
        cb_anonymous=1,
        trap_anonymous=3, trap_caller_guard=4, trap_guarded=2,
    ),
    BenchmarkSpec(
        "SimpleSolitaire", "de.tobiasbielefeld.solitaire", 14, 22, 21.0,
        "CIDER-Bench", seed=110, direct=1, inherited=1, library=1,
        forward_removed=1, cb_unmodeled=2, cb_anonymous=1,
        prm_revocation=1,
        trap_anonymous=2, trap_caller_guard=2, trap_guarded=2,
    ),
    BenchmarkSpec(
        "SurvivalManual", "org.ligi.survivalmanual", 19, 26, 14.0,
        "CIDER-Bench", seed=111, direct=1, library=1, cb_modeled=1,
        cb_unmodeled=1,
        trap_anonymous=1, trap_caller_guard=1, trap_guarded=1,
    ),
    BenchmarkSpec(
        "Uber ride", "com.example.uberride", 21, 24, 60.0, "CIDER-Bench",
        seed=112, direct=1, inherited=1, library=1, external_dynamic=1,
        cb_modeled=2, cb_unmodeled=3, prm_request_deep=1,
        trap_anonymous=3, trap_caller_guard=3, trap_guarded=2,
    ),
)

CID_BENCH: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec(
        "Basic", "com.cidbench.basic", 10, 23, 10.4, "CID-Bench",
        seed=201, direct=1, trap_caller_guard=1, trap_guarded=1,
    ),
    BenchmarkSpec(
        "Forward", "com.cidbench.forward", 14, 23, 11.0, "CID-Bench",
        seed=202, forward_removed=2, trap_guarded=1,
    ),
    BenchmarkSpec(
        "GenericType", "com.cidbench.generictype", 15, 24, 12.0,
        "CID-Bench", seed=203, direct=1, library=1,
        trap_caller_guard=2, trap_anonymous=1,
    ),
    BenchmarkSpec(
        "Inheritance", "com.cidbench.inheritance", 15, 24, 12.0,
        "CID-Bench", seed=204, inherited=2, trap_caller_guard=1,
    ),
    BenchmarkSpec(
        "Protection", "com.cidbench.protection", 16, 25, 11.0,
        "CID-Bench", seed=205,
        trap_guarded=2, trap_caller_guard=2, trap_anonymous=1,
    ),
    BenchmarkSpec(
        "Protection2", "com.cidbench.protection2", 16, 25, 11.0,
        "CID-Bench", seed=206, direct=1,
        trap_guarded=2, trap_caller_guard=2, trap_anonymous=1,
    ),
    BenchmarkSpec(
        "Varargs", "com.cidbench.varargs", 15, 24, 12.0, "CID-Bench",
        seed=207, direct=1, library=1, forward_removed=1,
        trap_caller_guard=1,
    ),
)

BENCHMARK_SPECS: tuple[BenchmarkSpec, ...] = CIDER_BENCH + CID_BENCH


def build_benchmark_app(
    spec: BenchmarkSpec,
    apidb: ApiDatabase | None = None,
    *,
    scale: float = 1.0,
) -> ForgedApp:
    """Materialize one replica.  ``scale`` multiplies the filler size
    (tests use small scales; full runs use 1.0)."""
    apidb = apidb or build_api_database()
    forge = AppForge(
        spec.package,
        spec.label,
        min_sdk=spec.min_sdk,
        target_sdk=spec.target_sdk,
        buildable=spec.buildable,
        seed=spec.seed,
        apidb=apidb,
    )
    for _ in range(spec.direct):
        forge.add_direct_issue()
    for _ in range(spec.inherited):
        forge.add_inherited_issue()
    for _ in range(spec.library):
        forge.add_library_issue()
    for _ in range(spec.secondary_dex):
        forge.add_secondary_dex_issue()
    for _ in range(spec.external_dynamic):
        forge.add_external_dynamic_issue()
    for _ in range(spec.forward_removed):
        forge.add_forward_removed_issue()
    for _ in range(spec.cb_modeled):
        forge.add_callback_issue(modeled=True)
    for _ in range(spec.cb_unmodeled):
        forge.add_callback_issue(modeled=False)
    for _ in range(spec.cb_anonymous):
        forge.add_callback_issue(modeled=False, anonymous=True)
    for _ in range(spec.prm_request):
        forge.add_permission_request_issue()
    for _ in range(spec.prm_request_deep):
        forge.add_permission_request_issue(deep=True)
    for _ in range(spec.prm_revocation):
        forge.add_permission_revocation_issue()
    for _ in range(spec.trap_anonymous):
        forge.add_anonymous_guard_trap()
    for _ in range(spec.trap_caller_guard):
        forge.add_caller_guard_trap()
    for _ in range(spec.trap_guarded):
        forge.add_guarded_direct()
    forge.add_filler(kloc=spec.kloc * scale)
    return forge.build()


def build_benchmark_suite(
    apidb: ApiDatabase | None = None,
    *,
    scale: float = 1.0,
    suites: tuple[str, ...] = ("CIDER-Bench", "CID-Bench"),
) -> list[ForgedApp]:
    """Materialize every benchmark replica (deterministic)."""
    apidb = apidb or build_api_database()
    return [
        build_benchmark_app(spec, apidb, scale=scale)
        for spec in BENCHMARK_SPECS
        if spec.suite in suites
    ]

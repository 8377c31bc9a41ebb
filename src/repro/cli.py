"""Command-line interface: ``saintdroid`` / ``python -m repro``.

Subcommands
===========

``analyze``    run a detector on a ``.sapk`` package
``passes``     list the analysis passes each tool configuration runs
``gen-bench``  materialize the benchmark replicas as ``.sapk`` files
``table``      regenerate a paper table (1, 2, 3, or 4)
``rq2``        regenerate the RQ2 real-world summary
``figure``     regenerate a paper figure (1, 3, or 4)
``sweep``      measure SAINTDroid vs CID across framework sizes
``reproduce``  write the committed deterministic results to a directory
``apidb``      query the API lifecycle database

``table``, ``rq2``, ``figure`` and ``sweep`` print the same text
``reproduce`` writes (:mod:`repro.eval.results` makes both); run with
no flags, each prints its committed ``benchmarks/results`` file.

Corpus-scale commands (``table``, ``rq2``, ``figure``) accept
``--jobs N`` to fan analysis out over a process pool; results
are identical to a serial run.  ``table``, ``rq2``, and ``figure``
also take the fault-tolerance flags ``--timeout``, ``--max-retries``,
``--retry-backoff``, and ``--checkpoint`` (kill/resume journal); runs
that lose apps end with a per-kind failure breakdown.  All corpus
commands (and ``sweep``) accept ``--cache-dir DIR`` (default:
``$REPRO_CACHE_DIR``) to persist per-app results, framework summary
tables and (with ``--dedup``) class artifacts across runs, and
``--no-cache`` to force cold analysis.
``serve``      run the resident analysis daemon: substrate built
               once, jobs over HTTP, write-ahead journal, supervised
               worker pool, graceful SIGTERM drain
``submit``     send ``.sapk`` packages to a running daemon and wait
``verify``     dynamically verify static findings (paper §VI)
``repair``     synthesize a repaired package (paper §VIII)
``update-impact``  what breaks when the device framework is updated
``difftest``   property-based differential fuzzing of the detector
               against the dynamic-interpreter oracle, with shrinking
               and detector mutation testing (exit 1 on any
               disagreement or surviving mutant)
``compare``    corpus-scale cross-detector agreement study: every
               tool/ablation configuration over one seeded corpus —
               per-kind accuracy, pairwise agreement/confusion, a
               capability cross-check against the declared table
               (mismatch ⇒ exit 1), and a machine-readable
               blind-spot report that seeds new generator scenarios

``analyze`` exit codes: 0 = clean analysis, 1 = unreadable input,
2 = the tool gave up on the app (budget, unbuildable source, bad
``--skip-pass``/``--only-pass`` selection), 3 = the analysis itself
crashed (the classified error record goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .apk.serialization import SerializationError, load_apk, save_apk
from .baselines import Cid, Cider, Lint
from .core import SaintDroid, build_api_database, render_report
from .eval import (
    ALL_TOOL_CONFIGS,
    failure_breakdown,
    render_failures,
    render_table4,
)
from .eval.journal import JournalError
from .eval.results import FIGURE_TOOLS, RESULTS, Params, Session
from .framework.repository import FrameworkRepository
from .pipeline import PipelineError
from .workload import build_benchmark_suite

__all__ = ["main", "build_parser"]

_TOOL_NAMES = ("SAINTDroid", "CID", "CIDER", "Lint")


def _result_name(name: str) -> str:
    if name not in RESULTS:
        raise argparse.ArgumentTypeError(f"unknown result {name!r}")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saintdroid",
        description=(
            "SAINTDroid reproduction: scalable, automated "
            "incompatibility detection for Android (DSN 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a .sapk package")
    analyze.add_argument("apk", type=Path, help="path to a .sapk file")
    analyze.add_argument(
        "--tool", choices=_TOOL_NAMES, default="SAINTDroid"
    )
    analyze.add_argument("--verbose", action="store_true")
    analyze.add_argument(
        "--eager",
        action="store_true",
        help="disable lazy (CLVM) loading (SAINTDroid only)",
    )
    analyze.add_argument(
        "--fix-anonymous",
        action="store_true",
        help="propagate guards into anonymous inner classes "
        "(SAINTDroid only; removes the paper's documented blind spot)",
    )
    analyze.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    analyze.add_argument(
        "--lenient",
        action="store_true",
        help="ingest malformed packages with best-effort repairs "
             "instead of rejecting them (diagnostics are reported)",
    )
    analyze.add_argument(
        "--devices",
        nargs=2,
        type=int,
        metavar=("FROM", "TO"),
        help="restrict detection to this device API-level range "
             "(SAINTDroid only; the paper's framework-version-set input)",
    )
    analyze.add_argument(
        "--skip-pass",
        action="append",
        default=None,
        metavar="NAME",
        help="drop one pipeline pass from the run (repeatable; see "
             "'saintdroid passes' for names)",
    )
    analyze.add_argument(
        "--only-pass",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named pipeline passes (repeatable)",
    )

    passes = sub.add_parser(
        "passes",
        help="list the analysis passes each tool configuration runs",
    )
    passes.add_argument(
        "--tool", choices=_TOOL_NAMES, default=None,
        help="limit the listing to one tool (default: all)",
    )
    passes.add_argument(
        "--eager",
        action="store_true",
        help="show the eager-loading SAINTDroid configuration",
    )
    passes.add_argument(
        "--fix-anonymous",
        action="store_true",
        help="show the anonymous-class-guard SAINTDroid configuration",
    )
    passes.add_argument(
        "--skip-pass",
        action="append",
        default=None,
        metavar="NAME",
        help="preview the configurations without the named pass "
             "(repeatable; the name must be a registered pass)",
    )
    passes.add_argument(
        "--only-pass",
        action="append",
        default=None,
        metavar="NAME",
        help="preview only the named passes (repeatable)",
    )

    gen = sub.add_parser(
        "gen-bench",
        help="write the benchmark replicas as .sapk + ground-truth JSON",
    )
    gen.add_argument("outdir", type=Path)
    gen.add_argument("--scale", type=float, default=1.0)

    jobs_help = (
        "worker processes for corpus analysis (1 = serial; every "
        "worker analyzes over the run's one framework + API database)"
    )

    def _add_corpus_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--jobs", type=int, default=1, help=jobs_help
        )
        command.add_argument(
            "--timeout", type=float, default=None, metavar="S",
            help="per-app wall-clock budget in seconds",
        )
        command.add_argument(
            "--max-retries", type=int, default=0, metavar="N",
            help="re-attempts for retryable failures (timeout, lost "
                 "worker) before an app is quarantined",
        )
        command.add_argument(
            "--retry-backoff", type=float, default=0.0, metavar="S",
            help="full-jitter backoff base between retries",
        )
        command.add_argument(
            "--checkpoint", type=Path, default=None, metavar="PATH",
            help="JSONL journal of completed results; a re-run "
                 "pointed at the same file resumes where it was "
                 "killed",
        )
        _add_cache_flags(command)

    def _add_cache_flags(
        command: argparse.ArgumentParser, *, dedup: bool = True
    ) -> None:
        """The persistent-cache and analysis-mode flags, shared by the
        corpus commands, ``serve`` and (without ``--dedup``) ``sweep``."""
        command.add_argument(
            "--cache-dir", type=Path, default=None, metavar="DIR",
            help="persistent cache: per-app results, summary tables "
                 "and class artifacts keyed by content fingerprints "
                 "(defaults to $REPRO_CACHE_DIR when set; warm runs "
                 "skip unchanged analyses with identical results)",
        )
        command.add_argument(
            "--no-cache", action="store_true",
            help="disable the persistent cache even when "
                 "$REPRO_CACHE_DIR is set",
        )
        command.add_argument(
            "--summaries", action=argparse.BooleanOptionalAction,
            default=False,
            help="bound SAINTDroid's class-loader VM at the framework "
                 "boundary with whole-framework pre-summaries (same "
                 "findings as lazy exploration — parity-tested — at a "
                 "fraction of the explore cost; the summary table is "
                 "built once per framework and cached under "
                 "--cache-dir when set)",
        )
        if not dedup:
            return
        command.add_argument(
            "--dedup", action=argparse.BooleanOptionalAction,
            default=False,
            help="delta analysis against the corpus-wide class-"
                 "artifact store: classes shared across apps are "
                 "fingerprinted once and their explore effects, "
                 "version-helper summaries, and guard rows replayed "
                 "on every later encounter (same findings as lazy "
                 "analysis — parity-tested; the store persists under "
                 "--cache-dir when set)",
        )

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4))
    table.add_argument("--scale", type=float, default=Params.scale)
    _add_corpus_flags(table)

    rq2 = sub.add_parser("rq2", help="regenerate the RQ2 summary")
    rq2.add_argument("--count", type=int, default=Params.count)
    rq2.add_argument("--seed", type=int, default=Params.seed)
    _add_corpus_flags(rq2)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(1, 3, 4))
    figure.add_argument("--count", type=int, default=Params.count)
    figure.add_argument(
        "--app-level", type=int, default=Params.app_level,
        help="app target level for figure 1",
    )
    _add_corpus_flags(figure)

    sweep = sub.add_parser(
        "sweep",
        help="measure SAINTDroid vs CID across framework sizes",
    )
    sweep.add_argument(
        "--bulk-sizes", type=int, nargs="+",
        default=Params.bulk_sizes,
    )
    sweep.add_argument("--probes", type=int, default=Params.probes)
    sweep.add_argument("--seed", type=int, default=Params.sweep_seed)
    _add_cache_flags(sweep, dedup=False)

    reproduce = sub.add_parser(
        "reproduce",
        help="write the committed deterministic results (all of them "
             "when no name is given)",
    )
    reproduce.add_argument(
        "names", nargs="*", metavar="NAME", type=_result_name,
        help=f"result file names: {', '.join(RESULTS)}",
    )
    reproduce.add_argument("--out", type=Path, required=True)

    difftest = sub.add_parser(
        "difftest",
        help="fuzz the detector against the dynamic-interpreter "
             "oracle (shrinking + mutation testing)",
    )
    difftest.add_argument(
        "--seed", type=int, default=2026,
        help="campaign seed; a fixed seed reproduces the report "
             "byte for byte",
    )
    difftest.add_argument(
        "--n-apps", type=int, default=50,
        help="apps to generate (a coverage prefix exercises every "
             "scenario kind once)",
    )
    difftest.add_argument(
        "--budget-s", type=float, default=None, metavar="S",
        help="wall-clock budget for the oracle phase; truncation is "
             "recorded in the report",
    )
    difftest.add_argument(
        "--no-shrink", action="store_true",
        help="keep disagreements at full size instead of shrinking "
             "them to minimal repros",
    )
    difftest.add_argument(
        "--no-mutation", action="store_true",
        help="skip the detector mutation-testing pass",
    )
    difftest.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write the JSON disagreement report here (default: "
             "stdout)",
    )
    difftest.add_argument(
        "--mutation-report", type=Path, default=None, metavar="PATH",
        help="write the mutation kill-score JSON here",
    )
    difftest.add_argument(
        "--corpus-dir", type=Path, default=None, metavar="DIR",
        help="write shrunk repros as pytest regression files here "
             "(e.g. tests/difftest/corpus)",
    )
    _add_corpus_flags(difftest)

    compare = sub.add_parser(
        "compare",
        help="cross-detector agreement study: all tool/ablation "
             "configurations over one seeded corpus, with a "
             "capability cross-check and a blind-spot report "
             "(exit 1 when derived capabilities disagree with the "
             "declared table)",
    )
    compare.add_argument(
        "--seed", type=int, default=2026,
        help="campaign seed; a fixed seed reproduces every matrix "
             "byte for byte at any --jobs",
    )
    compare.add_argument(
        "--apps", type=int, default=200,
        help="apps to generate (a coverage prefix exercises every "
             "scenario kind once)",
    )
    compare.add_argument(
        "--configs", nargs="+", choices=ALL_TOOL_CONFIGS,
        default=list(ALL_TOOL_CONFIGS), metavar="NAME",
        help="configurations to run (default: all "
             f"{len(ALL_TOOL_CONFIGS)}: "
             + ", ".join(ALL_TOOL_CONFIGS) + ")",
    )
    compare.add_argument(
        "--report", type=Path, default=None, metavar="PATH",
        help="write the canonical campaign JSON here (default: "
             "print the human-readable summary only)",
    )
    compare.add_argument(
        "--blind-spots", type=Path, default=None, metavar="PATH",
        help="write the machine-readable blind-spot artifact here "
             "(the flywheel input for new workload/appgen.py "
             "scenarios)",
    )
    compare.add_argument(
        "--checkpoint-dir", type=Path, default=None, metavar="DIR",
        help="directory of per-configuration JSONL journals "
             "(compare-<name>.jsonl); a killed campaign pointed at "
             "the same directory resumes mid-configuration",
    )
    _add_corpus_flags(compare)

    apidb = sub.add_parser("apidb", help="query the API database")
    apidb.add_argument("class_name")
    apidb.add_argument("signature", nargs="?")

    verify = sub.add_parser(
        "verify",
        help="run SAINTDroid, then dynamically verify each finding",
    )
    verify.add_argument("apk", type=Path)

    repair = sub.add_parser(
        "repair", help="synthesize a repaired package"
    )
    repair.add_argument("apk", type=Path)
    repair.add_argument("output", type=Path)
    repair.add_argument(
        "--check", action="store_true",
        help="re-analyze the repaired package and report residuals",
    )

    serve = sub.add_parser(
        "serve",
        help="run the resident analysis daemon (HTTP job API; "
             "substrate loaded once, crash-safe journal, supervised "
             "worker pool, SIGTERM-graceful drain)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free one; the bound address is "
             "printed on the readiness line)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="supervised worker processes",
    )
    serve.add_argument(
        "--tools", nargs="+", choices=ALL_TOOL_CONFIGS,
        default=["SAINTDroid"], metavar="TOOL",
        help="tool configurations each worker runs — any catalog "
             "name, including the SAINTDroid ablations "
             "(default: SAINTDroid)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission-queue capacity; full ⇒ HTTP 429 + Retry-After",
    )
    serve.add_argument(
        "--max-apk-kb", type=int, default=None, metavar="KB",
        help="load-shed serialized packages above this size (413)",
    )
    serve.add_argument(
        "--timeout", type=float, default=20.0, metavar="S",
        help="per-app wall-clock budget inside workers",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retry budget before a failing job is quarantined",
    )
    serve.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="S",
        help="full-jitter backoff base between retries",
    )
    serve.add_argument(
        "--journal", type=Path, default=None, metavar="PATH",
        help="write-ahead job journal; a killed daemon restarted on "
             "the same path replays acknowledged unfinished jobs",
    )
    _add_cache_flags(serve)

    submit = sub.add_parser(
        "submit",
        help="submit .sapk packages to a running serve daemon and "
             "wait for the results",
    )
    submit.add_argument("apks", type=Path, nargs="+")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8321",
        help="daemon endpoint",
    )
    submit.add_argument(
        "--wait", type=float, default=120.0, metavar="S",
        help="per-job wait budget (0 = submit without waiting)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="emit the terminal job documents as JSON lines",
    )

    impact = sub.add_parser(
        "update-impact",
        help="classify what changes for an app when the device "
             "framework is updated ('death on update', paper §I)",
    )
    impact.add_argument("apk", type=Path)
    impact.add_argument("--from", dest="old_level", type=int, required=True)
    impact.add_argument("--to", dest="new_level", type=int, required=True)

    return parser


def _make_tool(args: argparse.Namespace):
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    if args.tool == "SAINTDroid":
        return SaintDroid(
            framework,
            apidb,
            lazy_loading=not args.eager,
            propagate_guards_into_anonymous=args.fix_anonymous,
        )
    if args.tool == "CID":
        return Cid(framework, apidb)
    if args.tool == "CIDER":
        return Cider(framework, apidb)
    return Lint(framework, apidb)


def _cache_dir(args: argparse.Namespace) -> Path | None:
    """Resolve the cache directory: the flag wins, then the
    ``REPRO_CACHE_DIR`` environment default; ``--no-cache`` beats
    both."""
    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_dir", None)
    if explicit is not None:
        return explicit
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else None


def _run_kwargs(args: argparse.Namespace) -> dict:
    """run_tools() fault-tolerance kwargs from corpus-command flags."""
    return {
        "jobs": args.jobs,
        "timeout_s": args.timeout,
        "max_retries": args.max_retries,
        "retry_backoff_s": args.retry_backoff,
        "checkpoint": args.checkpoint,
        "cache_dir": _cache_dir(args),
    }


def _toolset_kwargs(args: argparse.Namespace) -> dict:
    """ToolSet.default() kwargs from the --summaries/--dedup flags
    (the summary table and the class-artifact store persist under the
    cache directory when one is configured)."""
    cache_dir = _cache_dir(args)
    return {
        "summaries": getattr(args, "summaries", False),
        "dedup": getattr(args, "dedup", False),
        "cache_dir": str(cache_dir) if cache_dir is not None else None,
    }


def _print_failures(run) -> None:
    """After a corpus run: per-kind breakdown of quarantined apps."""
    if run.failed_apps:
        print()
        print(render_failures(failure_breakdown(run)))
    if run.resumed_indices:
        print(
            f"(resumed: {len(run.resumed_indices)} apps restored "
            f"from checkpoint)"
        )
    stats = run.cache_stats.get("results", {})
    if run.cached_indices or stats.get("stores"):
        print(
            f"(cache: {len(run.cached_indices)} apps served from "
            f"the persistent cache, {stats.get('stores', 0)} stored)"
        )


def _cmd_analyze(args: argparse.Namespace) -> int:
    apk = load_apk(args.apk, strict=not args.lenient)
    if args.lenient and apk.diagnostics:
        print(f"lenient ingestion: {len(apk.diagnostics)} repair(s)")
        for diagnostic in apk.diagnostics:
            print(f"  {diagnostic}")
    tool = _make_tool(args)
    device_levels = None
    if args.devices and args.tool == "SAINTDroid":
        from .analysis.intervals import ApiInterval
        device_levels = ApiInterval.of(args.devices[0], args.devices[1])
    select = {
        "skip_passes": tuple(args.skip_pass or ()),
        "only_passes": tuple(args.only_pass or ()),
    }
    try:
        report = tool.analyze(apk, device_levels, **select)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 — report, don't crash
        from .core.errors import classify_exception

        error = classify_exception(exc)
        print(f"error: analysis crashed — {error}", file=sys.stderr)
        for frame in error.traceback_tail:
            print(f"  {frame}", file=sys.stderr)
        return 3
    if args.json:
        payload = {
            "app": report.app,
            "tool": report.tool,
            "failed": bool(report.metrics and report.metrics.failed),
            "failureReason": (
                report.metrics.failure_reason if report.metrics else ""
            ),
            "mismatches": [
                {
                    "kind": m.kind.value,
                    "location": str(m.location) if m.location else None,
                    "subject": str(m.subject) if m.subject else None,
                    "permission": m.permission,
                    "missingLevels": [
                        m.missing_levels.lo, m.missing_levels.hi
                    ],
                    "message": m.message,
                }
                for m in report.mismatches
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_report(report, verbose=args.verbose))
    if report.metrics is not None and report.metrics.failed:
        # The tool gave up on the app (budget exhausted, unbuildable
        # source, multidex restriction …): nonzero so scripts notice.
        return 2
    return 0


def _cmd_passes(args: argparse.Namespace) -> int:
    from .baselines.passes import (
        cid_pipeline,
        cider_pipeline,
        lint_pipeline,
    )
    from .core.kinds import family_of, kind_families
    from .pipeline import saintdroid_pipeline
    from .pipeline.passes import registered_passes

    skip = tuple(args.skip_pass or ())
    only = tuple(args.only_pass or ())
    known = registered_passes()
    unknown = [name for name in (*skip, *only) if name not in known]
    if unknown:
        print(
            "error: no registered pass named "
            + ", ".join(repr(name) for name in unknown)
            + "; available: "
            + ", ".join(known),
            file=sys.stderr,
        )
        return 2

    configs = {
        "SAINTDroid": lambda: saintdroid_pipeline(
            lazy_loading=not args.eager,
            propagate_guards_into_anonymous=args.fix_anonymous,
        ),
        "CID": cid_pipeline,
        "CIDER": cider_pipeline,
        "Lint": lint_pipeline,
    }
    selected = (
        [args.tool] if args.tool is not None else list(configs)
    )
    matrix_rows = []
    for position, tool in enumerate(selected):
        config = configs[tool]()
        shown = tuple(
            p
            for p in config.passes
            if p.name not in skip and (not only or p.name in only)
        )
        if position:
            print()
        buckets = ", ".join(config.phase_keys) or "single detect bucket"
        print(f"{tool} — {len(shown)} passes "
              f"(timing buckets: {buckets})")
        for number, pass_ in enumerate(shown, 1):
            phase = pass_.phase or "-"
            detects = ", ".join(pass_.kinds) or "-"
            print(f"  {number:>2}. {pass_.name:<22} [{phase:<7}] "
                  f"{pass_.describe()}")
            needs = ", ".join(pass_.requires) or "-"
            gives = ", ".join(pass_.provides) or "-"
            print(f"      needs: {needs}  |  provides: {gives}"
                  f"  |  detects: {detects}")
        capabilities = frozenset(
            family_of(value) for p in shown for value in p.kinds
        )
        matrix_rows.append(
            {
                "tool": tool,
                **{
                    family: family in capabilities
                    for family in kind_families()
                },
            }
        )
    print()
    print(render_table4(matrix_rows))
    return 0


def _cmd_gen_bench(args: argparse.Namespace) -> int:
    args.outdir.mkdir(parents=True, exist_ok=True)
    apidb = build_api_database()
    for forged in build_benchmark_suite(apidb, scale=args.scale):
        stem = forged.apk.name.replace(" ", "_").replace("+", "plus")
        save_apk(forged.apk, args.outdir / f"{stem}.sapk")
        (args.outdir / f"{stem}.truth.json").write_text(
            json.dumps(forged.truth.to_dict(), indent=2)
        )
        print(f"wrote {stem}.sapk ({forged.apk.instruction_count} instr)")
    return 0


def _print_result(name: str, session: Session) -> int:
    print(session.result(name).text, end="")
    for run in session.runs:
        _print_failures(run)
    return 0


def _corpus_session(
    args: argparse.Namespace, tools=FIGURE_TOOLS, **params
) -> Session:
    return Session(
        Params(**params), corpus_tools=tools,
        toolset_options=_toolset_kwargs(args), run_options=_run_kwargs(args),
    )


def _cmd_table(args: argparse.Namespace) -> int:
    session = _corpus_session(args, scale=args.scale)
    return _print_result(f"table{args.number}.txt", session)


def _cmd_rq2(args: argparse.Namespace) -> int:
    session = _corpus_session(
        args, ("SAINTDroid",), count=args.count, seed=args.seed
    )
    return _print_result("rq2.txt", session)


def _cmd_figure(args: argparse.Namespace) -> int:
    session = _corpus_session(
        args, count=args.count, app_level=args.app_level
    )
    return _print_result(f"figure{args.number}.txt", session)


def _cmd_sweep(args: argparse.Namespace) -> int:
    session = Session(
        Params(
            bulk_sizes=tuple(args.bulk_sizes),
            probes=args.probes,
            sweep_seed=args.seed,
        ),
        toolset_options=_toolset_kwargs(args),
    )
    return _print_result("sweep_framework_scale.txt", session)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    session = Session()
    for name in args.names or RESULTS:
        path = args.out / name
        path.write_bytes(session.result(name).text.encode())
        print(f"wrote {path}")
    return 0


def _cmd_difftest(args: argparse.Namespace) -> int:
    from .difftest import CampaignConfig, run_campaign
    from .difftest.campaign import write_mutation_report, write_report

    cache_dir = _cache_dir(args)
    config = CampaignConfig(
        seed=args.seed,
        n_apps=args.n_apps,
        budget_s=args.budget_s,
        shrink=not args.no_shrink,
        mutation=not args.no_mutation,
        corpus_dir=(
            str(args.corpus_dir) if args.corpus_dir is not None else None
        ),
        jobs=args.jobs,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
        checkpoint=args.checkpoint,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        summaries=args.summaries,
        dedup=args.dedup,
    )
    result = run_campaign(config)
    if args.report is not None:
        write_report(result, args.report)
        print(f"wrote {args.report}")
    else:
        print(result.render_report(), end="")
    if args.mutation_report is not None:
        written = write_mutation_report(result, args.mutation_report)
        if written is not None:
            print(f"wrote {written}")
    survivors = result.mutation.survivors if result.mutation else ()
    print(
        f"difftest: {result.apps_examined} app(s) examined, "
        f"{len(result.disagreements)} disagreement(s)"
        + (" [truncated]" if result.truncated else ""),
        file=sys.stderr,
    )
    if result.mutation is not None:
        print(
            f"mutation: {result.mutation.score} mutants killed",
            file=sys.stderr,
        )
        for name in survivors:
            print(f"  SURVIVED {name}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from .eval.compare import (
        CompareConfig,
        CompareError,
        run_compare,
        write_blind_spot_report,
    )

    if args.checkpoint is not None:
        print(
            "error: compare journals per configuration — use "
            "--checkpoint-dir DIR instead of --checkpoint",
            file=sys.stderr,
        )
        return 2
    cache_dir = _cache_dir(args)
    config = CompareConfig(
        seed=args.seed,
        n_apps=args.apps,
        configs=tuple(args.configs),
        jobs=args.jobs,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
        checkpoint_dir=(
            str(args.checkpoint_dir)
            if args.checkpoint_dir is not None
            else None
        ),
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        summaries=args.summaries,
        dedup=args.dedup,
    )
    try:
        result = run_compare(config)
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(result.report_json())
        print(f"wrote {args.report}")
    if args.blind_spots is not None:
        write_blind_spot_report(result.report, args.blind_spots)
        print(f"wrote {args.blind_spots}")
    for name, run in result.runs.items():
        if run.failed_apps:
            print(
                f"[{name}] {len(run.failed_apps)} app(s) failed",
                file=sys.stderr,
            )
    if not result.ok:
        print(
            "compare: capability cross-check FAILED — observed "
            "behaviour disagrees with the Pass.kinds-declared table "
            "(see mismatches above)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_apidb(args: argparse.Namespace) -> int:
    apidb = build_api_database()
    entry = apidb.clazz(args.class_name)
    if entry is None:
        print(f"unknown framework class: {args.class_name}")
        return 1
    if args.signature is None:
        lo, hi = min(entry.levels), max(entry.levels)
        print(f"{entry.name}: levels {lo}..{hi}, "
              f"{len(entry.methods)} methods, super {entry.super_name}")
        for method in sorted(entry.methods.values(),
                             key=lambda m: m.signature):
            intro, last = method.lifetime
            marker = " [callback]" if method.callback else ""
            print(f"  {method.signature}: {intro}..{last}{marker}")
        return 0
    resolved = apidb.resolve(args.class_name, args.signature)
    if resolved is None:
        print(f"no declaration of {args.signature} on "
              f"{args.class_name} or its ancestors")
        return 1
    intro, last = resolved.lifetime
    permissions = apidb.permissions_for(resolved.ref)
    print(f"{resolved.ref}")
    print(f"  levels:      {intro}..{last}")
    print(f"  callback:    {resolved.callback}")
    print(f"  permissions: {', '.join(sorted(permissions)) or '(none)'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .dynamic import DynamicVerifier

    apk = load_apk(args.apk)
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    detector = SaintDroid(framework, apidb)
    report = detector.analyze(apk)
    verifier = DynamicVerifier(apk, apidb)
    result = verifier.verify_all(report)
    print(f"{apk.name}: {len(report.mismatches)} static finding(s)")
    for item in result.verified:
        print(f"  [{item.verdict.value:<11}] "
              f"{item.mismatch.describe()}")
        if item.evidence is not None:
            print(f"                evidence: {item.evidence}")
    print(
        f"confirmed {len(result.confirmed)}, "
        f"refuted {len(result.refuted)}, "
        f"static-only {len(result.static_only)}"
    )
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from .repair import RepairEngine

    apk = load_apk(args.apk)
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    detector = SaintDroid(framework, apidb)
    report = detector.analyze(apk)
    engine = RepairEngine(apidb)
    result = engine.repair(apk, report.mismatches)
    save_apk(result.repaired, args.output, indent=2)
    print(f"{apk.name}: {len(report.mismatches)} finding(s), "
          f"{len(result.code_changes)} repaired, "
          f"{len(result.advisories)} advisory")
    for action in result.actions:
        print(f"  [{action.kind.value}] {action.description}")
    print(f"wrote {args.output}")
    if args.check:
        residual = detector.analyze(result.repaired).mismatches
        print(f"re-analysis: {len(residual)} residual finding(s)")
        for mismatch in residual:
            print(f"  {mismatch.describe()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .framework import default_spec
    from .serve import (
        AnalysisService,
        ServeConfig,
        install_signal_handlers,
        start_server,
    )

    cache_dir = _cache_dir(args)
    config = ServeConfig(
        workers=args.workers,
        include=tuple(args.tools),
        summaries=args.summaries,
        dedup=args.dedup,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        journal=str(args.journal) if args.journal is not None else None,
        queue_limit=args.queue_limit,
        max_apk_bytes=(
            args.max_apk_kb * 1024 if args.max_apk_kb is not None else None
        ),
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
    )
    service = AnalysisService(config, default_spec()).start()
    server = start_server(service, args.host, args.port)
    install_signal_handlers(service, server)
    host, port = server.server_address
    recovery = service.health()["recovery"]
    if recovery.get("terminal") or recovery.get("pending"):
        print(
            f"journal replay: {recovery.get('terminal', 0)} terminal "
            f"adopted, {recovery.get('pending', 0)} jobs re-enqueued, "
            f"{recovery.get('corrupt', 0)} torn record(s) skipped",
            flush=True,
        )
    # The readiness line scripts wait for before submitting.
    print(f"serving on http://{host}:{port}", flush=True)
    service.drained.wait()
    server.shutdown()
    print("drained; bye", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeClientError

    client = ServeClient(args.url)
    failures = 0
    for path in args.apks:
        apk = load_apk(path)
        try:
            doc = client.submit_retry(apk)
        except ServeClientError as exc:
            print(f"{path}: rejected — {exc}", file=sys.stderr)
            failures += 1
            continue
        if args.wait > 0 and doc["state"] not in (
            "completed", "quarantined",
        ):
            try:
                doc = client.wait(doc["id"], timeout_s=args.wait)
            except TimeoutError as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                failures += 1
                continue
        if args.json:
            print(json.dumps(doc))
        else:
            dedup = " (dedup)" if doc.get("dedup") else ""
            if doc["state"] == "completed":
                result = ServeClient.result_of(doc)
                findings = (
                    sum(
                        len(r.mismatches)
                        for r in result.reports.values()
                    )
                    if result is not None
                    else "?"
                )
                print(
                    f"{doc['app']}: completed{dedup}, "
                    f"{findings} finding(s) "
                    f"[{doc['id']}]"
                )
            elif doc["state"] == "quarantined":
                error = doc.get("error") or {}
                print(
                    f"{doc['app']}: QUARANTINED after "
                    f"{doc.get('attempts', '?')} attempt(s) — "
                    f"{error.get('kind', '?')}: "
                    f"{error.get('message', '')} [{doc['id']}]"
                )
                failures += 1
            else:
                print(f"{doc['app']}: {doc['state']} [{doc['id']}]")
    return 1 if failures else 0


def _cmd_update_impact(args: argparse.Namespace) -> int:
    from .core import update_impact
    from .core.aum import ApiUsageModeler

    apk = load_apk(args.apk)
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    modeler = ApiUsageModeler(framework, apidb)
    model = modeler.build(apk)
    impact = update_impact(model, apidb, args.old_level, args.new_level)
    print(impact.describe())
    return 0 if impact.is_stable else 2


_COMMANDS = {
    "analyze": _cmd_analyze,
    "passes": _cmd_passes,
    "gen-bench": _cmd_gen_bench,
    "table": _cmd_table,
    "rq2": _cmd_rq2,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
    "difftest": _cmd_difftest,
    "compare": _cmd_compare,
    "apidb": _cmd_apidb,
    "verify": _cmd_verify,
    "repair": _cmd_repair,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "update-impact": _cmd_update_impact,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except SerializationError as exc:
        print(f"error: not a valid .sapk package: {exc}", file=sys.stderr)
        return 1
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

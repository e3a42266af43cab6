"""Command-line entry point: regenerate any paper figure.

Usage::

    repro-oltp fig7                # reproduce Figure 7 at paper settings
    repro-oltp all --quick         # smoke-run every figure
    repro-oltp fig10 --scale 16    # bigger (slower, higher-fidelity) run
    repro-oltp campaign --jobs 4   # all figures, parallel, result-cached
    repro-oltp campaign fig5,fig6 --resume run.journal   # subset, resumable
    repro-oltp profile fig6        # figure + self-time table + Chrome trace
    repro-oltp fig8 --metrics-out fig8.json   # per-quantum metric series
    repro-oltp serve --port 8077 --journal svc.journal   # job service
    repro-oltp loadgen --requests 500 --mix 80:20        # drive the service
    repro-oltp stream --scale-x 100     # 100x workload at flat memory
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional

from repro.experiments import (
    ablations,
    fig3_latencies,
    integration,
    offchip,
    onchip,
    rac,
)
from repro.experiments import ooo as ooo_experiment
from repro.experiments.campaign import DEFAULT_CACHE_DIR, default_jobs, run_campaign
from repro.experiments.common import Settings
from repro.experiments.export import write_figure_csv
from repro.experiments.report import render
from repro.integrity import ReproError
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    render_self_time,
    use_metrics,
    use_tracer,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.runner import JobFailed

FIGURES = ("fig3", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12", "fig13")
EXTRAS = ("ablations", "selftest", "campaign", "profile", "serve", "loadgen",
          "stream", "scenario")

#: Subcommands of the ``scenario`` verb.
SCENARIO_ACTIONS = ("list", "describe", "run")


def _version_string() -> str:
    from repro.version import version_string

    return version_string()


def _serve(args: argparse.Namespace) -> int:
    """The ``repro-oltp serve`` verb: run the HTTP job service."""
    from repro.runner import CampaignJournal, ResultCache
    from repro.runner.tracestore import default_trace_store
    from repro.service import JobService, run_server

    store = default_trace_store()
    previous_spill = store.spill_dir
    cache = None
    if args.cache_dir:
        os.makedirs(args.cache_dir, exist_ok=True)
        store.spill_dir = os.path.join(args.cache_dir, "traces")
        if not args.no_cache:
            cache = ResultCache(os.path.join(args.cache_dir, "results"))
    journal = CampaignJournal(args.journal) if args.journal else None
    service = JobService(
        workers=args.jobs or default_jobs(),
        cache=cache,
        journal=journal,
        trace_store=store,
        queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        shared_memory=not args.no_shared_memory,
    )
    try:
        return run_server(service, args.host, args.port,
                          drain_timeout=args.drain_timeout)
    finally:
        store.spill_dir = previous_spill


def _loadgen(args: argparse.Namespace, settings: Settings,
             figures) -> int:
    """The ``repro-oltp loadgen`` verb: drive a running service."""
    from repro.service import figure_jobs, perturbed_jobs
    from repro.service.loadgen import generate, parse_mix
    from repro.service.loadgen import render as render_load

    mix = parse_mix(args.mix)
    warm = figure_jobs(figures, settings)
    warm_w, cold_w = mix
    cold_count = (
        -(-args.requests * cold_w // (warm_w + cold_w)) if cold_w else 0
    )
    cold = perturbed_jobs(cold_count, settings)
    report = generate(
        args.url, warm, cold,
        requests=args.requests,
        concurrency=args.concurrency,
        mix=mix,
        poll_timeout=args.poll_timeout,
        prime=not args.no_prime,
    )
    print(render_load(report))
    if args.report:
        parent = os.path.dirname(args.report)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"[loadgen report: {args.report}]")
    return 0 if report["ok"] else 1


def _stream(args: argparse.Namespace, settings: Settings) -> int:
    """The ``repro-oltp stream`` verb: scaled-up replay at flat memory.

    Streams a workload ``--scale-x`` times the configured transaction
    count straight from the generator into the general engine, chunk
    by chunk, without ever materializing the whole trace — peak RSS stays
    flat no matter how large the multiplier.
    """
    import resource

    from repro.core.machine import MachineConfig
    from repro.core.system import simulate
    from repro.runner.tracestore import StreamingTraceStore, TraceSpec

    scale_x = max(1, args.scale_x)
    txns = settings.uni_txns * scale_x
    spec = TraceSpec(ncpus=1, scale=settings.scale, txns=txns,
                     seed=settings.seed)
    store = StreamingTraceStore(spill_dir=None,
                                chunk_txns=args.chunk_txns or None)
    machine = MachineConfig(label="stream-base", ncpus=1)
    start = time.perf_counter()
    trace = store.stream(spec)
    result = simulate(machine, trace, engine="general",
                      check=settings.check)
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"streamed {txns} transactions ({scale_x}x the configured "
          f"count) through the general engine")
    print(f"  quanta:        {trace.quanta_seen}")
    print(f"  refs:          {trace.refs_seen}")
    print(f"  measured refs: {trace.measured_refs_seen}")
    print(f"  cycles:        {result.breakdown.total}")
    print(f"  wall:          {wall:.1f}s")
    print(f"  peak rss:      {peak_kb / 1024:.0f} MiB")
    return 0


def _settings(args: argparse.Namespace) -> Settings:
    if args.quick:
        base = Settings.quick()
    else:
        base = Settings.paper()
    return Settings(
        scale=args.scale if args.scale else base.scale,
        uni_txns=args.uni_txns if args.uni_txns else base.uni_txns,
        mp_txns=args.mp_txns if args.mp_txns else base.mp_txns,
        seed=args.seed,
        check=getattr(args, "check", "off"),
    )


def run_figure(name: str, settings: Settings, chart: bool = False,
               csv_dir: Optional[str] = None) -> str:
    """Run one figure driver and return its text report.

    When ``csv_dir`` is given, each reproduced Figure is also written
    there as ``<name>.csv`` (Figures 3 and 11 have no tabular Figure
    form and are skipped).
    """

    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)

    def dump(figure, suffix=""):
        if csv_dir:
            write_figure_csv(figure, f"{csv_dir}/{name}{suffix}.csv")
        return figure

    if name == "fig3":
        return fig3_latencies.render()
    if name == "fig5":
        return render(dump(offchip.run_uniprocessor(settings)), chart=chart)
    if name == "fig6":
        return render(dump(offchip.run_multiprocessor(settings)), chart=chart)
    if name == "fig7":
        return render(dump(onchip.run_uniprocessor(settings)), chart=chart)
    if name == "fig8":
        return render(dump(onchip.run_multiprocessor(settings)), chart=chart)
    if name == "fig10":
        study = integration.run(settings)
        dump(study.uni, "_uni")
        dump(study.mp, "_mp")
        return "\n\n".join(
            render(f, misses=False, chart=chart) for f in (study.uni, study.mp)
        )
    if name == "fig11":
        return rac.run_miss_study(settings).render()
    if name == "fig12":
        return render(dump(rac.run_perf_study(settings)), misses=False, chart=chart)
    if name == "fig13":
        study = ooo_experiment.run(settings)
        dump(study.uni, "_uni")
        dump(study.mp, "_mp")
        return study.render()
    if name == "ablations":
        return ablations.run_all(settings)
    if name == "selftest":
        from repro.integrity import selftest

        return selftest.run(settings).render()
    # Anything else is a scenario name; run_scenario fails fast with a
    # ConfigError listing the registered names when it is not.
    from repro.experiments import scenarios

    return render(dump(scenarios.run_scenario(name, settings)), chart=chart)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-oltp",
        description=(
            "Reproduce figures from 'Impact of Chip-Level Integration on "
            "Performance of OLTP Workloads' (HPCA 2000)."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=_version_string())
    parser.add_argument("figure", choices=FIGURES + EXTRAS + ("all",),
                        help="which figure (or extra study) to reproduce")
    parser.add_argument("target", nargs="?", default=None,
                        help="figure to profile (for the 'profile' verb), a "
                             "comma-separated figure/scenario subset (for "
                             "'campaign' and 'loadgen'), or a scenario "
                             "action: list, describe, run")
    parser.add_argument("name", nargs="?", default=None,
                        help="scenario name (for 'scenario describe' and "
                             "'scenario run')")
    parser.add_argument("--scale", type=int, default=0,
                        help="workload/cache scale-down factor (default 32)")
    parser.add_argument("--uni-txns", type=int, default=0,
                        help="measured transactions for uniprocessor runs")
    parser.add_argument("--mp-txns", type=int, default=0,
                        help="measured transactions for 8-CPU runs")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--quick", action="store_true",
                        help="small fast runs (CI smoke sizes)")
    parser.add_argument("--check", choices=("off", "end-of-run", "per-quantum"),
                        default="off",
                        help="run the integrity checker during every simulation")
    parser.add_argument("--chart", action="store_true",
                        help="also print ASCII stacked-bar charts")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each figure as CSV into DIR")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="campaign worker processes "
                             "(default: min(4, cpu count))")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help="campaign cache root for traces and results "
                             f"(default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="campaign: disable the on-disk result cache")
    parser.add_argument("--no-progress", action="store_true",
                        help="campaign: suppress per-job progress lines")
    parser.add_argument("--resume", metavar="JOURNAL", default=None,
                        help="campaign: checkpoint completed jobs into this "
                             "append-only journal and, when it already "
                             "exists, serve them from it instead of "
                             "re-simulating (safe across SIGINT/SIGKILL)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="campaign: per-job wall-clock deadline; a job "
                             "past it is killed and retried (default: none)")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="campaign: re-executions allowed per failing "
                             "job before it is reported as failed "
                             "(default 2)")
    parser.add_argument("--chaos", metavar="SPEC", default=None,
                        help="campaign: inject worker faults, e.g. "
                             "'crash@0,hang@1~120,slow@*~0.1:3' "
                             "(kind@job[~seconds][:times]; testing only)")
    parser.add_argument("--failure-report", metavar="PATH", default=None,
                        help="campaign: write the machine-readable per-job "
                             "success/failure report JSON here")
    parser.add_argument("--no-shared-memory", action="store_true",
                        help="campaign/serve: workers load private trace "
                             "copies instead of attaching the parent's "
                             "shared-memory view")
    parser.add_argument("--scale-x", type=int, default=100, metavar="X",
                        help="stream: transaction-count multiplier over the "
                             "configured settings (default 100)")
    parser.add_argument("--chunk-txns", type=int, default=0, metavar="N",
                        help="stream: transactions generated per chunk "
                             "(default: the generator's batch size)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of the run "
                             "(load in Perfetto or chrome://tracing)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the run's metrics and per-quantum "
                             "series (.csv suffix selects CSV, else JSON)")
    parser.add_argument("--json", action="store_true",
                        help="selftest: print the machine-readable report "
                             "instead of text")
    service = parser.add_argument_group("service mode (serve / loadgen)")
    service.add_argument("--host", default="127.0.0.1",
                         help="serve: bind address (default 127.0.0.1)")
    service.add_argument("--port", type=int, default=8077,
                         help="serve: TCP port; 0 picks an ephemeral port "
                              "(default 8077)")
    service.add_argument("--queue-limit", type=int, default=1024, metavar="N",
                         help="serve: bounded submission queue size "
                              "(default 1024)")
    service.add_argument("--journal", metavar="PATH", default=None,
                         help="serve: journal accepted and completed jobs "
                              "here; restarting on the same journal "
                              "resumes unfinished work")
    service.add_argument("--drain-timeout", type=float, default=60.0,
                         metavar="SECONDS",
                         help="serve: max seconds to finish queued work on "
                              "SIGTERM/SIGINT (default 60)")
    service.add_argument("--url", default="http://127.0.0.1:8077",
                         help="loadgen: service base URL")
    service.add_argument("--concurrency", type=int, default=32, metavar="N",
                         help="loadgen: concurrent keep-alive workers "
                              "(default 32)")
    service.add_argument("--requests", type=int, default=200, metavar="N",
                         help="loadgen: measured submissions (default 200)")
    service.add_argument("--mix", default="80:20", metavar="WARM:COLD",
                         help="loadgen: warm:cold submission ratio "
                              "(default 80:20)")
    service.add_argument("--no-prime", action="store_true",
                         help="loadgen: skip the unmeasured warm-corpus "
                              "priming phase")
    service.add_argument("--poll-timeout", type=float, default=300.0,
                         metavar="SECONDS",
                         help="loadgen: per-job completion deadline "
                              "(default 300)")
    service.add_argument("--report", metavar="PATH", default=None,
                         help="loadgen: write the JSON report here")
    args = parser.parse_args(argv)

    campaign_figures = FIGURES
    loadgen_figures = ("fig5",)
    scenario_action = "list"
    if args.figure == "profile":
        if args.target not in FIGURES:
            parser.error(
                "profile needs a figure to profile, e.g. 'profile fig6' "
                f"(choose from {', '.join(FIGURES)})"
            )
    elif args.figure == "campaign" and args.target is not None:
        from repro.scenario import scenario_names

        campaign_figures = tuple(
            name for name in args.target.split(",") if name
        )
        known = FIGURES + scenario_names()
        unknown = [n for n in campaign_figures if n not in known]
        if unknown:
            parser.error(
                f"unknown campaign figure(s)/scenario(s) "
                f"{', '.join(unknown)} (choose from {', '.join(known)})"
            )
    elif args.figure == "scenario":
        scenario_action = args.target or "list"
        if scenario_action not in SCENARIO_ACTIONS:
            parser.error(
                f"unknown scenario action {scenario_action!r} "
                f"(choose from {', '.join(SCENARIO_ACTIONS)})"
            )
        if scenario_action in ("describe", "run") and not args.name:
            parser.error(
                f"scenario {scenario_action} needs a scenario name, e.g. "
                f"'scenario {scenario_action} zipf-uni' (see 'scenario list')"
            )
        if scenario_action == "list" and args.name:
            parser.error("scenario list takes no scenario name")
    elif args.figure == "loadgen" and args.target is not None:
        from repro.service.corpus import CORPUS_FIGURES

        loadgen_figures = tuple(
            name for name in args.target.split(",") if name
        )
        unknown = [n for n in loadgen_figures if n not in CORPUS_FIGURES]
        if unknown:
            parser.error(
                f"unknown loadgen corpus figure(s) {', '.join(unknown)} "
                f"(choose from {', '.join(CORPUS_FIGURES)})"
            )
    elif args.target is not None:
        parser.error(
            "a target only applies to the 'profile', 'campaign', "
            "'loadgen' and 'scenario' verbs"
        )
    if args.name is not None and args.figure != "scenario":
        parser.error("a scenario name only applies to the 'scenario' verb")

    settings = _settings(args)
    if args.figure in ("serve", "loadgen") and not (
            args.quick or args.scale or args.uni_txns or args.mp_txns):
        # Service corpora default to quick sizes: the loadgen's jobs
        # must stay cheap enough to submit by the thousand.
        base = Settings.quick()
        settings = Settings(scale=base.scale, uni_txns=base.uni_txns,
                            mp_txns=base.mp_txns, seed=args.seed,
                            check=args.check)
    completed: List[str] = []
    profiling = args.figure == "profile"
    serving = args.figure == "serve"
    # Observability is opt-in per invocation: the profile verb and the
    # --trace-out/--metrics-out flags install a real tracer/registry;
    # everything else runs against the zero-overhead null objects.
    # The service always keeps a live metrics registry (surfaced via
    # GET /stats) but no tracer — spans would grow without bound over
    # a server's lifetime.
    want_obs = bool(profiling or args.trace_out or args.metrics_out)
    tracer = Tracer() if want_obs else NULL_TRACER
    registry = (
        MetricsRegistry() if want_obs or serving else NULL_METRICS
    )

    def dispatch() -> int:
        if args.figure == "serve":
            return _serve(args)

        if args.figure == "loadgen":
            return _loadgen(args, settings, loadgen_figures)

        if args.figure == "stream":
            return _stream(args, settings)

        if args.figure == "scenario":
            from repro.experiments import scenarios

            if scenario_action == "list":
                print(scenarios.render_list())
                return 0
            if scenario_action == "describe":
                print(scenarios.render_describe(args.name))
                return 0
            start = time.time()
            print(run_figure(args.name, settings, chart=args.chart,
                             csv_dir=args.csv))
            print(f"[{args.name} took {time.time() - start:.1f}s]")
            completed.append(args.name)
            return 0

        if args.figure == "campaign":
            chaos = None
            if args.chaos:
                import tempfile

                from repro.integrity.faults import parse_worker_faults

                chaos = (parse_worker_faults(args.chaos),
                         tempfile.mkdtemp(prefix="repro-chaos-"))
            report = run_campaign(
                campaign_figures,
                settings,
                jobs=args.jobs or default_jobs(),
                cache_dir=args.cache_dir,
                use_cache=not args.no_cache,
                chart=args.chart,
                csv_dir=args.csv,
                progress=not args.no_progress,
                resume=args.resume,
                job_timeout=args.job_timeout,
                max_retries=args.max_retries,
                chaos=chaos,
                failure_report=args.failure_report,
                shared_memory=not args.no_shared_memory,
            )
            print(report.render())
            if not report.ok:
                failed = ", ".join(report.failures)
                print(f"repro-oltp: campaign completed with failures in: "
                      f"{failed} (see report above)", file=sys.stderr)
                return 1
            return 0

        if args.figure == "selftest":
            from repro.integrity import selftest

            # Selftest defaults to quick sizes unless explicitly overridden.
            sized = args.quick or args.scale or args.uni_txns or args.mp_txns
            report = selftest.run(settings if sized else None)
            if args.json:
                print(json.dumps(report.to_dict(), indent=2,
                                 sort_keys=True))
            else:
                print(report.render())
            return 0 if report.passed else 1

        if profiling:
            names = (args.target,)
        elif args.figure == "all":
            names = FIGURES
        else:
            names = (args.figure,)
        for name in names:
            start = time.time()
            print(run_figure(name, settings, chart=args.chart,
                             csv_dir=args.csv))
            print(f"[{name} took {time.time() - start:.1f}s]")
            print()
            completed.append(name)
        return 0

    try:
        wall_start = time.perf_counter()
        with use_tracer(tracer), use_metrics(registry):
            code = dispatch()
        wall = time.perf_counter() - wall_start
        if want_obs:
            trace_path = args.trace_out
            if profiling and not trace_path:
                trace_path = f"profile-{args.target}.trace.json"
            if profiling:
                print(render_self_time(tracer.spans, wall))
            if trace_path:
                write_chrome_trace(tracer.spans, trace_path)
                print(f"[chrome trace: {trace_path}]")
            if args.metrics_out:
                if args.metrics_out.endswith(".csv"):
                    write_metrics_csv(registry, args.metrics_out)
                else:
                    write_metrics_json(registry, args.metrics_out)
                print(f"[metrics: {args.metrics_out}]")
        return code
    except KeyboardInterrupt:
        done = ", ".join(completed) if completed else "none"
        print(f"\nrepro-oltp: interrupted; figures completed: {done}",
              file=sys.stderr)
        return 130
    except (ReproError, JobFailed) as exc:
        print(f"repro-oltp: error: {exc}", file=sys.stderr)
        return 1
    except BrokenProcessPool:
        # The supervised executor absorbs worker deaths; reaching here
        # means the pool died outside its care (e.g. during shutdown).
        print(
            "repro-oltp: error: a campaign worker process died "
            "unexpectedly and the pool could not be recovered; completed "
            "results are preserved in the cache/journal — rerun (or "
            "rerun with --resume) to finish the remaining jobs",
            file=sys.stderr,
        )
        return 1
    except Exception as exc:  # no tracebacks for end users
        print(f"repro-oltp: internal error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line interface: ``paradigm-mdg`` / ``python -m repro``.

Subcommands
-----------
``compile``     allocate + schedule a built-in program, print/export Gantts
``simulate``    compile then run on the simulated machine
``experiment``  regenerate fig8 / fig9 / table1 / table2 / table3, or run
                a communication-cost sensitivity sweep
``export-dot``  emit a program's MDG as Graphviz DOT
``trace``       simulate and export a Chrome/Perfetto trace
``solve``       allocate an MDG loaded from a JSON file
``check``       statically analyze MDG files / built-in programs (text,
                JSON or SARIF 2.1.0 output; exit 1 on error findings)
``batch``       run a manifest of jobs through a worker pool
``obs``         analyze run-log JSONL files: ``report`` (span tree +
                convergence + hot spots), ``top`` (hottest stages),
                ``diff`` (per-stage deltas between two runs)
``info``        list built-in machines and programs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro import obs
from repro._version import __version__
from repro.analysis.comparison import (
    phi_vs_tpsa,
    predicted_vs_measured,
    sweep_system_sizes,
)
from repro.analysis.reports import comparison_table, deviation_table, prediction_table
from repro.allocation.solver import ConvexSolverOptions
from repro.errors import ReproError
from repro.faults import FaultSpec, load_fault_spec
from repro.graph.serialization import load_mdg
from repro.machine.fidelity import HardwareFidelity
from repro.machine.presets import PRESETS
from repro.pipeline import ResumableRun, _run_stages, compile_mdg, run_resumable
from repro.programs import DEFAULT_SIZES, PROGRAM_FACTORIES
from repro.programs.common import ProgramBundle
from repro.utils.tables import format_table
from repro.viz.gantt import schedule_gantt, trace_gantt

__all__ = ["main", "build_parser"]

#: Backwards-compatible alias; the registry itself lives in repro.programs.
PROGRAMS: dict[str, Callable[[int], ProgramBundle]] = PROGRAM_FACTORIES


def _machine(args: argparse.Namespace):
    factory = PRESETS.get(args.machine)
    if factory is None:
        raise SystemExit(f"unknown machine {args.machine!r}; try: {sorted(PRESETS)}")
    return factory(args.processors)


def _bundle(args: argparse.Namespace) -> ProgramBundle:
    factory = PROGRAMS.get(args.program)
    if factory is None:
        raise SystemExit(f"unknown program {args.program!r}; try: {sorted(PROGRAMS)}")
    n = args.n if args.n is not None else DEFAULT_SIZES[args.program]
    return factory(n)


def _solver_options(args: argparse.Namespace) -> ConvexSolverOptions | None:
    """Solver options from the robustness flags (None = library defaults)."""
    timeout = getattr(args, "solver_timeout", None)
    if timeout is None:
        return None
    return ConvexSolverOptions(timeout_seconds=timeout)


def _fault_spec(args: argparse.Namespace) -> FaultSpec | None:
    """Load ``--faults`` (and apply ``--fault-seed``), or None."""
    path = getattr(args, "faults", None)
    seed = getattr(args, "fault_seed", None)
    if path is None:
        if seed is not None:
            raise SystemExit("--fault-seed has no effect without --faults")
        return None
    spec = load_fault_spec(path)  # FaultSpecError -> structured exit 2
    if seed is not None:
        spec = spec.with_seed(seed)
    return spec


def _cache_options(args: argparse.Namespace) -> dict:
    """Checkpoint-store kwargs for :func:`run_resumable`.

    ``--cache-dir`` files every stage to the checkpoint store;
    ``--no-cache`` wins over it; ``--resume`` additionally *reads* valid
    artifacts back (without it the run only writes checkpoints).
    """
    cache_dir = getattr(args, "cache_dir", None)
    resume = bool(getattr(args, "resume", False))
    if getattr(args, "no_cache", False):
        cache_dir = None
    if resume and cache_dir is None:
        raise SystemExit("--resume requires --cache-dir (and not --no-cache)")
    return {
        "cache_dir": cache_dir,
        "resume": resume,
        "strict": bool(getattr(args, "strict", False)),
    }


def _check_flags(args: argparse.Namespace) -> dict:
    """``check``/``check_strict`` kwargs for the pipeline entry points."""
    return {
        "check": bool(getattr(args, "check", False)),
        "check_strict": bool(getattr(args, "check_strict", False)),
        "verify_program": bool(getattr(args, "verify_program", False)),
    }


def _emit_program_if_requested(args: argparse.Namespace, result) -> None:
    """Write the compiled MPMD/SPMD program as a canonical JSON artifact."""
    path = getattr(args, "emit_program", None)
    if not path:
        return
    from repro.codegen.serialization import save_program

    save_program(result.program, path)
    print(f"wrote program artifact to {path}")


def _fidelity(name: str) -> HardwareFidelity:
    try:
        return HardwareFidelity.named(name)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc


def _run_pipeline(
    args: argparse.Namespace, bundle: ProgramBundle, machine, **stages
) -> ResumableRun:
    """Run the selected program through the stage sequence.

    ``--spmd`` compiles the SPMD baseline (never checkpointed); MPMD runs
    go through :func:`run_resumable`, which files stages only when
    ``--cache-dir`` names a store.
    """
    cache = _cache_options(args)  # rejects --resume without a store, --spmd too
    if args.spmd:
        return _run_stages(
            bundle.mdg, machine, style="SPMD", **_check_flags(args), **stages
        )
    run = run_resumable(
        bundle.mdg,
        machine,
        solver_options=_solver_options(args),
        **cache,
        **_check_flags(args),
        **stages,
    )
    resumed = run.resumed_stages
    if resumed:
        print(f"resumed from cache   : {', '.join(resumed)}")
    return run


def cmd_info(_args: argparse.Namespace) -> int:
    print(f"paradigm-mdg {__version__}")
    print("machines:", ", ".join(sorted(PRESETS)))
    print("programs:", ", ".join(sorted(PROGRAMS)))
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    bundle = _bundle(args)
    machine = _machine(args)
    result = _run_pipeline(args, bundle, machine, simulate=False).compilation
    _emit_program_if_requested(args, result)
    print(f"{result.style} compilation of {bundle.name} on {machine.name} "
          f"(p={machine.processors})")
    if result.phi is not None:
        print(f"Phi (convex optimum) : {result.phi:.6g} s")
    print(f"predicted makespan   : {result.predicted_makespan:.6g} s")
    rows = [
        (name, count)
        for name, count in sorted(result.schedule.allocation().items())
        if not result.mdg.node(name).is_dummy
    ]
    print(format_table(["node", "processors"], rows, title="allocation"))
    print(schedule_gantt(result.schedule, width=args.width))
    if args.svg:
        from repro.viz.svg import save_schedule_svg

        save_schedule_svg(result.schedule, args.svg)
        print(f"wrote SVG Gantt to {args.svg}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    bundle = _bundle(args)
    machine = _machine(args)
    faults = _fault_spec(args)
    run = _run_pipeline(
        args,
        bundle,
        machine,
        simulate=True,
        fidelity=_fidelity(args.fidelity),
        faults=faults,
        # The trace feeds the Gantt chart and the utilization gauge; a
        # checkpointed run records it only when it is printed, because
        # it is filed inside the simulation artifact.
        record_trace=bool(args.gantt) or _cache_options(args)["cache_dir"] is None,
    )
    result, sim, repair = run.compilation, run.simulation, run.repair
    _emit_program_if_requested(args, result)
    print(f"{result.style} {bundle.name} on {machine.name} (p={machine.processors})")
    print(f"predicted : {result.predicted_makespan:.6g} s")
    print(f"measured  : {sim.makespan:.6g} s "
          f"({100 * sim.makespan / result.predicted_makespan:.1f}% of predicted)")
    if faults is not None:
        print(f"fault seed: {faults.seed}")
        if sim.halted:
            print(f"HALTED    : lost processor(s) {list(sim.failed_processors)}; "
                  f"{len(sim.info['unfinished_nodes'])} node(s) unfinished")
            report = repair.report
            print(f"repaired  : {report.repaired_makespan:.6g} s on "
                  f"{len(report.survivors)} survivors "
                  f"({report.degradation:.2f}x nominal, "
                  f"{len(report.rescheduled_nodes)} node(s) rescheduled)")
    if args.gantt:
        print(trace_gantt(sim.trace, machine.processors, width=args.width))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    bundle = _bundle(args)
    machine = _machine(args)
    sizes = tuple(int(s) for s in args.sizes.split(","))
    if args.which == "fig8":
        rows = sweep_system_sizes(bundle.mdg, machine, sizes)
        print(comparison_table(rows))
    elif args.which == "fig9":
        points = []
        for p in sizes:
            points.extend(predicted_vs_measured(bundle.mdg, machine.with_processors(p)))
        print(prediction_table(points))
    elif args.which == "table3":
        rows = [phi_vs_tpsa(bundle.mdg, machine.with_processors(p)) for p in sizes]
        print(deviation_table(rows))
    elif args.which == "table1":
        from repro.analysis.calibration import refit_table1

        refit = refit_table1()
        rows = [
            (fit.model.name, f"{100 * fit.alpha:.1f}%", f"{1e3 * fit.tau:.2f}",
             f"{100 * fit.rms_relative_error:.1f}%")
            for fit in (refit.matadd, refit.matmul)
        ]
        print(format_table(
            ["node name", "alpha (refit)", "tau ms (refit)", "RMS err"],
            rows,
            title="Table 1 refit on the simulated CM-5 "
            "(paper: 6.7%/3.73ms, 12.1%/298.47ms)",
        ))
    elif args.which == "table2":
        from repro.analysis.calibration import refit_table2
        from repro.machine.presets import CM5_TRANSFER

        _samples, fit = refit_table2()
        rows = [
            ("t_ss (us)", CM5_TRANSFER.t_ss * 1e6, fit.parameters.t_ss * 1e6),
            ("t_ps (ns)", CM5_TRANSFER.t_ps * 1e9, fit.parameters.t_ps * 1e9),
            ("t_sr (us)", CM5_TRANSFER.t_sr * 1e6, fit.parameters.t_sr * 1e6),
            ("t_pr (ns)", CM5_TRANSFER.t_pr * 1e9, fit.parameters.t_pr * 1e9),
            ("t_n (ns)", CM5_TRANSFER.t_n * 1e9, fit.parameters.t_n * 1e9),
        ]
        print(format_table(
            ["parameter", "paper", "refit"], rows,
            title="Table 2 refit on the simulated CM-5",
            float_format="{:.2f}",
        ))
    elif args.which == "sensitivity":
        from repro.analysis.sensitivity import (
            communication_sensitivity,
            sensitivity_table,
        )

        points = communication_sensitivity(bundle.mdg, machine)
        print(sensitivity_table(
            points,
            title=f"communication-cost sensitivity: {bundle.name} on "
            f"{machine.name} (p={machine.processors})",
        ))
    else:  # pragma: no cover - argparse choices guard this
        raise SystemExit(f"unknown experiment {args.which!r}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    from repro.graph.dot import mdg_to_dot

    bundle = _bundle(args)
    mdg = bundle.mdg.normalized()
    allocation = None
    if args.allocated:
        machine = _machine(args)
        allocation = compile_mdg(mdg, machine).schedule.allocation()
    text = mdg_to_dot(mdg, allocation=allocation)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.chrome_trace import save_chrome_trace

    # The trace export always includes the compiler-pipeline span track;
    # collect in-memory telemetry locally if the user didn't ask for any.
    local_telemetry = None if obs.enabled() else obs.configure()
    try:
        bundle = _bundle(args)
        machine = _machine(args)
        run = _run_pipeline(
            args,
            bundle,
            machine,
            simulate=True,
            fidelity=_fidelity(args.fidelity),
            faults=_fault_spec(args),
            record_trace=True,
        )
        result, sim = run.compilation, run.simulation
        save_chrome_trace(
            sim.trace,
            args.output,
            machine_name=machine.name,
            pipeline_spans=list(obs.get().spans),
        )
    finally:
        if local_telemetry is not None:
            obs.shutdown()
    print(
        f"simulated {bundle.name} ({result.style}) in {sim.makespan:.6g} s; "
        f"wrote Chrome trace to {args.output} "
        "(open in chrome://tracing or Perfetto)"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    mdg = load_mdg(args.mdg)
    machine = _machine(args)
    allocation = compile_mdg(mdg, machine).allocation
    print(f"Phi = {allocation.phi:.6g} s on {machine.name} (p={machine.processors})")
    rows = sorted(allocation.processors.items())
    print(format_table(["node", "processors (continuous)"], rows))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check import (
        Analyzer,
        CheckReport,
        Severity,
        check_bundle,
        check_file,
        render_sarif,
        rules_markdown,
    )

    if args.list_rules:
        if args.format == "markdown":
            print(rules_markdown(), end="")
        else:
            for rule in Analyzer().rules():
                print(f"{rule.rule_id}  {rule.severity.value:<7} {rule.title}")
        return 0

    machine = _machine(args)
    compile_schedule = not args.no_compile

    # Expand targets: files are checked directly, directories are scanned
    # for *.json and *.jsonl (recursively), so `repro check examples/`
    # covers every shipped graph and `repro check logs/` every run log.
    # A target that does not exist, or a directory with nothing checkable
    # in it, is a usage error (exit 2) — never silently skipped and never
    # a silent fallback to the built-in audit.
    from pathlib import Path

    from repro.errors import CheckError

    files: list[Path] = []
    for target in args.targets:
        path = Path(target)
        if path.is_dir():
            matched = sorted([*path.rglob("*.json"), *path.rglob("*.jsonl")])
            if not matched:
                raise CheckError(
                    f"directory {target} contains no *.json or *.jsonl files"
                )
            files.extend(matched)
        elif path.is_file():
            files.append(path)
        else:
            raise CheckError(f"no such file or directory: {target}")

    programs: list[str] = []
    if args.all_programs:
        programs = sorted(PROGRAMS)
    elif args.program is not None:
        programs = [args.program]
    if not files and not programs and not args.targets:
        programs = sorted(PROGRAMS)  # bare `repro check` audits the built-ins

    report = CheckReport()
    for path in files:
        report.merge(check_file(path, machine, compile_schedule=compile_schedule))
    for name in programs:
        factory = PROGRAMS.get(name)
        if factory is None:
            raise SystemExit(
                f"unknown program {name!r}; try: {sorted(PROGRAMS)}"
            )
        n = args.n if args.n is not None else DEFAULT_SIZES[name]
        report.merge(
            check_bundle(factory(n), machine, compile_schedule=compile_schedule)
        )

    if args.format == "sarif":
        rendered = render_sarif(report, Analyzer().rules())
    elif args.format == "json":
        import json

        rendered = json.dumps(report.to_dict(), indent=2)
    elif args.format == "markdown":
        from repro.check import render_markdown

        rendered = render_markdown(report)
    else:
        rendered = report.render_text()

    if args.output:
        from repro.store.artifact import atomic_write_text

        try:
            atomic_write_text(Path(args.output), rendered + "\n")
        except OSError as exc:
            raise CheckError(
                f"cannot write report to {args.output}: {exc}"
            ) from exc
        print(f"wrote {args.format} report to {args.output}")
        print(report.summary())
    else:
        print(rendered)

    threshold = Severity(args.fail_on)
    return 1 if report.at_least(threshold) else 0


def _load_run_log(path: str) -> tuple[list[dict], int]:
    """Tolerantly load a run-log JSONL file for the ``obs`` subcommands.

    Returns ``(events, corrupt)``. Skipped lines are never silent: they
    bump the ``runlog.skipped_lines`` counter (when telemetry is on) and
    print a stderr note; ``repro obs report`` additionally renders a
    prominent data-loss warning so truncation cannot masquerade as a
    short run.
    """
    from repro import obs
    from repro.obs.sinks import read_run_log

    p = Path(path)
    if not p.is_file():
        raise SystemExit(f"run log not found: {path}")
    try:
        events, corrupt = read_run_log(p)
    except OSError as exc:
        raise SystemExit(f"cannot read run log {path}: {exc}") from exc
    if corrupt:
        obs.counter("runlog.skipped_lines").inc(corrupt)
        obs.event(
            "runlog.skipped_lines", level="warning", path=str(p), lines=corrupt
        )
        print(
            f"note: skipped {corrupt} corrupt line(s) in {path}",
            file=sys.stderr,
        )
    return events, corrupt


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.prof import render_diff, render_profile, render_top
    from repro.obs.runlog import run_log_problems

    if args.obs_command == "report":
        events, corrupt = _load_run_log(args.runlog)
        if corrupt:
            print(
                f"WARNING: {corrupt} corrupt/torn line(s) skipped in "
                f"{args.runlog} — the profile below is incomplete "
                "(counter: runlog.skipped_lines)"
            )
            print()
        print(render_profile(
            events, title=f"run profile: {args.runlog}", top=args.top
        ))
        problems = run_log_problems(events)
        if problems:
            print()
            print(f"{len(problems)} run-log problem(s) detected "
                  "(see `repro check` rules OBS001/OBS002):")
            for kind, message in problems[:5]:
                print(f"  [{kind}] {message}")
            if len(problems) > 5:
                print(f"  ... and {len(problems) - 5} more")
    elif args.obs_command == "top":
        events, _ = _load_run_log(args.runlog)
        print(render_top(events, n=args.top, by=args.by))
    elif args.obs_command == "diff":
        events_a, _ = _load_run_log(args.runlog_a)
        events_b, _ = _load_run_log(args.runlog_b)
        print(render_diff(
            events_a,
            events_b,
            n=args.top,
            label_a=Path(args.runlog_a).name,
            label_b=Path(args.runlog_b).name,
        ))
    else:  # pragma: no cover - argparse requires a subcommand
        raise SystemExit(f"unknown obs subcommand {args.obs_command!r}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchCompiler, load_manifest, manifest_problems

    manifest = Path(args.manifest)
    if not args.no_preflight:
        # Static manifest validation first: a missing graph file should
        # fail before any solve starts, not twenty jobs into the sweep.
        import json as _json

        try:
            doc = _json.loads(manifest.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read batch manifest {manifest}: {exc}",
                  file=sys.stderr)
            return 2
        problems = manifest_problems(doc, base_dir=manifest.parent)
        if problems:
            for problem in problems:
                print(f"error: {manifest}: {problem}", file=sys.stderr)
            return 2

    jobs = load_manifest(
        manifest, solver=_solver_options(args), psa=None
    )
    compiler = BatchCompiler(
        workers=args.workers, deadline_seconds=args.deadline, **_cache_options(args)
    )
    resilient = bool(args.resilient or args.chaos is not None)
    if resilient:
        from repro.resilience import ResilienceOptions, load_chaos_spec

        chaos = load_chaos_spec(args.chaos) if args.chaos else None
        options = ResilienceOptions(
            lease_ttl=args.lease_ttl,
            deadline_seconds=args.deadline,
            chaos=chaos,
        )
        report = compiler.run_resilient(jobs, options)
    else:
        report = compiler.run(jobs)
    print(report.render_text())
    if args.output:
        import json as _json

        from repro.store.artifact import atomic_write_text

        atomic_write_text(
            Path(args.output), _json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"wrote batch report JSON to {args.output}")
    return 1 if report.n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradigm-mdg",
        description="Mixed data/functional parallelism via convex programming "
        "(ICPP 1994 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list machines and programs").set_defaults(
        func=cmd_info
    )

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--program", default="complex", help="built-in program name")
        p.add_argument("--n", type=int, default=None, help="matrix size")
        p.add_argument("--machine", default="cm5", help="machine preset")
        p.add_argument("--processors", "-p", type=int, default=64)
        p.add_argument("--width", type=int, default=72, help="gantt width")
        p.add_argument(
            "--log-json",
            default=None,
            metavar="PATH",
            help="stream structured telemetry events (spans, decisions, "
            "metrics) to PATH as JSONL",
        )
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write the final metrics snapshot (counters/gauges/"
            "histograms) to PATH",
        )
        p.add_argument(
            "--metrics-format",
            choices=["auto", "json", "prometheus", "otlp"],
            default="auto",
            help="encoding for --metrics-out: raw JSON snapshot, Prometheus "
            "text exposition, or OTLP-style JSON (auto infers from the "
            "extension: .prom/.txt -> prometheus, .otlp -> otlp, else json)",
        )
        p.add_argument(
            "--obs-report",
            action="store_true",
            help="print a human-readable telemetry report after the run",
        )
        p.add_argument(
            "--solver-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock cap on the allocation solve",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="checkpoint every pipeline stage to a content-addressed "
            "artifact store under DIR (crash-safe atomic writes)",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="reuse valid stage artifacts from --cache-dir instead of "
            "recomputing (corrupt/stale ones are quarantined and redone)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="ignore --cache-dir entirely (no reads, no writes)",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="fail hard: corrupted cache artifacts and failed pipeline "
            "post-conditions (schedule validation, KKT certificate) raise "
            "instead of warning and recomputing",
        )
        p.add_argument(
            "--check",
            action="store_true",
            help="run the static analyzer (graph/cost/ir pass families) as "
            "a pre-flight gate before the allocation solver; error-severity "
            "findings abort the run",
        )
        p.add_argument(
            "--check-strict",
            action="store_true",
            help="like --check, but warning-severity findings abort too",
        )
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget for the whole run, enforced "
            "cooperatively at stage boundaries and inside solver/PSA/"
            "simulator loops (exit 2 with the failing stage on overrun)",
        )

    def fault_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--faults",
            default=None,
            metavar="SPEC.json",
            help="fault-injection spec (see docs: Robustness & fault injection)",
        )
        p.add_argument(
            "--fault-seed",
            type=int,
            default=None,
            metavar="SEED",
            help="override the spec's seed (fault decisions are reproducible "
            "per seed)",
        )

    def program_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--emit-program",
            default=None,
            metavar="PATH",
            help="write the generated MPMD/SPMD program as a canonical JSON "
            "artifact (checkable offline with `repro check PATH`)",
        )
        p.add_argument(
            "--verify-program",
            action="store_true",
            help="statically verify the generated program with the comm pass "
            "family (send/recv matching, deadlock-freedom, schedule and "
            "cost consistency) after codegen; error findings abort the run",
        )

    p_compile = sub.add_parser("compile", help="allocate + schedule + show Gantt")
    common(p_compile)
    program_flags(p_compile)
    p_compile.add_argument("--spmd", action="store_true", help="SPMD baseline")
    p_compile.add_argument("--svg", default=None, help="also write an SVG Gantt")
    p_compile.set_defaults(func=cmd_compile)

    p_sim = sub.add_parser("simulate", help="compile then run on the simulator")
    common(p_sim)
    program_flags(p_sim)
    fault_flags(p_sim)
    p_sim.add_argument("--spmd", action="store_true")
    p_sim.add_argument("--fidelity", default="cm5", help="ideal | cm5")
    p_sim.add_argument("--gantt", action="store_true", help="print the trace Gantt")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument(
        "which",
        choices=["fig8", "fig9", "table1", "table2", "table3", "sensitivity"],
    )
    common(p_exp)
    p_exp.add_argument("--sizes", default="16,32,64")
    p_exp.set_defaults(func=cmd_experiment)

    p_dot = sub.add_parser("export-dot", help="emit a program's MDG as DOT")
    common(p_dot)
    p_dot.add_argument("--allocated", action="store_true",
                       help="annotate nodes with the compiled allocation")
    p_dot.add_argument("--output", "-o", default=None, help="output file")
    p_dot.set_defaults(func=cmd_export_dot)

    p_trace = sub.add_parser(
        "trace", help="simulate and export a Chrome/Perfetto trace"
    )
    common(p_trace)
    fault_flags(p_trace)
    p_trace.add_argument("--spmd", action="store_true")
    p_trace.add_argument("--fidelity", default="cm5", help="ideal | cm5")
    p_trace.add_argument("--output", "-o", default="trace.json")
    p_trace.set_defaults(func=cmd_trace)

    p_check = sub.add_parser(
        "check",
        help="statically analyze MDG files, program artifacts and built-in "
        "programs (graph, cost, schedule, ir and comm pass families)",
    )
    p_check.add_argument(
        "targets",
        nargs="*",
        help="MDG JSON files, emitted program artifacts, or directories to "
        "scan for *.json/*.jsonl "
        "(no targets and no --program: audit every built-in program)",
    )
    p_check.add_argument(
        "--program", default=None, help="also check one built-in program"
    )
    p_check.add_argument(
        "--all-programs",
        action="store_true",
        help="also check every built-in program",
    )
    p_check.add_argument("--n", type=int, default=None, help="matrix size")
    p_check.add_argument("--machine", default="cm5", help="machine preset")
    p_check.add_argument("--processors", "-p", type=int, default=64)
    p_check.add_argument(
        "--format",
        choices=["text", "json", "sarif", "markdown"],
        default="text",
        help="output format (sarif = SARIF 2.1.0 for GitHub code scanning; "
        "markdown = findings table, or the rule table with --list-rules)",
    )
    p_check.add_argument(
        "--output", "-o", default=None, help="write the report to a file"
    )
    p_check.add_argument(
        "--fail-on",
        choices=["error", "warning", "note"],
        default="error",
        help="lowest severity that makes the command exit 1",
    )
    p_check.add_argument(
        "--no-compile",
        action="store_true",
        help="skip compiling clean graphs (disables the schedule pass family)",
    )
    p_check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table instead of checking anything",
    )
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="allocate an MDG from a JSON file")
    p_solve.add_argument("mdg", help="path to an MDG JSON file")
    p_solve.add_argument("--machine", default="cm5")
    p_solve.add_argument("--processors", "-p", type=int, default=64)
    p_solve.set_defaults(func=cmd_solve)

    p_batch = sub.add_parser(
        "batch",
        help="run a manifest of pipeline jobs through a worker pool with "
        "structural solve caching",
    )
    p_batch.add_argument("manifest", help="path to a batch manifest JSON file")
    p_batch.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="process-pool size; 0 or 1 runs jobs inline in this process "
        "(deterministic serial executor)",
    )
    p_batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="structural solve cache (an artifact store); isomorphic jobs "
        "reuse finished allocations after KKT re-certification",
    )
    p_batch.add_argument(
        "--resume",
        action="store_true",
        help="read cached solves back from --cache-dir "
        "(without it the batch only writes them)",
    )
    p_batch.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir entirely (no reads, no writes)",
    )
    p_batch.add_argument(
        "--strict",
        action="store_true",
        help="corrupted cache artifacts raise instead of being "
        "quarantined and re-solved",
    )
    p_batch.add_argument(
        "--no-preflight",
        action="store_true",
        help="skip static manifest validation before dispatching jobs",
    )
    p_batch.add_argument(
        "--resilient",
        action="store_true",
        help="run under the crash-tolerant executor: lease-claiming worker "
        "processes that survive SIGKILL (crashed workers are respawned, "
        "their jobs reclaimed after lease expiry and re-run exactly once)",
    )
    p_batch.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="lease time-to-live for --resilient; recovery after a worker "
        "crash takes at most one ttl (default: 5)",
    )
    p_batch.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget, enforced cooperatively across "
        "the solver, PSA, and simulation; over-budget jobs fail "
        "with error_type DeadlineExceeded",
    )
    p_batch.add_argument(
        "--chaos",
        default=None,
        metavar="PATH",
        help="chaos-spec JSON (kind \"chaos\"): deterministic fault "
        "injection — worker kills, forced lease expiries, artifact "
        "corruption, stalls. Implies --resilient",
    )
    p_batch.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="also write the full batch report (per-job results + "
        "throughput stats) to PATH as JSON",
    )
    p_batch.add_argument(
        "--solver-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap on each job's allocation solve",
    )
    p_batch.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="stream structured telemetry events to PATH as JSONL",
    )
    p_batch.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics snapshot to PATH",
    )
    p_batch.add_argument(
        "--metrics-format",
        choices=["auto", "json", "prometheus", "otlp"],
        default="auto",
        help="encoding for --metrics-out (auto infers from the extension)",
    )
    p_batch.add_argument(
        "--obs-report", action="store_true",
        help="print a human-readable telemetry report after the run",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_obs = sub.add_parser(
        "obs",
        help="analyze run-log JSONL files written with --log-json",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report",
        help="span tree with self/total time, hot-stage ranking, solver "
        "convergence traces, and metrics",
    )
    p_obs_report.add_argument("runlog", help="run-log JSONL file")
    p_obs_report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="stages to show in the hot-stage ranking",
    )
    p_obs_report.set_defaults(func=cmd_obs)
    p_obs_top = obs_sub.add_parser(
        "top", help="rank the hottest stages of one run"
    )
    p_obs_top.add_argument("runlog", help="run-log JSONL file")
    p_obs_top.add_argument(
        "-n", "--top", type=int, default=10, dest="top", metavar="N",
        help="number of stages to show",
    )
    p_obs_top.add_argument(
        "--by", choices=["self", "total"], default="self",
        help="rank by self time (default) or total time",
    )
    p_obs_top.set_defaults(func=cmd_obs)
    p_obs_diff = obs_sub.add_parser(
        "diff",
        help="per-stage time deltas between two run logs (names the "
        "slowest stage and the biggest regression)",
    )
    p_obs_diff.add_argument("runlog_a", help="baseline run-log JSONL file")
    p_obs_diff.add_argument("runlog_b", help="comparison run-log JSONL file")
    p_obs_diff.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="stages to show in the delta table",
    )
    p_obs_diff.set_defaults(func=cmd_obs)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run one subcommand, converting library errors to structured exits.

    A malformed input file, a corrupted artifact under ``--strict``, or a
    failed post-condition prints a diagnostic (path, field, reason — see
    :class:`repro.errors.IngestError`) on stderr and exits 2. A traceback
    reaching the user is a bug.

    ``--deadline`` on the single-run commands installs an ambient
    :class:`~repro.resilience.Deadline` around the whole command (the
    ``batch`` subcommand interprets its own ``--deadline`` per job
    instead, so it is excluded here).
    """
    from contextlib import nullcontext

    from repro.errors import DeadlineExceeded
    from repro.resilience import Deadline, deadline_scope

    budget = getattr(args, "deadline", None)
    scope = (
        deadline_scope(Deadline(budget))
        if budget is not None and args.command != "batch"
        else nullcontext()
    )
    try:
        with scope:
            return args.func(args)
    except DeadlineExceeded as exc:
        stage = exc.stage or "unknown"
        print(
            f"error: deadline exceeded after {exc.elapsed:.2f} s "
            f"(stage {stage!r})",
            file=sys.stderr,
        )
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    log_json = getattr(args, "log_json", None)
    metrics_out = getattr(args, "metrics_out", None)
    want_report = getattr(args, "obs_report", False)
    if not (log_json or metrics_out or want_report):
        return _dispatch(args)

    try:
        telemetry = obs.configure(jsonl_path=log_json)
    except OSError as exc:
        raise SystemExit(
            f"cannot open --log-json path {log_json!r}: {exc}"
        ) from exc
    metrics_format = getattr(args, "metrics_format", "auto")
    try:
        status = _dispatch(args)
    finally:
        # Flush the JSONL sink first, so even a crashed run leaves a
        # complete telemetry file behind for post-mortems.
        obs.shutdown()
        if metrics_out:
            from repro.obs.export import write_metrics

            try:
                metrics_format = write_metrics(
                    metrics_out, telemetry.metrics.snapshot(), metrics_format
                )
            except OSError as exc:
                raise SystemExit(
                    f"cannot write --metrics-out path {metrics_out!r}: {exc}"
                ) from exc
        if want_report:
            print()
            print(obs.render_report(telemetry))
        if log_json:
            print(f"wrote telemetry JSONL to {log_json}")
        if metrics_out:
            print(f"wrote metrics ({metrics_format}) to {metrics_out}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

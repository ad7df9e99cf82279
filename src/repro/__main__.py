"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments [ids...]``
    Run reproduction experiments (all by default) and print the
    paper-vs-measured tables with fidelity outcomes.
``workloads``
    List the benchmark workloads with their paper-scale launch shapes.
``run <workload> [--scale S] [--config C] [--crash-after N]``
    Launch one workload under LP, optionally crash it, recover, verify.
    ``--trace out.json`` records the run as a Chrome/Perfetto trace,
    ``--metrics out.json`` dumps the flight-recorder metrics snapshot,
    ``--json`` prints a structured result document instead of text.
    ``--telemetry out.jsonl`` starts a background sampler streaming
    periodic metric snapshots (counters, rates, gauges, quantiles) as
    JSONL; ``--prom out.prom`` writes the final state in Prometheus
    text exposition format.
``inspect <heap> [--json] [--diff OTHER] [--shards N]``
    Decode a heap — a plain heap file, or a shard manifest plus every
    shard file it names — **read-only**: per extent the header, armed
    journal (EXACT/RANGE), CRC-checked directory, per-line occupancy
    and torn-line diagnosis, plus the torn view merged across extents.
    Unlike opening the heap, inspection never clears a journal.
    ``--diff`` compares two heaps of the same layout line-by-line (exit
    1 when they differ); ``--shards N`` asserts the target is an
    N-shard manifest (``0``: a plain heap file).
``watch <telemetry.jsonl> [--once] [--interval S]``
    Live view of a telemetry stream written by ``run --telemetry`` or
    ``crash-test --telemetry``: tails the JSONL file and renders the
    newest sample (rates, gauges, histogram quantiles) as it lands.
``profile <workload> [--scale S] [--crash-after N]``
    Run a workload with the flight recorder on and print a per-phase
    wall-time / modeled-cycles / NVM-traffic breakdown.
``crash-test [--workloads ...] [--engines ...] [--rounds N] [--shards N]``
    Out-of-process durability proof: SIGKILL child processes mid-launch
    against an mmap-backed heap, reopen the heap cold, validate and
    recover, and verify against the crash-free reference. With
    ``--shards N`` every cell runs against an N-shard heap and the
    launch round kills inside one shard's armed journal window.
    Writes a JSON report with ``--out``; exits 1 if any grid cell
    fails to converge.
``report [path]``
    Regenerate EXPERIMENTS.md.
``lint [targets...] [--format text|json] [--oracle] [--races]``
    Run the lplint static analyzer over kernel sources. Targets are
    ``builtin`` (every built-in workload + MegaKV kernel, the default),
    ``.cu``/``.cuh`` files (directive front-end), ``.py`` files, or
    directories. ``--races`` cross-checks the persistency race rules
    (LP008-LP010) against a quick bounded crash-state enumeration.
    Exits 1 on unsuppressed findings.
``mc [--workloads ...] [--budget N] [--engine E] [--scale S]``
    Bounded crash-state model checker: enumerate every reachable
    post-crash heap image of a workload launch (write-back prefixes ×
    torn-line windows × crash-race lotteries), run the real
    validate → recover pipeline on each distinct state, and report any
    state that fails to converge as a minimized counterexample. Exits
    1 if any counterexample is found.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench.experiments import EXPERIMENTS

    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    failures = 0
    for exp_id in ids:
        result = EXPERIMENTS[exp_id]()
        print(result.rendered)
        for name, ok in result.fidelity.items():
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
            failures += 0 if ok else 1
        print()
    return 1 if failures else 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.bench.profiles import PROFILES
    from repro.workloads import WORKLOADS

    print(f"{'name':14s} {'paper blocks':>12s} {'threads':>8s} "
          f"{'bottleneck':>10s}")
    for name in WORKLOADS:
        profile = PROFILES[name]
        print(f"{name:14s} {profile.n_blocks:12,d} "
              f"{profile.threads_per_block:8d} "
              f"{profile.bottleneck:>10s}")
    print("\n(+ megakv: see repro.megakv / examples/megakv_server.py)")
    return 0


def _make_run(args: argparse.Namespace):
    """Shared device + LP-kernel setup for ``run`` and ``profile``.

    Returns an :class:`contextlib.ExitStack` as its last element; the
    caller must close it (it owns the scratch sharded heap when
    ``--shards`` is given).
    """
    import contextlib

    import repro
    from repro.harness.crashproc import make_lp_run

    stack = contextlib.ExitStack()
    shadow = None
    if getattr(args, "shards", 0):
        from repro.harness.tmpdir import ManagedTmpdir
        from repro.nvm import create_heap

        tmp = stack.enter_context(ManagedTmpdir())
        shadow = stack.enter_context(create_heap(
            tmp.file("heap.lpnv"), args.shards))
    try:
        device, work, lp_kernel = make_lp_run(
            args.workload, args.scale, args.seed, args.config, args.engine,
            args.cache_lines, shadow)
        crash_plan = None
        if args.crash_after is not None:
            crash_plan = repro.CrashPlan(after_blocks=args.crash_after,
                                         persist_fraction=0.3,
                                         seed=args.seed)
    except BaseException:
        stack.close()
        raise
    return device, work, lp_kernel, crash_plan, stack


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.core.recovery import RecoveryManager

    device, work, lp_kernel, crash_plan, stack = _make_run(args)
    n_blocks = lp_kernel.launch_config().n_blocks
    quiet = args.json

    want_telemetry = bool(args.telemetry or args.prom)
    want_metrics = bool(args.metrics or args.json or want_telemetry)
    want_recorder = bool(args.trace or want_metrics)
    recorder = obs.Recorder(
        tracer=obs.Tracer(obs.MemorySink() if args.trace else None),
        metrics=obs.MetricsRegistry() if want_metrics
        else obs.NullMetrics(),
    ) if want_recorder else None
    if want_telemetry:
        recorder.sampler = obs.TelemetrySampler(
            recorder.metrics,
            interval=args.telemetry_interval,
            jsonl_path=args.telemetry,
        )
        recorder.sampler.start()
    previous = obs.install(recorder) if recorder is not None else None

    try:
        if not quiet:
            print(f"{args.workload} ({args.scale}): {n_blocks} blocks, "
                  f"LP design {lp_kernel.config.describe()}")
        result = device.launch(lp_kernel, crash_plan=crash_plan)
        if not quiet:
            print(f"launch: {result.n_completed}/{n_blocks} blocks, "
                  f"{result.total_cycles:,.0f} modeled cycles"
                  + (", CRASHED" if result.crashed else ""))

        report = None
        if result.crashed:
            report = RecoveryManager(device, lp_kernel).recover()
            if not quiet:
                print(f"recovered {len(report.recovered_blocks)} regions "
                      f"in {report.total_recovery_cycles:,.0f} cycles")
                if report.forensics is not None:
                    print(report.forensics.render_text())
        work.verify(device)
        if not quiet:
            print("output verified against the reference.")
    finally:
        stack.close()
        if recorder is not None:
            if recorder.sampler is not None:
                # Final sample + thread join; the JSONL stream already
                # holds every earlier sample (flushed per line).
                recorder.sampler.stop()
                recorder.sampler.close()
            obs.install(previous)

    if args.telemetry and not quiet:
        print(f"telemetry stream written to {args.telemetry}")
    if args.prom:
        from repro.obs import to_prometheus

        with open(args.prom, "w") as fh:
            fh.write(to_prometheus(recorder.metrics_snapshot()))
        if not quiet:
            print(f"prometheus exposition written to {args.prom}")
    if args.trace:
        recorder.write_trace(args.trace, workload=args.workload,
                             scale=args.scale, engine=args.engine)
        if not quiet:
            print(f"trace written to {args.trace}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(recorder.metrics_snapshot(), fh, indent=2)
            fh.write("\n")
        if not quiet:
            print(f"metrics written to {args.metrics}")

    if args.json:
        payload = {
            "workload": args.workload,
            "scale": args.scale,
            "config": args.config,
            "engine": args.engine,
            "shards": args.shards,
            "launch": result.to_dict(),
            "write_stats": device.memory.write_stats.to_dict(),
            "table_stats": lp_kernel.table.stats.to_dict(),
            "verified": True,
        }
        if report is not None:
            payload["recovery"] = {
                "recovered_blocks": len(report.recovered_blocks),
                "total_recovery_cycles": report.total_recovery_cycles,
                "forensics": None if report.forensics is None
                else report.forensics.to_dict(),
            }
        if recorder is not None and recorder.metrics.active:
            payload["metrics"] = recorder.metrics_snapshot()
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json
    import time

    from repro import obs
    from repro.core.recovery import RecoveryManager
    from repro.obs.metrics import diff_counters

    device, work, lp_kernel, crash_plan, stack = _make_run(args)
    n_blocks = lp_kernel.launch_config().n_blocks
    phases: list[dict] = []

    def _nvm_lines(deltas: dict) -> float:
        return sum(v for k, v in deltas.items()
                   if k.startswith("nvm.writeback.lines"))

    with stack, obs.recording() as rec:

        def run_phase(name, fn):
            before = rec.metrics_snapshot()
            t0 = time.perf_counter()
            out = fn()
            wall_ms = (time.perf_counter() - t0) * 1e3
            deltas = diff_counters(before, rec.metrics_snapshot())
            phases.append({"phase": name, "wall_ms": wall_ms,
                           "cycles": 0.0,
                           "nvm_lines": _nvm_lines(deltas)})
            return out

        result = run_phase(
            "launch", lambda: device.launch(lp_kernel,
                                            crash_plan=crash_plan))
        phases[-1]["cycles"] = result.total_cycles

        report = None
        if result.crashed:
            report = run_phase(
                "recover",
                lambda: RecoveryManager(device, lp_kernel).recover())
            phases[-1]["cycles"] = report.total_recovery_cycles

        run_phase("drain", device.drain)
        check = run_phase(
            "validate",
            lambda: RecoveryManager(device, lp_kernel).validate())
        phases[-1]["cycles"] = check.launch.total_cycles
        run_phase("verify", lambda: work.verify(device))

    if args.trace:
        rec.write_trace(args.trace, workload=args.workload,
                        scale=args.scale, engine=args.engine,
                        command="profile")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(rec.metrics_snapshot(), fh, indent=2)
            fh.write("\n")

    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "scale": args.scale,
            "engine": args.engine,
            "n_blocks": n_blocks,
            "crashed": result.crashed,
            "validation_failed_blocks": check.n_failed,
            "phases": phases,
        }, indent=2))
        return 0

    print(f"{args.workload} ({args.scale}): {n_blocks} blocks, "
          f"engine {args.engine}"
          + (", crashed + recovered" if result.crashed else ""))
    print(f"{'phase':10s} {'wall ms':>10s} {'modeled cycles':>16s} "
          f"{'NVM lines':>10s}")
    for row in phases:
        print(f"{row['phase']:10s} {row['wall_ms']:10.2f} "
              f"{row['cycles']:16,.0f} {row['nvm_lines']:10,.0f}")
    total_wall = sum(r["wall_ms"] for r in phases)
    total_lines = sum(r["nvm_lines"] for r in phases)
    print(f"{'total':10s} {total_wall:10.2f} {'':>16s} "
          f"{total_lines:10,.0f}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics:
        print(f"metrics written to {args.metrics}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import findings_to_payload, render_text, run_lint

    targets = args.targets or ["builtin"]
    try:
        report, verdicts, mc_reports = run_lint(
            targets, oracle=args.oracle, races=args.races
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        payload = findings_to_payload(report)
        if verdicts:
            payload["oracle"] = {
                name: verdict.to_dict()
                for name, verdict in verdicts.items()
            }
        if mc_reports:
            payload["mc"] = {
                name: mc.to_dict() for name, mc in mc_reports.items()
            }
        print(json.dumps(payload, indent=2))
    else:
        print(render_text(report))
        for name, verdict in verdicts.items():
            state = "idempotent" if verdict.idempotent else "NON-IDEMPOTENT"
            print(f"oracle: {name}: {state} over blocks "
                  f"{verdict.tested_blocks}")
        for name, mc in mc_reports.items():
            state = ("converged" if mc.converged
                     else f"{len(mc.counterexamples)} COUNTEREXAMPLE(S)")
            print(f"mc: {name}: {state} over {mc.states_explored} "
                  f"distinct crash states")
    return report.exit_code


def _cmd_mc(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.crashmc import MCOptions, fixture_dict, run_mc

    options = MCOptions(
        scale=args.scale, seed=args.seed, config=args.config,
        engine=args.engine, cache_lines=args.cache_lines,
        budget=args.budget,
    )
    report = run_mc(list(args.workloads), options)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        if not args.json:
            print(f"report written to {args.out}")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"mc: budget {options.budget}, engine {options.engine}, "
              f"scale {options.scale}, cache {options.cache_lines} lines")
        print(f"{'case':14s} {'events':>6s} {'distinct':>8s} "
              f"{'pruned':>6s} {'elapsed':>8s}  status")
        for case in report["cases"]:
            status = ("ok" if case["converged"]
                      else f"{len(case['counterexamples'])} "
                           f"counterexample(s)")
            if case["budget_exhausted"]:
                status += " (budget exhausted)"
            print(f"{case['case']:14s} {case['events']:6d} "
                  f"{case['states_explored']:8d} "
                  f"{case['states_pruned']:6d} "
                  f"{case['elapsed_s']:7.1f}s  {status}")
        total = report["total"]
        print(f"total: {total['states_explored']} distinct states, "
              f"{total['states_pruned']} pruned, "
              f"{total['counterexamples']} counterexample(s)")
    if not report["converged"] and args.fixtures_dir:
        from pathlib import Path

        outdir = Path(args.fixtures_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for case in report["cases"]:
            for i, ce in enumerate(case["counterexamples"]):
                path = outdir / f"{ce['case']}-{i}.json"
                with open(path, "w") as fh:
                    json.dump(fixture_dict(ce, options), fh, indent=2)
                    fh.write("\n")
                if not args.json:
                    print(f"counterexample fixture written to {path}")
    return 0 if report["converged"] else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.nvm import diff_paths, inspect_path

    try:
        if args.diff:
            report = diff_paths(args.heap, args.diff)
        else:
            report = inspect_path(args.heap)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.shards is not None and not args.diff \
            and report.n_shards != args.shards:
        kind = (f"a {report.n_shards}-shard manifest" if report.manifest
                else "a plain (unsharded) heap file")
        print(f"{args.heap}: expected a {args.shards}-shard manifest, "
              f"found {kind}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    if args.diff:
        return 0 if report.identical else 1
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from repro.obs import read_telemetry_jsonl, render_sample

    def latest_sample() -> dict | None:
        try:
            docs = read_telemetry_jsonl(args.file)
        except FileNotFoundError:
            return None
        return docs[-1] if docs else None

    last_seq = None
    deadline = (None if args.duration is None
                else time.monotonic() + args.duration)
    try:
        while True:
            doc = latest_sample()
            if doc is not None and doc.get("seq") != last_seq:
                last_seq = doc.get("seq")
                print(render_sample(doc, top=args.top), flush=True)
                print(flush=True)
            if args.once:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    if last_seq is None:
        print(f"no samples in {args.file}", file=sys.stderr)
        return 1
    return 0


def _cmd_crash_test(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.harness import render_text, run_grid, write_report
    from repro.harness.scenarios import DEFAULT_ENGINES

    def progress(label: str) -> None:
        if not args.json:
            print(f"crash-test: {label}", flush=True)

    if args.serve:
        import json

        from repro.harness.serve import render_serve_text, run_serve_scenario

        trigger = args.trigger
        if trigger == "writebacks:6":  # the grid default is too eager
            trigger = "writebacks:150"
        report = run_serve_scenario(
            shards=args.shards,
            seed=args.seed,
            engine=args.engines[0] if args.engines else None,
            kill_trigger=trigger,
            timeout=args.timeout,
            telemetry_path=args.telemetry,
            artifacts_dir=args.artifacts,
            progress=progress,
        )
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            if not args.json:
                print(f"report written to {args.out}")
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_serve_text(report))
        return 0 if report["converged"] else 1

    previous = None
    recorder = None
    if args.telemetry:
        recorder = obs.Recorder(metrics=obs.MetricsRegistry())
        recorder.sampler = obs.TelemetrySampler(
            recorder.metrics,
            interval=args.telemetry_interval,
            jsonl_path=args.telemetry,
        )
        recorder.sampler.start()
        previous = obs.install(recorder)
    try:
        report = run_grid(
            workloads=args.workloads,
            engines=args.engines or DEFAULT_ENGINES,
            configs=args.configs,
            scale=args.scale,
            seed=args.seed,
            kill_rounds=args.rounds,
            trigger=args.trigger,
            cache_lines=args.cache_lines,
            timeout=args.timeout,
            progress=progress,
            kill_seed=args.kill_seed,
            trace_dir=args.trace,
            artifacts_dir=args.artifacts,
            shards=args.shards,
        )
    finally:
        if recorder is not None:
            recorder.sampler.stop()
            recorder.sampler.close()
            obs.install(previous)
    if args.telemetry and not args.json:
        print(f"telemetry stream written to {args.telemetry}")
    if args.out:
        write_report(report, args.out)
        if not args.json:
            print(f"report written to {args.out}")
    if args.json:
        import json

        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    return 0 if report["converged"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.make_experiments_md import main as make_md

    make_md(args.path)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal

    from repro import obs
    from repro.errors import ReproError
    from repro.service import KVServer, ServiceConfig

    config = ServiceConfig(
        capacity=args.capacity,
        engine=args.engine,
        cache_lines=args.cache_lines,
        config=args.config,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_cap=args.queue_cap,
    )
    address = args.socket if args.socket else (args.host, args.port)

    # The daemon counts into its own registry unless a recorder is
    # installed before it is built; only the streams need every layer's.
    want_metrics = bool(args.telemetry or args.prom)
    recorder = obs.Recorder(metrics=obs.MetricsRegistry()) \
        if want_metrics else None
    previous = obs.install(recorder) if recorder is not None else None
    try:
        server = KVServer(config, heap_path=args.heap,
                          shards=args.shards, address=address)
    except Exception as exc:
        if recorder is not None:
            obs.install(previous)
        if not isinstance(exc, ReproError):
            raise
        # Fail closed: an unreadable, damaged or contradicting heap is
        # a message and exit 2, like ``inspect``, not a traceback.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.kill_trigger:
        # Harness-internal: die with SIGKILL inside the armed
        # write-back window (or after N blocks / S seconds).
        server.install_kill_trigger(args.kill_trigger)
    if recorder is not None and args.telemetry:
        recorder.sampler = obs.TelemetrySampler(
            recorder.metrics,
            interval=args.telemetry_interval,
            jsonl_path=args.telemetry,
            gauge_providers=[server.publish_gauges],
        )
        recorder.sampler.start()

    def _on_signal(_signum, _frame):
        server.shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    server.start()
    bound = server.address
    rendered = bound if isinstance(bound, str) else f"{bound[0]}:{bound[1]}"
    if args.ready_file:
        # The harness waits on this marker; its content is the bound
        # address (TCP port 0 resolves here).
        with open(args.ready_file, "w") as fh:
            fh.write(rendered + "\n")
    resume = server.core.resume_info
    print(f"serving {server.core.backend()} store at {rendered} "
          f"(max_batch={config.max_batch}, "
          f"max_wait_ms={config.max_wait_ms}, "
          f"queue_cap={config.queue_cap})", flush=True)
    if resume["resumed"]:
        print(f"resumed: replayed {resume['replayed_launches']} "
              f"in-flight launch(es), recovered "
              f"{resume['recovered_blocks']} region(s), "
              f"{resume['torn_lines']} torn line(s)"
              + (", torn WAL record discarded (its window never launched)"
                 if resume["torn_wal"] else ""), flush=True)
    try:
        server.join()
    finally:
        if recorder is not None:
            if recorder.sampler is not None:
                recorder.sampler.stop()
                recorder.sampler.close()
            obs.install(previous)
    stats = server.stats()
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    if args.prom:
        from repro.obs import to_prometheus

        server.publish_gauges(recorder.metrics)
        with open(args.prom, "w") as fh:
            fh.write(to_prometheus(recorder.metrics_snapshot()))
    counters = stats["counters"]
    print(f"served {counters['acked']} request(s) in "
          f"{counters['windows']} window(s), shed {counters['shed']}; "
          "bye", flush=True)
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.service.bench import run

    return run(args.out, quick=args.quick, check=args.check)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    from repro.core.config import LP_CONFIGS
    from repro.gpu.engine import ENGINES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GPU Lazy Persistency reproduction (IISWC 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments",
                           help="run reproduction experiments")
    p_exp.add_argument("ids", nargs="*",
                       help="experiment ids (default: all)")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_wl = sub.add_parser("workloads", help="list benchmark workloads")
    p_wl.set_defaults(fn=_cmd_workloads)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("workload")
        p.add_argument("--scale", default="small",
                       choices=("tiny", "small", "medium"))
        p.add_argument("--config", default="global-array",
                       choices=tuple(LP_CONFIGS))
        p.add_argument("--crash-after", type=int, default=None,
                       metavar="N", help="crash after N blocks")
        p.add_argument("--cache-lines", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--engine", default="batched",
                       choices=tuple(ENGINES),
                       help="launch engine (both are bit-identical)")
        p.add_argument("--shards", type=int, default=0, metavar="N",
                       help="run against an N-shard mapped NVM heap "
                            "in a scratch directory (default: "
                            "in-memory shadow)")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a Chrome/Perfetto trace JSON file")
        p.add_argument("--metrics", default=None, metavar="FILE",
                       help="write the metrics snapshot as JSON")
        p.add_argument("--json", action="store_true",
                       help="print a structured JSON result document")

    p_run = sub.add_parser("run", help="run a workload under LP")
    add_run_args(p_run)
    p_run.add_argument("--telemetry", default=None, metavar="FILE",
                       help="stream periodic metric samples (counters, "
                            "rates, gauges, quantiles) to this JSONL "
                            "file from a background sampler")
    p_run.add_argument("--telemetry-interval", type=float, default=0.25,
                       metavar="S", help="sampling period in seconds "
                                         "(default 0.25)")
    p_run.add_argument("--prom", default=None, metavar="FILE",
                       help="write the final metrics in Prometheus "
                            "text exposition format")
    p_run.set_defaults(fn=_cmd_run)

    p_prof = sub.add_parser(
        "profile",
        help="run with the flight recorder on; print a per-phase "
             "time/traffic breakdown")
    add_run_args(p_prof)
    p_prof.set_defaults(fn=_cmd_profile)

    p_lint = sub.add_parser("lint", help="run the lplint static analyzer")
    p_lint.add_argument("targets", nargs="*",
                        help="'builtin', files (.cu/.cuh/.py), or "
                             "directories (default: builtin)")
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json"))
    p_lint.add_argument("--oracle", action="store_true",
                        help="cross-check builtin verdicts against the "
                             "dynamic re-execution oracle")
    p_lint.add_argument("--races", action="store_true",
                        help="cross-check the persistency race rules "
                             "(LP008-LP010) against a quick bounded "
                             "crash-state enumeration")
    p_lint.set_defaults(fn=_cmd_lint)

    p_mc = sub.add_parser(
        "mc",
        help="bounded crash-state model checker: enumerate reachable "
             "post-crash heap images and prove recovery converges on "
             "every one")
    p_mc.add_argument("--workloads", nargs="+", default=["spmv", "histo"],
                      help="workloads to check (default: spmv histo)")
    p_mc.add_argument("--budget", type=int, default=4000, metavar="N",
                      help="max candidate crash states per workload "
                           "(default 4000)")
    p_mc.add_argument("--engine", default="batched",
                      choices=tuple(ENGINES))
    p_mc.add_argument("--scale", default="small",
                      choices=("tiny", "small", "medium"))
    p_mc.add_argument("--config", default="global-array",
                      choices=tuple(LP_CONFIGS))
    p_mc.add_argument("--cache-lines", type=int, default=2,
                      help="write-back cache capacity; small values "
                           "maximize eviction events and therefore the "
                           "reachable crash-state space (default 2)")
    p_mc.add_argument("--seed", type=int, default=7)
    p_mc.add_argument("--out", default=None, metavar="FILE",
                      help="write the JSON report here")
    p_mc.add_argument("--json", action="store_true",
                      help="print the JSON report to stdout")
    p_mc.add_argument("--fixtures-dir", default="tests/fixtures/crashmc",
                      metavar="DIR",
                      help="where minimized counterexamples are "
                           "serialized (default tests/fixtures/crashmc)")
    p_mc.set_defaults(fn=_cmd_mc)

    p_ct = sub.add_parser(
        "crash-test",
        help="SIGKILL child processes against a durable mmap heap and "
             "prove recovery end to end")
    p_ct.add_argument("--workloads", nargs="+", default=["spmv", "tmm"],
                      help="workloads to kill (default: spmv tmm)")
    p_ct.add_argument("--engines", nargs="+", default=None,
                      choices=tuple(ENGINES),
                      help="launch engines to cover (default: "
                           "both; with --serve, the first one named, "
                           "or the daemon's own default)")
    p_ct.add_argument("--configs", nargs="+", default=["global-array"],
                      choices=tuple(LP_CONFIGS),
                      help="LP configs / checksum tables to cover")
    p_ct.add_argument("--scale", default="small",
                      choices=("tiny", "small", "medium"))
    p_ct.add_argument("--rounds", type=int, default=2, metavar="N",
                      help="kill rounds per cell: 1 mid-launch kill + "
                           "N-1 mid-recovery re-kills (default 2)")
    p_ct.add_argument("--trigger", default="writebacks:6",
                      help="kill trigger: writebacks:N | blocks:N | "
                           "walltime:SECONDS (default writebacks:6)")
    p_ct.add_argument("--cache-lines", type=int, default=4,
                      help="write-back cache capacity (small values "
                           "make kills lose more)")
    p_ct.add_argument("--seed", type=int, default=0)
    p_ct.add_argument("--kill-seed", type=int, default=None, metavar="N",
                      help="derive each round's kill threshold from a "
                           "deterministic per-cell stream seeded here, "
                           "instead of the fixed --trigger threshold; "
                           "per-round triggers land in the JSON report "
                           "for exact replay")
    p_ct.add_argument("--shards", type=int, default=0, metavar="N",
                      help="run every cell against an N-shard heap; "
                           "the launch round becomes a shard-kill "
                           "round (die inside one shard's armed "
                           "journal while the others stay clean)")
    p_ct.add_argument("--timeout", type=float, default=120.0,
                      help="per-child deadline in seconds")
    p_ct.add_argument("--out", default=None, metavar="FILE",
                      help="write the JSON report here")
    p_ct.add_argument("--json", action="store_true",
                      help="print the JSON report to stdout")
    p_ct.add_argument("--trace", default=None, metavar="DIR",
                      help="export each child round's flight-recorder "
                           "trace as JSONL into this directory (the "
                           "stream survives the SIGKILL)")
    p_ct.add_argument("--artifacts", default=None, metavar="DIR",
                      help="copy each cell's post-kill heap image "
                           "(armed journal intact) into this directory "
                           "for later 'repro inspect'")
    p_ct.add_argument("--telemetry", default=None, metavar="FILE",
                      help="stream periodic metric samples to this "
                           "JSONL file while the grid runs")
    p_ct.add_argument("--telemetry-interval", type=float, default=0.25,
                      metavar="S",
                      help="sampling period in seconds (default 0.25)")
    p_ct.add_argument("--serve", action="store_true",
                      help="run the KV-daemon scenario instead of the "
                           "workload grid: SIGKILL the daemon mid-batch "
                           "under live client load, restart it on the "
                           "same heap, and prove every acked write "
                           "survives (honors --shards/--seed/--timeout/"
                           "--trigger/--telemetry/--out/--json)")
    p_ct.set_defaults(fn=_cmd_crash_test)

    p_ins = sub.add_parser(
        "inspect",
        help="decode a heap file read-only: header, armed journal, "
             "directory, occupancy, torn-line diagnosis")
    p_ins.add_argument("heap", help="path to a .lpnv heap file or a "
                                    "shard manifest")
    p_ins.add_argument("--diff", default=None, metavar="OTHER",
                       help="compare against a second heap of the same "
                            "layout, manifest then extent by extent, "
                            "line-by-line (exit 1 when they differ)")
    p_ins.add_argument("--shards", type=int, default=None, metavar="N",
                       help="require the target to be an N-shard "
                            "manifest, 0 a plain heap file (exit 2 "
                            "otherwise)")
    p_ins.add_argument("--json", action="store_true",
                       help="print the report as JSON (validated by "
                            "heap_inspect.schema.json)")
    p_ins.set_defaults(fn=_cmd_inspect)

    p_watch = sub.add_parser(
        "watch",
        help="live view of a telemetry JSONL stream written by "
             "'run --telemetry' / 'crash-test --telemetry'")
    p_watch.add_argument("file", help="telemetry JSONL file to tail")
    p_watch.add_argument("--interval", type=float, default=1.0,
                         metavar="S", help="poll period (default 1s)")
    p_watch.add_argument("--once", action="store_true",
                         help="render the newest sample and exit")
    p_watch.add_argument("--duration", type=float, default=None,
                         metavar="S", help="stop after S seconds "
                                           "(default: until Ctrl-C)")
    p_watch.add_argument("--top", type=int, default=12,
                         help="series shown per section (default 12)")
    p_watch.set_defaults(fn=_cmd_watch)

    p_srv = sub.add_parser(
        "serve",
        help="run the persistent MegaKV daemon (GET/PUT/DELETE over a "
             "socket, batched into LP-protected launches)")
    p_srv.add_argument("--heap", default=None, metavar="FILE",
                       help="durable heap path; created if missing, "
                            "cold-opened + recovered if present "
                            "(omit for a volatile in-memory store)")
    p_srv.add_argument("--shards", type=int, default=0, metavar="N",
                       help="back the store with an N-shard heap")
    p_srv.add_argument("--socket", default=None, metavar="PATH",
                       help="listen on a Unix socket at PATH "
                            "(default: TCP on --host/--port)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; see --ready-file)")
    p_srv.add_argument("--capacity", type=int, default=8192,
                       help="store record capacity (slots are 8x)")
    p_srv.add_argument("--engine", default="batched",
                       choices=tuple(ENGINES),
                       help="launch engine (default batched: each "
                            "MegaKV launch runs as one vectorized "
                            "pass; serial is the per-request "
                            "reference; both are bit-identical)")
    p_srv.add_argument("--cache-lines", type=int, default=256)
    p_srv.add_argument("--config", default="global-array",
                       choices=tuple(LP_CONFIGS))
    p_srv.add_argument("--max-batch", type=int, default=128,
                       help="flush the batching window at this many "
                            "requests")
    p_srv.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="... or when the previous window's acks "
                            "have all been answered, and at most this "
                            "many ms after its first one")
    p_srv.add_argument("--queue-cap", type=int, default=1024,
                       help="admission-control bound; beyond it "
                            "requests are shed")
    p_srv.add_argument("--ready-file", default=None, metavar="FILE",
                       help="write the bound address here once serving")
    p_srv.add_argument("--stats", default=None, metavar="FILE",
                       help="write the final stats JSON here on exit")
    p_srv.add_argument("--telemetry", default=None, metavar="FILE",
                       help="stream periodic metric samples (queue "
                            "depth, occupancy, sheds) to this JSONL")
    p_srv.add_argument("--telemetry-interval", type=float, default=0.25,
                       metavar="S")
    p_srv.add_argument("--prom", default=None, metavar="FILE",
                       help="write a Prometheus exposition on exit")
    p_srv.add_argument("--kill-trigger", default=None, metavar="SPEC",
                       help=argparse.SUPPRESS)  # harness-internal
    p_srv.set_defaults(fn=_cmd_serve)

    p_bsrv = sub.add_parser(
        "bench-serve",
        help="measure service p50/p99 latency and QPS into "
             "BENCH_serve.json")
    p_bsrv.add_argument("--out", default="BENCH_serve.json")
    p_bsrv.add_argument("--quick", action="store_true",
                        help="smaller request counts (CI smoke)")
    p_bsrv.add_argument("--check", action="store_true",
                        help="exit non-zero when a gate fails")
    p_bsrv.set_defaults(fn=_cmd_bench_serve)

    p_rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_rep.add_argument("path", nargs="?", default=None)
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: run declarative scenarios, tables and figures.

Usage (after ``pip install -e .``)::

    python -m repro list
    python -m repro run examples/scenarios/zipf_ablation.json
    python -m repro run --components
    python -m repro table1
    python -m repro figure3 --k 10 50 100 --eta 0.1 0.0001
    python -m repro figure8 --stream-size 20000 --trials 2
    python -m repro figure12 --scale 0.01
    python -m repro worker serve --listen 0.0.0.0:7333 --auth-token-file tok
    python -m repro serve --listen 0.0.0.0:7911 --auth-token-file tok
    python -m repro loadgen --server localhost:7911 --auth-token-file tok

``repro run`` is the general entry point: it executes any experiment
declared as a JSON :class:`~repro.scenarios.spec.ScenarioSpec` through the
:class:`~repro.scenarios.runner.ScenarioRunner` (the batch-driven execution
path everything else is an adapter over).  The figure sub-commands print the
same rows/series the corresponding benchmark prints, using the drivers in
:mod:`repro.experiments.figures`; simulation figures accept their main size
parameters so they can be run anywhere between "seconds on a laptop" and the
paper's full scale.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.experiments import figures
from repro.experiments.reporting import format_series, format_table


def _telemetry_context(active: bool):
    """Return a context manager yielding a fresh registry (or ``None``).

    Used by the subcommands that expose telemetry (``run --telemetry-out``,
    ``throughput --json``): the workload runs inside the context, and the
    yielded registry's snapshot is what gets written/printed.
    """
    if not active:
        return nullcontext(None)
    from repro import telemetry

    return telemetry.enabled(telemetry.MetricsRegistry())


def _write_telemetry(path: str, registry) -> None:
    """Write a registry snapshot as JSON and note it on stderr."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"telemetry snapshot written to {path}", file=sys.stderr)


def _add_engine_arguments(parser: argparse.ArgumentParser, *,
                          backend: Optional[str] = None,
                          shards: Optional[int] = None,
                          token_flag: str = "--auth-token-file",
                          autoscale: bool = True) -> None:
    """Add the execution-engine flags ``run``, ``throughput`` and ``serve``
    share (each command passes its own defaults)."""
    from repro.engine.backends import BACKENDS

    parser.add_argument("--backend", choices=list(BACKENDS), default=backend,
                        help="execution backend of the sharded ensemble "
                             "(results are bit-identical per seed)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes/connections of the process "
                             "and socket backends (default: one per shard, "
                             "capped at the core count)")
    parser.add_argument("--shards", type=int, default=shards,
                        help="shard count of the hash-partitioned ensemble")
    parser.add_argument("--endpoints", default=None,
                        help="comma-separated host:port list of running "
                             "`repro worker serve` instances (socket "
                             "backend; omitted, supervised localhost "
                             "workers are spawned)")
    parser.add_argument(token_flag, dest="worker_token_file", default=None,
                        help="file holding the shared worker auth token "
                             "(socket backend with --endpoints)")
    if autoscale:
        parser.add_argument("--autoscale", nargs="?", const=True,
                            default=None, metavar="JSON",
                            help="enable load-triggered worker autoscaling "
                                 "on the process/socket backends; bare flag "
                                 "uses the default policy, or pass a JSON "
                                 "object with min_workers/max_workers/"
                                 "target_load_per_worker/check_every/"
                                 "imbalance_ratio (results stay "
                                 "bit-identical per seed)")


def _engine_options(arguments: argparse.Namespace) -> Dict[str, object]:
    """The engine flags that were given, as ``EngineSpec`` fields."""
    options: Dict[str, object] = {
        "backend": arguments.backend,
        "workers": arguments.workers,
        "shards": arguments.shards,
        "auth_token_file": arguments.worker_token_file,
    }
    if arguments.endpoints is not None:
        options["endpoints"] = [entry.strip()
                                for entry in arguments.endpoints.split(",")
                                if entry.strip()]
    autoscale = getattr(arguments, "autoscale", None)
    if autoscale is not None and autoscale is not True:
        try:
            autoscale = json.loads(autoscale)
        except json.JSONDecodeError as error:
            raise SystemExit(
                f"--autoscale: expected a JSON policy object such as "
                f'\'{{"max_workers": 4}}\' ({error})') from None
    options["autoscale"] = autoscale
    return {key: value for key, value in options.items()
            if value is not None}


def _service_options(arguments: argparse.Namespace) -> Dict[str, object]:
    """The engine flags as :class:`ShardedSamplingService` keywords, checked
    before any work starts, with the worker token read from its file."""
    from repro.engine.backends import check_backend_options, load_auth_token

    options = _engine_options(arguments)
    token_file = options.pop("auth_token_file", None)
    check_backend_options(options["backend"], workers=options.get("workers"),
                          endpoints=options.get("endpoints"),
                          auth_token=token_file)
    if token_file is not None:
        options["auth_token"] = load_auth_token(token_file)
    return options


def _cmd_run(arguments: argparse.Namespace) -> None:
    """Execute a declarative scenario spec through the ScenarioRunner."""
    from repro.scenarios import (
        ScenarioError,
        ScenarioRunner,
        ScenarioSpec,
        available_components,
    )

    if arguments.components:
        for kind, keys in available_components().items():
            print(f"{kind}: {', '.join(keys)}")
        return
    if arguments.spec is None:
        raise SystemExit("repro run: a scenario JSON path is required "
                         "(or pass --components)")
    spec = ScenarioSpec.load(arguments.spec)
    overrides = {}
    if arguments.trials is not None:
        overrides["trials"] = arguments.trials
        if spec.sweep is not None and spec.sweep.trials is not None:
            # the sweep's per-point trial count would silently shadow the
            # explicit flag otherwise
            overrides["sweep"] = replace(spec.sweep, trials=arguments.trials)
    if arguments.seed is not None:
        overrides["seed"] = arguments.seed
    engine = _engine_options(arguments)
    if engine:
        # replace() re-runs the engine section's validation, so an override
        # that contradicts the spec (e.g. --workers on a serial backend)
        # fails with the same error a hand-written spec would
        try:
            overrides["engine"] = replace(spec.engine, **engine)
        except ScenarioError as error:
            raise SystemExit(f"repro run: {error}") from None
    if overrides:
        spec = replace(spec, **overrides)
    with _telemetry_context(arguments.telemetry_out is not None) as registry:
        if spec.sweep is not None:
            _run_sweep_spec(spec, arguments)
        elif arguments.sweep_summary:
            raise SystemExit("repro run: --sweep-summary needs a scenario "
                             "with a sweep section")
        else:
            result = ScenarioRunner(spec).run()
            if arguments.json:
                print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
            else:
                print(f"scenario: {result.name} ({result.mode} mode, "
                      f"seed={spec.seed}, trials={spec.trials})")
                print(format_table(result.summaries))
                if arguments.details:
                    print()
                    print(format_table(result.details))
        if registry is not None:
            _write_telemetry(arguments.telemetry_out, registry)


def _run_sweep_spec(spec, arguments: argparse.Namespace) -> None:
    """Execute a sweep-carrying scenario and print its family of results."""
    from repro.scenarios import ScenarioRunner

    sweep = ScenarioRunner(spec).run_sweep()
    if arguments.json:
        print(json.dumps(sweep.to_dict(), indent=2, sort_keys=True))
        return
    print(f"scenario sweep: {sweep.name} "
          f"({spec.mode} mode, axis {sweep.parameter}, "
          f"{len(sweep.points)} points, seed={spec.seed})")
    if arguments.sweep_summary:
        print(format_table(sweep.summary_rows()))
        return
    for point in sweep.points:
        print()
        print(f"{sweep.label} = {point.value}")
        print(format_table(point.result.summaries))
        if arguments.details:
            print()
            print(format_table(point.result.details))


def _cmd_throughput(arguments: argparse.Namespace) -> None:
    """Compare the scalar, batch and sharded drivers on one Zipf stream.

    Also checks what it times: ``exact`` reports whether the batch outputs
    over the scalar run's prefix equal the scalar outputs, and the command
    exits with status 1 when they do not.  ``kernel`` names the Algorithm 3
    chunk kernel the batch and sharded drivers ran: ``compiled``, or
    ``numpy`` where the compiled one could not be built.
    """
    import numpy as np

    from repro.core import KnowledgeFreeStrategy, chunk_kernel
    from repro.engine import (
        ShardedSamplingService,
        run_stream,
        run_stream_scalar,
    )
    from repro.streams import zipf_stream

    try:
        engine = _service_options(arguments)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro throughput: {error}") from None
    stream = zipf_stream(arguments.stream_size, arguments.population_size,
                         alpha=arguments.alpha, random_state=arguments.seed)

    def make_strategy():
        return KnowledgeFreeStrategy(
            arguments.memory_size,
            sketch_width=arguments.sketch_width,
            sketch_depth=arguments.sketch_depth,
            random_state=arguments.seed,
        )

    # --json runs with telemetry enabled, so the machine-readable report
    # carries the engine/backend metrics alongside the throughput tiers
    with _telemetry_context(arguments.json) as registry:
        scalar_limit = min(arguments.scalar_limit, stream.size)
        scalar = run_stream_scalar(make_strategy(),
                                   stream.identifiers[:scalar_limit])
        batch = run_stream(make_strategy(), stream,
                           batch_size=arguments.batch_size)
        sharded_service = ShardedSamplingService.knowledge_free(
            memory_size=arguments.memory_size,
            sketch_width=arguments.sketch_width,
            sketch_depth=arguments.sketch_depth,
            random_state=arguments.seed,
            **engine,
        )
        try:
            sharded = run_stream(sharded_service, stream,
                                 batch_size=arguments.batch_size)
        finally:
            sharded_service.close()
    # the batch kernel must reproduce the per-element reference exactly
    exact = bool(np.array_equal(batch.outputs[:scalar_limit],
                                scalar.outputs))
    kernel = chunk_kernel.kernel_name()
    sharded_label = f"sharded x{arguments.shards}"
    if arguments.backend != "serial":
        sharded_label += (f" [{arguments.backend}"
                          f" w={sharded_service.backend.workers}]")

    rows = []
    for name, result in (("scalar", scalar), ("batch", batch),
                         (sharded_label, sharded)):
        rows.append({
            "driver": name,
            "elements": result.elements,
            "seconds": round(result.elapsed_seconds, 6),
            "elements_per_second": int(result.throughput),
            "vs_scalar": (round(result.throughput / scalar.throughput, 2)
                          if scalar.throughput else None),
        })
    if arguments.json:
        report = {
            "config": {
                "stream_size": stream.size,
                "population_size": arguments.population_size,
                "alpha": arguments.alpha,
                "batch_size": arguments.batch_size,
                "shards": arguments.shards,
                "backend": arguments.backend,
                "workers": sharded_service.backend.workers
                if arguments.backend != "serial" else None,
                "seed": arguments.seed,
            },
            "tiers": rows,
            "exact": exact,
            "kernel": kernel,
            "telemetry": registry.snapshot(),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        table_rows = [{
            "driver": row["driver"],
            "elements": row["elements"],
            "seconds": round(row["seconds"], 3),
            "elements/s": row["elements_per_second"],
            "vs scalar": (row["vs_scalar"] if row["vs_scalar"] is not None
                          else float("nan")),
            "exact": exact if row["driver"] == "batch" else "",
            "kernel": kernel if row["driver"] != "scalar" else "",
        } for row in rows]
        print(format_table(table_rows, columns=[
            "driver", "elements", "seconds", "elements/s", "vs scalar",
            "exact", "kernel"]))
    if not exact:
        raise SystemExit(1)


def _cmd_worker_serve(arguments: argparse.Namespace) -> None:
    """Host shard workers over TCP for the socket execution backend."""
    import signal

    from repro.engine.backends.socket import WorkerServer
    from repro.engine.backends.wire import load_auth_token, parse_endpoint

    try:
        host, port = parse_endpoint(arguments.listen, allow_port_zero=True)
    except ValueError as error:
        raise SystemExit(f"repro worker serve: {error}") from None
    try:
        token = load_auth_token(arguments.auth_token_file)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro worker serve: {error}") from None
    server = WorkerServer(host, port, token)

    def _terminate(signum, frame) -> None:
        # stop accepting; serve_forever returns, the drain below runs, and
        # the process exits 0 — docker-compose scale-down stays clean
        server.close()

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except (OSError, ValueError):  # pragma: no cover - non-main thread
        pass
    bound_host, bound_port = server.address
    print(f"worker server listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.close()
        server.drain(arguments.drain_timeout)


def _cmd_serve(arguments: argparse.Namespace) -> None:
    """Run the always-on sampling front-end until drained (SIGTERM)."""
    import asyncio
    import os
    import threading

    from repro.engine import ShardedSamplingService
    from repro.engine.backends.wire import load_auth_token, parse_endpoint
    from repro.serve.server import SamplingServer

    try:
        host, port = parse_endpoint(arguments.listen, allow_port_zero=True)
        token = load_auth_token(arguments.auth_token_file)
        build_kwargs = _service_options(arguments)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro serve: {error}") from None
    shards = build_kwargs.pop("shards")
    with _telemetry_context(arguments.telemetry_out is not None) as registry:
        state_file = arguments.state_file
        if state_file and os.path.exists(state_file):
            with open(state_file, "rb") as handle:
                blob = handle.read()
            service = ShardedSamplingService.restore(blob, **build_kwargs)
            print(f"restored sampler state from {state_file} "
                  f"({len(blob)} bytes, {service.shards} shards)",
                  file=sys.stderr)
        else:
            service = ShardedSamplingService.knowledge_free(
                shards, arguments.memory_size,
                sketch_width=arguments.sketch_width,
                sketch_depth=arguments.sketch_depth,
                random_state=arguments.seed, **build_kwargs)
        server = SamplingServer(
            service, token, host=host, port=port, state_file=state_file,
            queue_cap=arguments.queue_cap,
            connection_hwm=arguments.connection_hwm,
            retry_after=arguments.retry_after,
            registry=registry, install_signal_handlers=True)

        def announce() -> None:
            server.wait_ready()
            if server.address is not None:
                print(f"serving on {server.address[0]}:{server.address[1]}",
                      flush=True)

        threading.Thread(target=announce, daemon=True).start()
        report = asyncio.run(server.serve())
        if arguments.telemetry_out:
            _write_telemetry(arguments.telemetry_out, registry)
    print(json.dumps(report, indent=2, sort_keys=True))


def _cmd_loadgen(arguments: argparse.Namespace) -> None:
    """Replay a registered stream against a running ``repro serve``."""
    from repro.serve.loadgen import run_loadgen

    try:
        stream_params = (json.loads(arguments.stream_params)
                         if arguments.stream_params else {})
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"repro loadgen: --stream-params is not valid JSON: {error}"
        ) from None
    report = run_loadgen(
        arguments.server,
        auth_token_file=arguments.auth_token_file,
        stream=arguments.stream,
        stream_params=stream_params,
        stream_size=arguments.stream_size,
        population_size=arguments.population_size,
        connections=arguments.connections,
        batch_size=arguments.batch_size,
        seed=arguments.seed,
        max_retries=arguments.max_retries,
        drain=arguments.drain,
        bench_name=arguments.bench_name)
    if arguments.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    latency = report["ingest_latency"]
    print(f"ingested {report['elements']:,} elements in "
          f"{report['batches']} batches over "
          f"{report['config']['connections']} connections")
    print(f"throughput {report['elements_per_second']:,.0f} elements/s "
          f"({report['wall_seconds']:.2f}s wall)")
    print(f"ingest latency p50 {latency['p50_seconds'] * 1e3:.2f}ms  "
          f"p95 {latency['p95_seconds'] * 1e3:.2f}ms  "
          f"p99 {latency['p99_seconds'] * 1e3:.2f}ms")
    if report["backpressure_retries"]:
        print(f"backpressure retries: {report['backpressure_retries']}")
    server_info = report["server"]
    print(f"server: backend={server_info['backend']} "
          f"shards={server_info['shards']} "
          f"elements={server_info['elements']:,} "
          f"memory={server_info['memory_total']}")
    if "drain" in report:
        print(f"drained: {json.dumps(report['drain'], sort_keys=True)}")


def _cmd_fuzz(arguments: argparse.Namespace) -> None:
    """Differential fuzzing: random specs on several backends, compared."""
    import os

    from repro.fuzz import (
        DEFAULT_VARIANTS,
        VARIANTS,
        corpus_entry,
        generate_specs,
        replay_corpus_entry,
        run_differential,
    )

    if arguments.backends is None:
        variants = DEFAULT_VARIANTS
    else:
        variants = tuple(entry.strip()
                         for entry in arguments.backends.split(",")
                         if entry.strip())
        unknown = [name for name in variants if name not in VARIANTS]
        if unknown:
            raise SystemExit(
                f"repro fuzz: unknown backend variant(s) "
                f"{', '.join(unknown)}; "
                f"expected any of {', '.join(sorted(VARIANTS))}")

    def progress(index: int, spec) -> None:
        print(f"[{index + 1}] {spec.name}", file=sys.stderr)

    reporter = progress if not arguments.json else None
    if arguments.replay:
        reports = []
        for path in arguments.replay:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if reporter is not None:
                print(f"replaying {path}", file=sys.stderr)
            reports.append((path, replay_corpus_entry(entry)))
        divergences = [(path, d) for path, report in reports
                       for d in report.divergences]
        if arguments.json:
            print(json.dumps({
                "replayed": [path for path, _ in reports],
                "divergences": [
                    {"corpus": path, "spec": d.spec.name, "reason": d.reason}
                    for path, d in divergences],
            }, indent=2, sort_keys=True))
        else:
            for path, d in divergences:
                print(f"DIVERGENCE in {path}: {d.reason}")
            print(f"replayed {len(reports)} corpus entr"
                  f"{'y' if len(reports) == 1 else 'ies'}: "
                  f"{len(divergences)} divergence(s)")
        if divergences:
            raise SystemExit(1)
        return

    specs = generate_specs(arguments.specs, arguments.seed)
    report = run_differential(specs, variants=variants, progress=reporter)
    written = []
    if report.divergences:
        os.makedirs(arguments.corpus_dir, exist_ok=True)
        found_by = (f"repro fuzz --specs {arguments.specs} "
                    f"--seed {arguments.seed}")
        for d in report.divergences:
            path = os.path.join(arguments.corpus_dir,
                                f"{d.spec.name}_{d.diverged}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(corpus_entry(d, found_by=found_by), handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
            written.append(path)
    if arguments.json:
        print(json.dumps({
            "checked": report.checked,
            "variants": list(report.variants),
            "ok": report.ok,
            "divergences": [{"spec": d.spec.name, "reason": d.reason}
                            for d in report.divergences],
            "corpus_written": written,
        }, indent=2, sort_keys=True))
    else:
        for d in report.divergences:
            print(f"DIVERGENCE: {d.spec.name}: {d.reason}")
        for path in written:
            print(f"divergent spec written to {path}", file=sys.stderr)
        print(f"checked {report.checked} spec(s) across "
              f"{', '.join(report.variants)}: "
              f"{'all identical' if report.ok else str(len(report.divergences)) + ' divergence(s)'}")
    if not report.ok:
        raise SystemExit(1)


def _print_series(series, x_label: str) -> None:
    print(format_series(series, x_label=x_label))


def _cmd_table1(arguments: argparse.Namespace) -> None:
    print(format_table(figures.table1(), float_format="{:.4g}"))


def _cmd_table2(arguments: argparse.Namespace) -> None:
    print(format_table(figures.table2(scale=arguments.scale)))


def _cmd_figure3(arguments: argparse.Namespace) -> None:
    series = figures.figure3(k_values=arguments.k, s=arguments.s,
                             etas=arguments.eta)
    _print_series(series, "k")


def _cmd_figure4(arguments: argparse.Namespace) -> None:
    series = figures.figure4(k_values=arguments.k, etas=arguments.eta)
    _print_series(series, "k")


def _cmd_figure5(arguments: argparse.Namespace) -> None:
    series = figures.figure5(scale=arguments.scale)
    _print_series(series, "rank")


def _cmd_figure6(arguments: argparse.Namespace) -> None:
    result = figures.figure6(stream_size=arguments.stream_size,
                             population_size=arguments.population_size,
                             random_state=arguments.seed)
    rows = []
    for index, checkpoint in enumerate(result["checkpoints"]):
        rows.append({
            "elements": checkpoint,
            "input max": result["input"]["max_frequency"][index],
            "knowledge-free max": result["knowledge-free"]["max_frequency"][index],
            "omniscient max": result["omniscient"]["max_frequency"][index],
        })
    print(format_table(rows))


def _cmd_figure7(arguments: argparse.Namespace) -> None:
    driver = figures.figure7a if arguments.variant == "a" else figures.figure7b
    result = driver(stream_size=arguments.stream_size,
                    population_size=arguments.population_size,
                    random_state=arguments.seed)
    rows = []
    for name in ("input", "knowledge-free", "omniscient"):
        row = dict(result[name])
        row["stream"] = name
        rows.append(row)
    print(format_table(rows, columns=["stream", "max", "mean", "std",
                                      "distinct"]))
    print(f"\ninput KL to uniform:          {result['input_divergence']:.4f}")
    print(f"knowledge-free KL to uniform: {result['knowledge_free_divergence']:.4f}")
    print(f"omniscient KL to uniform:     {result['omniscient_divergence']:.4f}")


def _cmd_figure8(arguments: argparse.Namespace) -> None:
    series = figures.figure8(population_sizes=arguments.n,
                             stream_size=arguments.stream_size,
                             trials=arguments.trials,
                             random_state=arguments.seed)
    _print_series(series, "n")


def _cmd_figure9(arguments: argparse.Namespace) -> None:
    series = figures.figure9(stream_sizes=arguments.m,
                             population_size=arguments.population_size,
                             trials=arguments.trials,
                             random_state=arguments.seed)
    _print_series(series, "m")


def _cmd_figure10(arguments: argparse.Namespace) -> None:
    driver = figures.figure10a if arguments.variant == "a" else figures.figure10b
    series = driver(memory_sizes=arguments.c,
                    stream_size=arguments.stream_size,
                    population_size=arguments.population_size,
                    trials=arguments.trials,
                    random_state=arguments.seed)
    _print_series(series, "c")


def _cmd_figure11(arguments: argparse.Namespace) -> None:
    series = figures.figure11(malicious_counts=arguments.l,
                              stream_size=arguments.stream_size,
                              population_size=arguments.population_size,
                              trials=arguments.trials,
                              random_state=arguments.seed)
    _print_series(series, "l")


def _cmd_figure12(arguments: argparse.Namespace) -> None:
    rows = figures.figure12(scale=arguments.scale, trials=arguments.trials,
                            random_state=arguments.seed)
    print(format_table(rows))


def _add_common_simulation_arguments(parser: argparse.ArgumentParser, *,
                                     stream_size: int = 20_000,
                                     population_size: int = 1_000) -> None:
    parser.add_argument("--stream-size", type=int, default=stream_size,
                        help="number of identifiers in the input stream (m)")
    parser.add_argument("--population-size", type=int, default=population_size,
                        help="number of distinct identifiers (n)")
    parser.add_argument("--trials", type=int, default=2,
                        help="independent repetitions per point")
    parser.add_argument("--seed", type=int, default=2013,
                        help="master random seed")


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the DSN 2013 "
                    "uniform-node-sampling paper.",
    )
    parser.add_argument("--log-level", default=None,
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="enable logging at this level (supervisor "
                             "lifecycle events — worker re-spawns, "
                             "reconnects — log at WARNING)")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the available experiments")

    run = subparsers.add_parser(
        "run",
        help="execute a declarative scenario from a JSON spec file")
    run.add_argument("spec", nargs="?", default=None,
                     help="path to a scenario JSON file "
                          "(see examples/scenarios/)")
    run.add_argument("--trials", type=int, default=None,
                     help="override the spec's trial count")
    run.add_argument("--seed", type=int, default=None,
                     help="override the spec's master seed")
    run.add_argument("--json", action="store_true",
                     help="print the full result as JSON instead of tables")
    run.add_argument("--details", action="store_true",
                     help="also print the per-trial / per-node rows")
    run.add_argument("--sweep-summary", action="store_true",
                     help="condense a sweep into one row per (value, "
                          "strategy) instead of one block per point")
    _add_engine_arguments(run)
    run.add_argument("--telemetry-out", default=None, metavar="FILE",
                     help="run with telemetry enabled and write the metrics "
                          "snapshot (counters, gauges, histograms — "
                          "including worker-side registries) as JSON to "
                          "FILE; results stay bit-identical per seed")
    run.add_argument("--components", action="store_true",
                     help="list the registered scenario components and exit")
    run.set_defaults(handler=_cmd_run)

    table1 = subparsers.add_parser("table1", help="Table I: L_{k,s} and E_k")
    table1.set_defaults(handler=_cmd_table1)

    table2 = subparsers.add_parser("table2", help="Table II: trace statistics")
    table2.add_argument("--scale", type=float, default=0.01)
    table2.set_defaults(handler=_cmd_table2)

    figure3 = subparsers.add_parser("figure3", help="L_{k,s} vs k")
    figure3.add_argument("--k", type=int, nargs="+",
                         default=[10, 50, 100, 250, 500])
    figure3.add_argument("--s", type=int, default=10)
    figure3.add_argument("--eta", type=float, nargs="+",
                         default=[0.5, 1e-2, 1e-4, 1e-6])
    figure3.set_defaults(handler=_cmd_figure3)

    figure4 = subparsers.add_parser("figure4", help="E_k vs k")
    figure4.add_argument("--k", type=int, nargs="+",
                         default=[10, 50, 100, 250])
    figure4.add_argument("--eta", type=float, nargs="+",
                         default=[0.5, 1e-1, 1e-4, 1e-6])
    figure4.set_defaults(handler=_cmd_figure4)

    figure5 = subparsers.add_parser("figure5",
                                    help="trace rank/frequency profiles")
    figure5.add_argument("--scale", type=float, default=0.02)
    figure5.set_defaults(handler=_cmd_figure5)

    figure6 = subparsers.add_parser("figure6",
                                    help="frequency distribution over time")
    _add_common_simulation_arguments(figure6, stream_size=20_000)
    figure6.set_defaults(handler=_cmd_figure6)

    figure7 = subparsers.add_parser("figure7",
                                    help="frequency vs identifier under attack")
    figure7.add_argument("variant", choices=["a", "b"],
                         help="a: peak attack, b: targeted + flooding")
    _add_common_simulation_arguments(figure7, stream_size=30_000)
    figure7.set_defaults(handler=_cmd_figure7)

    figure8 = subparsers.add_parser("figure8", help="gain vs population size")
    figure8.add_argument("--n", type=int, nargs="+",
                         default=[10, 100, 500, 1000])
    _add_common_simulation_arguments(figure8)
    figure8.set_defaults(handler=_cmd_figure8)

    figure9 = subparsers.add_parser("figure9", help="gain vs stream size")
    figure9.add_argument("--m", type=int, nargs="+",
                         default=[5_000, 15_000, 50_000])
    _add_common_simulation_arguments(figure9)
    figure9.set_defaults(handler=_cmd_figure9)

    figure10 = subparsers.add_parser("figure10", help="gain vs memory size")
    figure10.add_argument("variant", choices=["a", "b"],
                          help="a: peak attack, b: targeted + flooding")
    figure10.add_argument("--c", type=int, nargs="+", default=[10, 100, 400])
    _add_common_simulation_arguments(figure10)
    figure10.set_defaults(handler=_cmd_figure10)

    figure11 = subparsers.add_parser("figure11",
                                     help="gain vs number of malicious ids")
    figure11.add_argument("--l", type=int, nargs="+",
                          default=[10, 50, 100, 500])
    _add_common_simulation_arguments(figure11, stream_size=60_000)
    figure11.set_defaults(handler=_cmd_figure11)

    throughput = subparsers.add_parser(
        "throughput",
        help="benchmark the scalar / batch / sharded streaming drivers")
    throughput.add_argument("--stream-size", type=int, default=200_000)
    throughput.add_argument("--population-size", type=int, default=50_000)
    throughput.add_argument("--alpha", type=float, default=1.1,
                            help="Zipf bias of the benchmark stream")
    throughput.add_argument("--memory-size", type=int, default=50)
    throughput.add_argument("--sketch-width", type=int, default=200)
    throughput.add_argument("--sketch-depth", type=int, default=5)
    throughput.add_argument("--batch-size", type=int, default=8192)
    _add_engine_arguments(throughput, backend="serial", shards=4,
                          autoscale=False)
    throughput.add_argument("--scalar-limit", type=int, default=100_000,
                            help="cap on elements fed to the slow "
                                 "per-element reference driver")
    throughput.add_argument("--seed", type=int, default=2013)
    throughput.add_argument("--json", action="store_true",
                            help="print a machine-readable report (config, "
                                 "throughput tiers, telemetry snapshot) "
                                 "instead of the table; the run executes "
                                 "with telemetry enabled")
    throughput.set_defaults(handler=_cmd_throughput)

    figure12 = subparsers.add_parser("figure12", help="KL divergence on traces")
    figure12.add_argument("--scale", type=float, default=0.01)
    figure12.add_argument("--trials", type=int, default=1)
    figure12.add_argument("--seed", type=int, default=2013)
    figure12.set_defaults(handler=_cmd_figure12)

    worker = subparsers.add_parser(
        "worker",
        help="worker-side commands of the socket execution backend")
    worker_commands = worker.add_subparsers(dest="worker_command",
                                            required=True)
    serve = worker_commands.add_parser(
        "serve",
        help="host shard workers over TCP until interrupted")
    serve.add_argument("--listen", default="127.0.0.1:0",
                       help="HOST:PORT to listen on (port 0 picks a free "
                            "port, printed at startup)")
    serve.add_argument("--auth-token-file", required=True,
                       help="file holding the shared token clients must "
                            "present")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight worker sessions "
                            "to finish after SIGTERM before force-closing")
    serve.set_defaults(handler=_cmd_worker_serve)

    serving = subparsers.add_parser(
        "serve",
        help="run the always-on sampling service until drained")
    serving.add_argument("--listen", default="127.0.0.1:7911",
                         help="HOST:PORT to listen on (port 0 picks a free "
                              "port, printed at startup)")
    serving.add_argument("--auth-token-file", required=True,
                         help="file holding the shared token clients must "
                              "present")
    serving.add_argument("--state-file", default=None,
                         help="drain snapshot path; restored at startup "
                              "when it exists, so a restart resumes with "
                              "an identical sampler")
    _add_engine_arguments(serving, backend="serial", shards=4,
                          token_flag="--worker-auth-token-file")
    serving.add_argument("--memory-size", type=int, default=50)
    serving.add_argument("--sketch-width", type=int, default=10)
    serving.add_argument("--sketch-depth", type=int, default=5)
    serving.add_argument("--seed", type=int, default=2013)
    serving.add_argument("--queue-cap", type=int, default=256,
                         help="global in-flight cap; past it, ingests are "
                              "rejected with a retry-after hint")
    serving.add_argument("--connection-hwm", type=int, default=8,
                         help="per-connection in-flight high-water mark")
    serving.add_argument("--retry-after", type=float, default=0.05,
                         help="retry hint (seconds) sent with backpressure "
                              "rejections")
    serving.add_argument("--telemetry-out", default=None, metavar="PATH",
                         help="write the server's telemetry snapshot as "
                              "JSON on drain")
    serving.set_defaults(handler=_cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="replay a registered stream against a running repro serve")
    loadgen.add_argument("--server", required=True,
                         help="HOST:PORT of the repro serve front-end")
    loadgen.add_argument("--auth-token-file", required=True,
                         help="file holding the shared client token")
    loadgen.add_argument("--stream", default="zipf",
                         help="registered stream component to replay")
    loadgen.add_argument("--stream-params", default=None, metavar="JSON",
                         help="extra stream parameters as a JSON object")
    loadgen.add_argument("--stream-size", type=int, default=50_000)
    loadgen.add_argument("--population-size", type=int, default=5_000)
    loadgen.add_argument("--connections", type=int, default=4)
    loadgen.add_argument("--batch-size", type=int, default=2_048)
    loadgen.add_argument("--seed", type=int, default=2013)
    loadgen.add_argument("--max-retries", type=int, default=16,
                         help="per-batch backpressure retry budget")
    loadgen.add_argument("--drain", action="store_true",
                         help="ask the server to drain after the run")
    loadgen.add_argument("--json", action="store_true",
                         help="print the full report as JSON")
    loadgen.add_argument("--bench-name", default="serve",
                         help="BENCH_<name>.json record name (with "
                              "BENCH_JSON_DIR set)")
    loadgen.set_defaults(handler=_cmd_loadgen)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing: run random scenario specs on several "
             "backends and fail on any output divergence")
    fuzz.add_argument("--specs", type=int, default=20,
                      help="number of random specs to generate and check")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="seed of the spec generator (same --specs/--seed "
                           "always reproduces the same sweep)")
    fuzz.add_argument("--backends", default=None,
                      help="comma-separated backend variants to compare "
                           "(default serial,process,socket)")
    fuzz.add_argument("--replay", nargs="+", default=None, metavar="ENTRY",
                      help="replay corpus entry JSON files instead of "
                           "generating specs (see tests/fuzz_corpus/)")
    fuzz.add_argument("--corpus-dir", default="tests/fuzz_corpus",
                      help="directory where divergent specs are written in "
                           "corpus format")
    fuzz.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    fuzz.set_defaults(handler=_cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro``."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.log_level is not None:
        logging.basicConfig(
            level=getattr(logging, arguments.log_level),
            format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    if arguments.command is None:
        parser.print_help()
        return 1
    if arguments.command == "list":
        for name in ("run <scenario.json>", "table1", "table2", "figure3",
                     "figure4", "figure5", "figure6", "figure7 a|b",
                     "figure8", "figure9", "figure10 a|b", "figure11",
                     "figure12", "throughput", "worker serve", "serve",
                     "loadgen", "fuzz"):
            print(name)
        return 0
    arguments.handler(arguments)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

"""Command-line interface for the GOSH reproduction.

Eleven subcommands cover the day-to-day workflow of the original tool plus
the serving side:

* ``repro-gosh embed``    — embed an edge-list file (or a named synthetic
  twin) with any registered tool and save the matrix as ``.npy`` (and, with
  ``--save``, as a versioned entry in the embedding store).
* ``repro-gosh coarsen``  — run MultiEdgeCollapse and print the per-level
  statistics (a Table 4/5-style report).
* ``repro-gosh evaluate`` — run the full link-prediction pipeline around a
  chosen tool and print the AUCROC.
* ``repro-gosh export``   — list / export / garbage-collect stored embedding
  versions (the :mod:`repro.store` surface).
* ``repro-gosh query``    — k-NN similarity queries over a stored embedding,
  embedding-and-saving first when the store has no entry yet (the
  :mod:`repro.query` surface via ``EmbeddingService.query``).
* ``repro-gosh serve``    — run the resident NDJSON query server over a
  graph (admission control, request timestamping, microbatched serving;
  the :mod:`repro.serve` surface); ``--http-port`` adds the stdlib
  HTTP/1.1 front (``POST /query`` / ``GET /stats`` / ``GET /metrics`` /
  ``GET /ping``).
* ``repro-gosh route``    — run a shard router over N spawned in-process
  shard servers (``--shards``) or externally started ones
  (``--backend-address``), merging per-shard top-k bit-exactly
  (the :mod:`repro.serve.router` surface).
* ``repro-gosh stats``    — poll a running server's stats verb and print the
  snapshot as pretty JSON or (``--metrics``) Prometheus text (the
  :mod:`repro.obs` surface).
* ``repro-gosh load``     — drive one or more running servers with N
  concurrent closed- or open-loop clients and report merged p50/p95/p99
  latency, queries/s, and rejection rate with a per-address breakdown
  (the :mod:`repro.loadgen` surface).
* ``repro-gosh tools``    — list the registered embedding tools.
* ``repro-gosh datasets`` — list the registered synthetic twins (Table 2).

The CLI is intentionally thin: every subcommand is a short wrapper over the
public library API — tools are resolved exclusively through the
:mod:`repro.api` registry — so that scripts remain the primary interface.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from .api import EmbeddingService, UnknownToolError, get_tool, tool_descriptions
from .coarsening import multi_edge_collapse, parallel_multi_edge_collapse, summarize
from .eval import run_link_prediction
from .graph import CSRGraph, read_edge_list
from .gpu import DeviceSpec, SimulatedDevice
from .harness import dataset_names, load_dataset, paper_table2_rows, print_table
from .query import METRICS
from .store import EmbeddingStore, StoreError

__all__ = ["main", "build_parser"]

#: Default root of the on-disk embedding store used by --save/export/query.
DEFAULT_STORE_DIR = "embeddings"

#: Exit code for a run killed by a deterministic injected fault (EX_SOFTWARE).
EXIT_INJECTED_FAULT = 70


@contextlib.contextmanager
def _graceful_stop():
    """Install SIGTERM/SIGINT handlers that request a cooperative stop.

    Yields ``(stop_event, received_signals)``: handlers set the event and
    record the signal number instead of killing the process, so the command
    can drain (serve/route) or write a final checkpoint (embed) and exit
    with ``128 + signum``.  Handlers are only installable from the main
    thread; elsewhere (tests driving ``main()`` from a worker) the event
    still works, signals just keep their default behaviour.  Previous
    handlers are restored on exit.
    """
    stop = threading.Event()
    received: list[int] = []

    def handler(signum: int, frame) -> None:
        received.append(signum)
        stop.set()

    installed: list[tuple[int, object]] = []
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                installed.append((sig, signal.signal(sig, handler)))
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
    try:
        yield stop, received
    finally:
        for sig, previous in installed:
            signal.signal(sig, previous)


def _load_graph(source: str, *, seed: int = 0) -> CSRGraph:
    """Load a graph from an edge-list path or the twin registry."""
    if source in dataset_names():
        return load_dataset(source, seed=seed)
    path = Path(source)
    if not path.exists():
        raise SystemExit(
            f"{source!r} is neither a registered dataset ({', '.join(dataset_names())}) "
            "nor an existing edge-list file"
        )
    return read_edge_list(path)


def _service(args: argparse.Namespace) -> EmbeddingService:
    """The :class:`EmbeddingService` the service options describe.

    The service validates the query settings eagerly, so a bad one fails
    here, before an embed-if-missing spends minutes training.
    """
    try:
        return EmbeddingService(
            dim=args.dim, epoch_scale=args.epoch_scale, seed=args.seed,
            store=args.store_dir, metric=args.metric)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _make_device(memory_mb: float | None) -> SimulatedDevice:
    if memory_mb is None:
        return SimulatedDevice()
    return SimulatedDevice(spec=DeviceSpec(name=f"{memory_mb}MB",
                                           memory_bytes=int(memory_mb * 1024 * 1024)))


def _tool_name(args: argparse.Namespace) -> str:
    """``--tool``, else the GOSH variant the legacy ``--config`` names
    (Table 3 configuration names map onto ``gosh-<config>``)."""
    return args.tool or f"gosh-{args.config.strip().lower()}"


def _resolve_tool(args: argparse.Namespace):
    """Build the requested tool (:func:`_tool_name`) from the registry."""
    try:
        return get_tool(_tool_name(args), dim=args.dim, epoch_scale=args.epoch_scale,
                        device=_make_device(args.device_memory_mb), seed=args.seed)
    except ValueError as exc:
        # an unregistered --tool name, among others
        raise SystemExit(str(exc)) from exc


# --------------------------------------------------------------------------- #
# Subcommand implementations
# --------------------------------------------------------------------------- #
def cmd_embed(args: argparse.Namespace) -> int:
    from .embedding.checkpoint import TrainingInterrupted
    from .faults import FAULTS, InjectedFault, UnknownFaultPointError, parse_fault_spec

    graph = _load_graph(args.graph, seed=args.seed)
    tool = _resolve_tool(args)
    if args.trace is not None:
        from .obs import trace
        trace.enable()
    if args.inject_fault is not None:
        try:
            point, at = parse_fault_spec(args.inject_fault)
        except (UnknownFaultPointError, ValueError) as exc:
            raise SystemExit(str(exc)) from exc
        FAULTS.arm(point, at=at)
    checkpointing = args.resume or args.checkpoint_every is not None
    with _graceful_stop() as (stop, received):
        if checkpointing:
            if not hasattr(tool, "configure_checkpointing"):
                raise SystemExit(
                    f"tool {tool.name!r} does not support checkpointing "
                    "(GOSH variants only)")
            tool.configure_checkpointing(
                EmbeddingStore(args.store_dir),
                every_rotations=args.checkpoint_every or None,
                keep=args.checkpoint_keep, auto_resume=args.resume,
                stop_event=stop)
        try:
            result = tool.embed(graph)
        except TrainingInterrupted as exc:
            print(f"interrupted: {exc}")
            print(f"resume with: repro-gosh embed {args.graph} --resume "
                  f"--store-dir {args.store_dir} (same tool/dim/seed flags)")
            return 128 + received[0] if received else 1
        except InjectedFault as exc:
            print(f"injected fault: {exc}")
            if checkpointing:
                print(f"resume with: repro-gosh embed {args.graph} --resume "
                      f"--store-dir {args.store_dir} (same tool/dim/seed flags)")
            return EXIT_INJECTED_FAULT
        finally:
            FAULTS.disarm()
            if args.trace is not None:
                from .obs import trace
                events = trace.export(args.trace)
                trace.disable()
                print(f"trace: {events} event(s) written to {args.trace} "
                      "(open in Perfetto / chrome://tracing)")
    np.save(args.output, result.embedding)
    if args.save:
        store = EmbeddingStore(args.store_dir)
        entry = store.save(result, graph=graph)
        print(f"stored: {entry.path} (version v{entry.version:04d}, "
              f"config {entry.config_hash})")
    if checkpointing:
        # The run landed durably (at least as the --output matrix); its
        # checkpoint lineage is spent.
        swept = tool.sweep_checkpoints(graph.fingerprint())
        if swept:
            print(f"swept {swept} spent checkpoint(s)")
    print(f"graph: {graph}")
    print(f"tool: {result.tool} — {tool.describe()}")
    resumed = result.stats.get("resumed_from")
    if resumed:
        print(f"resumed from checkpoint v{resumed['version']:04d} "
              f"(level {resumed['level']}, rotation {resumed['rotation']})")
    if result.stats.get("checkpoints_saved"):
        print(f"checkpoints saved: {result.stats['checkpoints_saved']}")
    for stage, seconds in result.timings.items():
        print(f"{stage}: {seconds:.3f}s")
    if "level_sizes" in result.stats:
        print(f"levels: {result.stats['level_sizes']}")
    if "epochs_per_level" in result.stats:
        print(f"epochs per level: {result.stats['epochs_per_level']}")
    large = result.stats.get("large_graph")
    if large:
        print("partitioned engine: "
              f"levels={large['levels']}, K={large['parts_per_level']}, "
              f"rotations={large['rotations']}, kernels={large['kernels']}, "
              f"switches={large['submatrix_switches']} "
              f"({large['seconds']:.3f}s, "
              f"pool stall {large['pool_stall_s']:.3f}s)")
        if large.get("oom_retries"):
            print(f"degraded {large['oom_retries']} time(s) under device OOM: "
                  + "; ".join(
                      f"P_GPU={d['resident_submatrices']}, "
                      f"S_GPU={d['resident_sample_pools']}"
                      for d in large.get("degradations", [])))
    print(f"embedding saved to {args.output} (shape {result.embedding.shape})")
    return 0


def cmd_coarsen(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, seed=args.seed)
    coarsener = parallel_multi_edge_collapse if args.parallel else multi_edge_collapse
    result = coarsener(graph, threshold=args.threshold)
    report = summarize(result)
    rows = [{
        "level": i,
        "|V_i|": result.graphs[i].num_vertices,
        "|E_i|": result.graphs[i].num_undirected_edges,
        "time (s)": round(result.level_times[i - 1], 4) if i > 0 else "-",
    } for i in range(result.num_levels)]
    print_table(rows, title=f"MultiEdgeCollapse on {graph.name} "
                            f"({'parallel' if args.parallel else 'sequential'})")
    print(f"levels: {report.num_levels}, last level: {report.last_level_size}, "
          f"mean shrink rate: {report.mean_shrink_rate:.3f}, total: {report.total_time:.3f}s")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, seed=args.seed)
    tool = _resolve_tool(args)
    result = run_link_prediction(graph, tool, classifier=args.classifier, seed=args.seed)
    print(f"graph: {graph}")
    print(f"tool: {tool.name} — {tool.describe()}")
    print(f"embedding time: {result.embed_seconds:.3f}s")
    print(f"link-prediction AUCROC: {100 * result.auc:.2f}%")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    store = EmbeddingStore(args.store_dir)
    fingerprint = None
    if args.graph is not None:
        fingerprint = _load_graph(args.graph, seed=args.seed).fingerprint()
    if args.gc_keep is not None:
        # gc honours the command's scope: a graph/--tool on the command line
        # must never collect other graphs' or tools' lineages.
        removed = store.gc(args.gc_keep, fingerprint=fingerprint,
                           tool=args.tool if args.tool else None)
        for entry in removed:
            print(f"removed: {entry.path}")
        scope = "matching" if (fingerprint or args.tool) else "every"
        print(f"gc: kept newest {args.gc_keep} version(s) of {scope} lineage, "
              f"removed {len(removed)} entries")
    if args.list or args.gc_keep is not None:
        entries = store.list(fingerprint, args.tool if args.tool else None)
        if entries:
            print_table([e.as_row() for e in entries],
                        title=f"Embedding store at {store.root}")
        else:
            print(f"store at {store.root}: no matching entries")
        return 0
    if args.tool is None:
        raise SystemExit("export needs --tool (or --list to browse the store)")
    if fingerprint is None:
        raise SystemExit("export needs a graph to export (or --list to browse the store)")
    try:
        result = store.load(fingerprint, args.tool, version=args.version, mmap=True)
    except StoreError as exc:
        raise SystemExit(str(exc)) from exc
    np.save(args.output, np.asarray(result.embedding))
    meta = result.metadata["store"]
    print(f"exported {result.tool} v{meta['version']:04d} "
          f"(shape {result.embedding.shape[0]}x{result.embedding.shape[1]}) "
          f"to {args.output}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.top_k < 1:
        raise SystemExit("--top-k must be >= 1")
    graph = _load_graph(args.graph, seed=args.seed)
    tool = _resolve_tool(args)
    service = _service(args)
    # Share the service's hierarchy cache, so the cache counters printed
    # below move on the embed-if-missing path.
    if hasattr(tool, "hierarchy_cache") and tool.hierarchy_cache is None:
        tool.hierarchy_cache = service.hierarchy_cache
    if args.query_file is not None:
        # One QueryRequest per file entry through the ONE shared service —
        # the warm path the resident server relies on: the first request
        # resolves (or embeds) the stored entry and builds the engine, every
        # later entry hits the engine cache, and the whole file still lands
        # in microbatched engine calls.
        from .api import QueryRequest

        vectors = np.atleast_2d(np.load(args.query_file))
        labels = [f"q{i}" for i in range(vectors.shape[0])]
        responses = service.query_batch([
            QueryRequest(tool, graph, vectors=vectors[i], k=args.top_k)
            for i in range(vectors.shape[0])])
    else:
        vertices = args.vertex if args.vertex else [0]
        labels = list(vertices)
        responses = [service.query(tool, graph, vertices=vertices, k=args.top_k)]
    first = responses[0]
    print(f"graph: {graph}")
    print(f"tool: {tool.name} — {tool.describe()}")
    entry = first.entry
    source = ("served from store" if first.store_hit
              else "embedded and stored")
    print(f"{source}: v{entry.version:04d} (config {entry.config_hash}) "
          f"under {entry.path.parent.name}")
    if len(responses) == 1:
        rows = first.result.as_rows(labels)
    else:
        rows = [row for label, response in zip(labels, responses)
                for row in response.result.as_rows([label])]
    print_table(rows, title=f"top-{args.top_k} by {first.result.metric}")
    _print_serving_stats(service)
    return 0


def _print_serving_stats(service: EmbeddingService) -> None:
    """One observability block per serving command (cache/store/query)."""
    stats = service.stats()
    cache = stats["hierarchy_cache"]
    print(f"hierarchy cache: {cache['entries']} entries, "
          f"{cache['hits']} hits, {cache['misses']} misses")
    store = stats.get("store")
    if store:
        print(f"store: {store['entries']} entries in {store['lineages']} lineage(s), "
              f"{store['bytes']} bytes ({store['saves']} saves, {store['loads']} loads)")
    query = stats.get("query")
    if query:
        print(f"query: {stats['queries_served']} queries in "
              f"{stats['microbatches']} microbatch(es), "
              f"{query['rows_scored']} rows scored in {query['seconds']}s")
    engine_cache = stats.get("engine_cache")
    if engine_cache and (engine_cache["hits"] or engine_cache["misses"]):
        print(f"engine cache: {engine_cache['entries']} engine(s), "
              f"{engine_cache['hits']} hits, {engine_cache['misses']} misses, "
              f"{engine_cache['evictions']} evictions")


def _export_trace(trace_dir: "str | None", name: str) -> None:
    """Write the collected trace (if tracing) to ``trace_dir/<name>.trace.json``."""
    if trace_dir is None:
        return
    from .obs import trace

    path = Path(trace_dir) / f"{name}.trace.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    events = trace.export(str(path))
    trace.disable()
    print(f"trace: {events} event(s) written to {path} "
          "(open in Perfetto / chrome://tracing)")


def _serve_until_stopped(handle, args: argparse.Namespace, name: str,
                         what: str, detail: str) -> int:
    """Start ``handle`` (a :class:`ServerThread` or ``ShardRouter``), serve
    until ``--max-seconds`` or SIGTERM/Ctrl-C, then drain and export the
    trace to ``<name>.trace.json``.  Returns 1 when the drain outlived its
    timeout, else 0."""
    if args.trace_dir is not None:
        from .obs import trace
        trace.enable()
    address = handle.start()
    print(f"{what} on {address} ({detail}); Ctrl-C/SIGTERM drains and exits")
    if handle.http_address is not None:
        print(f"HTTP front on http://{handle.http_address} "
              f"(POST /query, GET /stats, GET /metrics, GET /ping)")
    with _graceful_stop() as (stop, received):
        try:
            stop.wait(args.max_seconds)
        except KeyboardInterrupt:  # handler not installed (non-main thread)
            pass
    if received:
        print(f"\nsignal {received[0]}: draining in-flight requests ...")
    else:
        print("\ndraining in-flight requests ...")
    rc = 0
    try:
        handle.stop()
    except TimeoutError as exc:
        print(f"forced shutdown: {exc}")
        rc = 1
    _export_trace(args.trace_dir, name)
    return rc


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import QueryServer, ServerThread

    name = _tool_name(args)
    graph = _load_graph(args.graph, seed=args.seed)
    service = _service(args)
    if not args.no_warm:
        # The whole point of a resident server: pay graph load + embedding
        # (or store resolution) once, before the first client connects.
        try:
            entry, hit = service.ensure_stored(name, graph)
        except (UnknownToolError, StoreError) as exc:
            raise SystemExit(str(exc)) from exc
        print(f"warm: {'served from store' if hit else 'embedded and stored'} "
              f"v{entry.version:04d} (config {entry.config_hash})")
    try:
        server = QueryServer(
            service, {args.graph: graph}, default_graph=args.graph,
            default_tool=name, host=args.host, port=args.port,
            socket_path=args.socket, max_inflight=args.max_inflight,
            queue_depth=args.queue_depth, max_batch=args.max_batch,
            max_inflight_per_tool=args.max_inflight_per_tool)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    handle = ServerThread(server, http_port=args.http_port,
                          http_host=args.host)
    rc = _serve_until_stopped(
        handle, args, "serve",
        f"serving graph {args.graph!r} with tool {name!r}",
        f"max_inflight={args.max_inflight}, queue_depth={args.queue_depth}, "
        f"max_batch={args.max_batch}")
    if rc:
        return rc
    print(f"served {server.queries_answered} queries in {server.microbatches} "
          f"microbatch(es); {server.rejected_overload} overload rejection(s), "
          f"{server.query_errors} error(s)")
    _print_serving_stats(service)
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    from .serve import ShardRouter

    if bool(args.shards) == bool(args.backend_address):
        raise SystemExit("pass exactly one of --shards N or --backend-address "
                         "(repeatable)")
    name = _tool_name(args)
    graph = _load_graph(args.graph, seed=args.seed)
    graphs = {args.graph: graph}
    router_kwargs = dict(
        default_graph=args.graph, default_tool=name, host=args.host,
        port=args.port, max_inflight=args.max_inflight,
        queue_depth=args.queue_depth, max_batch=args.max_batch,
        max_inflight_per_tool=args.max_inflight_per_tool,
        replicas=args.replicas, shard_timeout_s=args.shard_timeout,
        probe_interval_s=args.probe_interval,
        probe_backoff_max_s=args.probe_backoff_max,
        http_port=args.http_port, http_host=args.host)
    try:
        if args.shards:
            # Every spawned shard gets its own EmbeddingService over the
            # same store directory: independent serving locks, so shard
            # fan-outs genuinely run in parallel; a shared page cache, so
            # the memory-mapped matrix is still loaded once.  Warm once
            # before spawning: the first service embeds-if-missing and
            # stores; every shard then serves the same version.
            entry, hit = _service(args).ensure_stored(name, graph)
            print(f"warm: {'served from store' if hit else 'embedded and stored'} "
                  f"v{entry.version:04d} (config {entry.config_hash})")
            router = ShardRouter.spawn(lambda: _service(args), graphs,
                                       shard_count=args.shards,
                                       **router_kwargs)
            print(f"spawned {args.shards} shard range(s) x {args.replicas} "
                  f"replica(s): " + ", ".join(router.backend.addresses))
        else:
            router = ShardRouter(graphs, args.backend_address, **router_kwargs)
            print(f"routing over {len(args.backend_address)} external shard(s): "
                  + ", ".join(args.backend_address))
    except (ValueError, UnknownToolError, StoreError, ConnectionError,
            OSError) as exc:
        raise SystemExit(str(exc)) from exc
    ranges = ", ".join(f"[{lo},{hi})" for lo, hi
                       in router.backend._ranges[args.graph])
    rc = _serve_until_stopped(router, args, "route",
                              f"router for graph {args.graph!r}",
                              f"vertex ranges: {ranges}")
    if rc:
        return rc
    server = router.server
    backend = router.backend
    print(f"routed {server.queries_answered} queries in {server.microbatches} "
          f"microbatch(es); {backend.shard_queries} shard queries, "
          f"{backend.shard_errors} shard error(s), "
          f"{sum(g.failovers for g in backend.groups)} failover(s), "
          f"{sum(l.health.readmissions for g in backend.groups for l in g.links)} "
          f"readmission(s), {server.rejected_overload} overload rejection(s)")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    import json

    from .loadgen import LoadConfig, LoadGenerator

    try:
        config = LoadConfig(
            address=args.address, clients=args.clients, mode=args.mode,
            duration_s=args.duration, requests_per_client=args.requests_per_client,
            rate_per_client=args.rate, k=args.top_k,
            num_vertices=args.num_vertices, tool=args.tool,
            graph=args.graph_name, seed=args.seed, timeout_s=args.timeout)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    try:
        report = LoadGenerator(config).run()
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"cannot drive {', '.join(config.address)}: {exc}") from exc
    for line in report.summary_lines():
        print(line)
    if args.json is not None:
        payload = report.as_json()
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"report written to {args.json}")
    # A run that never got an answer is a failed measurement, not a report.
    return 0 if report.answered > 0 else 1


def cmd_stats(args: argparse.Namespace) -> int:
    import json
    import time

    from .obs.export import render_stats_metrics
    from .serve import ServeClient

    if args.count < 1:
        raise SystemExit("--count must be >= 1")
    if args.interval < 0:
        raise SystemExit("--interval must be >= 0")
    for i in range(args.count):
        if i:
            time.sleep(args.interval)
        try:
            with ServeClient(args.address, timeout_s=args.timeout) as client:
                if args.metrics:
                    try:
                        text = client.metrics()
                    except ValueError:
                        # A server predating the metrics verb: render its
                        # stats snapshot locally with the same adapter.
                        text = render_stats_metrics(client.stats())
                else:
                    text = json.dumps(client.stats(), indent=2,
                                      sort_keys=True) + "\n"
        except (ConnectionError, OSError) as exc:
            raise SystemExit(f"cannot reach {args.address}: {exc}") from exc
        # Print outside the except scope: a closed stdout pipe (`| head`)
        # is not a server failure — it just ends the poll loop.
        try:
            print(text, end="", flush=True)
        except BrokenPipeError:
            return 0
    return 0


def cmd_tools(args: argparse.Namespace) -> int:
    rows = tool_descriptions(dim=args.dim, epoch_scale=args.epoch_scale)
    print_table(rows, title="Registered embedding tools (repro.api registry)")
    if args.store_dir is not None:
        store = EmbeddingStore(args.store_dir)
        stats = store.stats()
        print(f"store at {stats['root']}: {stats['entries']} entries in "
              f"{stats['lineages']} lineage(s), {stats['bytes']} bytes")
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = paper_table2_rows()
    if args.scale:
        rows = [r for r in rows if r["scale"] == args.scale]
    print_table(rows, title="Registered dataset twins (paper Table 2)")
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gosh",
        description="GOSH reproduction: multilevel graph embedding on small (simulated) hardware",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="edge-list file or registered dataset name")
        p.add_argument("--seed", type=int, default=0)

    def add_tool_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tool", default=None,
                       help="registered tool name (see `repro-gosh tools`); "
                            "overrides --config")
        p.add_argument("--config", default="normal",
                       help="GOSH configuration: fast | normal | slow | no-coarsening "
                            "(shorthand for --tool gosh-<config>)")
        p.add_argument("--device-memory-mb", type=float, default=None,
                       help="simulated device memory (default: Titan X, 12 GB)")

    def add_store_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store-dir", default=DEFAULT_STORE_DIR, metavar="DIR",
                       help="root of the versioned embedding store "
                            f"(default: ./{DEFAULT_STORE_DIR})")

    def add_service_options(p: argparse.ArgumentParser) -> None:
        """The flags :func:`_service` reads (``--seed`` aside)."""
        # Defaults line up with `embed`: --dim None serves whatever
        # dimension is stored (embedding at the tool default on a miss), so
        # the documented `embed --save` -> `query` flow hits the store
        # instead of silently re-embedding under a different configuration.
        p.add_argument("--dim", type=int, default=None,
                       help="embedding dimension; default: serve any stored "
                            "dimension, embed at the tool default if missing")
        p.add_argument("--epoch-scale", type=float, default=1.0)
        p.add_argument("--metric", choices=METRICS, default="cosine")
        add_store_option(p)

    def add_serving_options(p: argparse.ArgumentParser, *, port: int) -> None:
        """The serving front `serve` and `route` share: graph, service,
        listener, admission control, lifetime, HTTP front and tracing."""
        add_common(p)
        p.add_argument("--tool", default=None,
                       help="registered tool name served by default "
                            "(frames may still name any tool); overrides --config")
        p.add_argument("--config", default="normal",
                       help="GOSH configuration shorthand for --tool gosh-<config>")
        add_service_options(p)
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=port,
                       help="TCP port to listen on (0 picks a free port)")
        p.add_argument("--max-inflight", type=int, default=64,
                       help="admission control: max admitted-but-unanswered "
                            "requests before 'overloaded' replies")
        p.add_argument("--queue-depth", type=int, default=128,
                       help="admission control: max requests waiting for a batch")
        p.add_argument("--max-inflight-per-tool", type=int, default=None,
                       metavar="N",
                       help="per-tool admission quota (default: no quota)")
        p.add_argument("--max-batch", type=int, default=32,
                       help="max requests drained into one query_batch call")
        p.add_argument("--max-seconds", type=float, default=None,
                       help="serve for N seconds then drain and exit "
                            "(default: until Ctrl-C)")
        p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="also serve HTTP/1.1 on this port (0 picks a free "
                            "one): POST /query, GET /stats, GET /metrics, "
                            "GET /ping")
        p.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="enable request tracing and write a Chrome "
                            "trace-event profile to DIR/<command>.trace.json "
                            "at shutdown")

    p_embed = sub.add_parser("embed", help="embed a graph and save the matrix as .npy")
    add_common(p_embed)
    p_embed.add_argument("--output", "-o", default="embedding.npy")
    add_tool_options(p_embed)
    p_embed.add_argument("--dim", type=int, default=128)
    p_embed.add_argument("--epoch-scale", type=float, default=1.0)
    p_embed.add_argument("--save", action="store_true",
                         help="also save the result as a new version in the "
                              "embedding store (see --store-dir)")
    p_embed.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="N",
                         help="crash safety: checkpoint the run into the store "
                              "every N rotations of a partitioned level (0: at "
                              "level boundaries only); SIGTERM/Ctrl-C then "
                              "writes a final checkpoint and exits 128+signum")
    p_embed.add_argument("--checkpoint-keep", type=int, default=2, metavar="N",
                         help="newest checkpoint versions retained per run")
    p_embed.add_argument("--resume", action="store_true",
                         help="resume from the newest compatible checkpoint in "
                              "the store (same graph + configuration); "
                              "bit-identical to an uninterrupted run")
    p_embed.add_argument("--trace", default=None, metavar="OUT.json",
                         help="record a Chrome-trace-event profile of the run "
                              "(coarsen/level/rotation/kernel/pool/checkpoint "
                              "spans) and write it here — open in Perfetto")
    p_embed.add_argument("--inject-fault", default=None, metavar="POINT[:N]",
                         help="deterministic fault injection for recovery "
                              "drills: crash at the N-th crossing of a named "
                              "point (level-boundary, rotation-boundary, "
                              "pool-producer, store-commit, device-oom); "
                              f"exits {EXIT_INJECTED_FAULT}")
    add_store_option(p_embed)
    p_embed.set_defaults(func=cmd_embed)

    p_coarsen = sub.add_parser("coarsen", help="run MultiEdgeCollapse and report per-level stats")
    add_common(p_coarsen)
    p_coarsen.add_argument("--threshold", type=int, default=100)
    p_coarsen.add_argument("--parallel", action="store_true")
    p_coarsen.set_defaults(func=cmd_coarsen)

    p_eval = sub.add_parser("evaluate", help="run the link-prediction pipeline")
    add_common(p_eval)
    add_tool_options(p_eval)
    p_eval.add_argument("--dim", type=int, default=32)
    p_eval.add_argument("--epoch-scale", type=float, default=0.2)
    p_eval.add_argument("--classifier", choices=("logistic", "sgd"), default="logistic")
    p_eval.set_defaults(func=cmd_evaluate)

    p_export = sub.add_parser(
        "export", help="list/export/gc stored embedding versions")
    p_export.add_argument("graph", nargs="?", default=None,
                          help="edge-list file or registered dataset name "
                               "(identifies the stored lineage; optional with --list)")
    p_export.add_argument("--seed", type=int, default=0)
    p_export.add_argument("--tool", default=None,
                          help="tool whose stored embedding to export")
    p_export.add_argument("--version", type=int, default=None,
                          help="stored version to export (default: newest)")
    p_export.add_argument("--output", "-o", default="embedding.npy")
    p_export.add_argument("--list", action="store_true",
                          help="list matching store entries instead of exporting")
    p_export.add_argument("--gc-keep", type=int, default=None, metavar="N",
                          help="garbage-collect: keep only the newest N versions "
                               "of every lineage, then list what remains")
    add_store_option(p_export)
    p_export.set_defaults(func=cmd_export)

    p_query = sub.add_parser(
        "query", help="k-NN similarity queries over a stored embedding "
                      "(embeds and stores first if missing)")
    add_common(p_query)
    add_tool_options(p_query)
    add_service_options(p_query)
    p_query.add_argument("--vertex", type=int, action="append", default=None,
                         metavar="V",
                         help="query vertex id (repeatable; default: 0)")
    p_query.add_argument("--query-file", default=None, metavar="NPY",
                         help=".npy file of raw query vectors (overrides --vertex)")
    p_query.add_argument("--top-k", type=int, default=10)
    p_query.set_defaults(func=cmd_query)

    p_serve = sub.add_parser(
        "serve", help="run the resident NDJSON query server over a graph "
                      "(warms the store, then answers k-NN queries until Ctrl-C)")
    add_serving_options(p_serve, port=7654)
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="serve on a Unix socket instead of TCP")
    p_serve.add_argument("--no-warm", action="store_true",
                         help="skip the startup embed-if-missing warm-up")
    p_serve.set_defaults(func=cmd_serve)

    p_route = sub.add_parser(
        "route", help="run a shard router: partition a graph's vertex ranges "
                      "across N query servers and merge their top-k bit-exactly")
    add_serving_options(p_route, port=7653)
    p_route.add_argument("--shards", type=int, default=None, metavar="N",
                         help="spawn N in-process shard servers (each with its "
                              "own service over the shared store)")
    p_route.add_argument("--backend-address", action="append", default=None,
                         metavar="ADDR",
                         help="route over an externally started shard server "
                              "(repeatable; shard order = flag order = vertex "
                              "range order)")
    p_route.add_argument("--shard-timeout", type=float, default=30.0,
                         help="per-shard exchange wall-clock deadline in "
                              "seconds (a hung shard fails its batch within "
                              "this bound)")
    p_route.add_argument("--replicas", type=int, default=1, metavar="R",
                         help="replica servers per vertex range; with "
                              "--shards, spawns N*R servers; with "
                              "--backend-address, groups consecutive "
                              "addresses into R-sized replica sets")
    p_route.add_argument("--probe-interval", type=float, default=1.0,
                         metavar="SECONDS",
                         help="base interval for re-probing unhealthy shard "
                              "replicas (doubles per consecutive failure, "
                              "capped at --probe-backoff-max)")
    p_route.add_argument("--probe-backoff-max", type=float, default=30.0,
                         metavar="SECONDS",
                         help="cap on the probe backoff interval")
    p_route.set_defaults(func=cmd_route)

    p_load = sub.add_parser(
        "load", help="drive one or more running query servers with concurrent "
                     "clients and report latency percentiles + queries/s")
    p_load.add_argument("address", nargs="+",
                        help="server address(es): host:port or unix:<path>; "
                             "with several, clients are assigned round-robin "
                             "and the report merges them with a per-address "
                             "breakdown")
    p_load.add_argument("--clients", type=int, default=4)
    p_load.add_argument("--mode", choices=("closed", "open"), default="closed",
                        help="closed: one in-flight request per client; "
                             "open: fixed-rate arrivals regardless of replies")
    p_load.add_argument("--duration", type=float, default=2.0, metavar="SECONDS")
    p_load.add_argument("--requests-per-client", type=int, default=None,
                        metavar="N", help="closed loop: stop each client after N requests")
    p_load.add_argument("--rate", type=float, default=50.0,
                        help="open loop: requests per second per client")
    p_load.add_argument("--top-k", type=int, default=10)
    p_load.add_argument("--num-vertices", type=int, default=100,
                        help="query vertex ids are drawn from [0, N)")
    p_load.add_argument("--tool", default=None,
                        help="tool name to put in frames (default: server default)")
    p_load.add_argument("--graph-name", default=None,
                        help="served graph name to put in frames (default: server default)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--timeout", type=float, default=30.0,
                        help="per-reply wait bound in seconds")
    p_load.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full report as JSON")
    p_load.set_defaults(func=cmd_load)

    p_stats = sub.add_parser(
        "stats", help="poll a running query server's stats (pretty JSON) or "
                      "Prometheus text (--metrics)")
    p_stats.add_argument("address",
                         help="server address: host:port or unix:<path>")
    p_stats.add_argument("--metrics", action="store_true",
                         help="print Prometheus text (the metrics verb; falls "
                              "back to rendering the stats snapshot locally "
                              "against servers predating the verb)")
    p_stats.add_argument("--count", type=int, default=1, metavar="N",
                         help="number of polls (default: 1)")
    p_stats.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="sleep between polls (default: 2.0)")
    p_stats.add_argument("--timeout", type=float, default=10.0,
                         help="per-request wait bound in seconds")
    p_stats.set_defaults(func=cmd_stats)

    p_tools = sub.add_parser("tools", help="list the registered embedding tools")
    p_tools.add_argument("--dim", type=int, default=32)
    p_tools.add_argument("--epoch-scale", type=float, default=1.0)
    p_tools.add_argument("--store-dir", default=None, metavar="DIR",
                         help="also report the embedding store at DIR")
    p_tools.set_defaults(func=cmd_tools)

    p_data = sub.add_parser("datasets", help="list the registered synthetic twins")
    p_data.add_argument("--scale", choices=("medium", "large"), default=None)
    p_data.set_defaults(func=cmd_datasets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

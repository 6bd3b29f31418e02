"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import write_edge_list

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_embed_defaults(self):
        args = build_parser().parse_args(["embed", "com-dblp"])
        assert args.config == "normal"
        assert args.dim == 128
        assert args.output == "embedding.npy"

    def test_coarsen_flags(self):
        args = build_parser().parse_args(["coarsen", "com-dblp", "--parallel", "--threshold", "50"])
        assert args.parallel is True
        assert args.threshold == 50


class TestCommands:
    def test_datasets_lists_twins(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "com-dblp" in out and "com-friendster" in out

    def test_datasets_scale_filter(self, capsys):
        assert main(["datasets", "--scale", "large"]) == 0
        out = capsys.readouterr().out
        assert "com-friendster" in out
        assert "com-dblp" not in out

    def test_coarsen_named_dataset(self, capsys):
        assert main(["coarsen", "com-amazon", "--parallel"]) == 0
        out = capsys.readouterr().out
        assert "MultiEdgeCollapse" in out
        assert "mean shrink rate" in out

    def test_embed_writes_npy(self, tmp_path, capsys):
        out_path = tmp_path / "emb.npy"
        code = main(["embed", "com-amazon", "--config", "fast", "--dim", "16",
                     "--epoch-scale", "0.02", "-o", str(out_path)])
        assert code == 0
        emb = np.load(out_path)
        assert emb.ndim == 2 and emb.shape[1] == 16
        assert "embedding saved" in capsys.readouterr().out

    def test_embed_from_edge_list_file(self, tmp_path, small_power_graph, capsys):
        edge_file = tmp_path / "graph.txt"
        write_edge_list(small_power_graph, edge_file)
        out_path = tmp_path / "emb.npy"
        code = main(["embed", str(edge_file), "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "-o", str(out_path)])
        assert code == 0
        assert np.load(out_path).shape[0] == small_power_graph.num_vertices

    def test_evaluate_prints_auc(self, capsys):
        code = main(["evaluate", "com-amazon", "--config", "fast", "--dim", "16",
                     "--epoch-scale", "0.05"])
        assert code == 0
        assert "AUCROC" in capsys.readouterr().out

    def test_unknown_graph_errors(self):
        with pytest.raises(SystemExit):
            main(["coarsen", "no-such-graph-or-file"])


class TestStoreAndQueryCli:
    def _embed_and_save(self, tmp_path, capsys):
        out_path = tmp_path / "emb.npy"
        code = main(["embed", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "-o", str(out_path),
                     "--save", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        return capsys.readouterr().out

    def test_embed_save_writes_store_entry(self, tmp_path, capsys):
        out = self._embed_and_save(tmp_path, capsys)
        assert "stored:" in out and "v0001" in out
        lineages = [p for p in (tmp_path / "store").iterdir() if p.is_dir()]
        assert len(lineages) == 1
        assert (lineages[0] / "v0001" / "manifest.json").is_file()

    def test_export_round_trips_saved_embedding(self, tmp_path, capsys):
        self._embed_and_save(tmp_path, capsys)
        exported = tmp_path / "export.npy"
        code = main(["export", "com-amazon", "--tool", "gosh-fast",
                     "--store-dir", str(tmp_path / "store"), "-o", str(exported)])
        assert code == 0
        assert "exported gosh-fast v0001" in capsys.readouterr().out
        a = np.load(tmp_path / "emb.npy")
        b = np.load(exported)
        assert (a == b).all()

    def test_export_list_and_gc(self, tmp_path, capsys):
        self._embed_and_save(tmp_path, capsys)
        self._embed_and_save(tmp_path, capsys)
        code = main(["export", "--list", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "v0001" in out and "v0002" in out
        code = main(["export", "--gc-keep", "1", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 1 entries" in out
        assert "v0002" in out and "| v0001" not in out

    def test_export_missing_entry_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no stored embedding"):
            main(["export", "com-amazon", "--tool", "gosh-fast",
                  "--store-dir", str(tmp_path / "store"), "-o", str(tmp_path / "x.npy")])

    def test_export_without_tool_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="--tool"):
            main(["export", "com-amazon", "--store-dir", str(tmp_path / "store")])

    def test_query_embeds_stores_and_answers(self, tmp_path, capsys):
        code = main(["query", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "--vertex", "3", "--vertex", "17",
                     "--top-k", "4", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "embedded and stored: v0001" in out
        assert "top-4 by cosine" in out
        # Serving stats are observable — and actually wired: the implicit
        # embed must have gone through the service's hierarchy cache.
        assert "hierarchy cache: 1 entries, 0 hits, 1 misses" in out
        assert "store: 1 entries" in out
        assert "query: 2 queries in 1 microbatch(es)" in out

    def test_query_serves_from_store_second_time(self, tmp_path, capsys):
        args = ["query", "com-amazon", "--config", "fast", "--dim", "8",
                "--epoch-scale", "0.02", "--vertex", "0",
                "--store-dir", str(tmp_path / "store")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "served from store: v0001" in capsys.readouterr().out

    def test_query_with_query_file_and_dot_metric(self, tmp_path, capsys):
        vectors = np.random.default_rng(0).standard_normal((2, 8)).astype(np.float32)
        qfile = tmp_path / "queries.npy"
        np.save(qfile, vectors)
        code = main(["query", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "--query-file", str(qfile),
                     "--metric", "dot", "--top-k", "2",
                     "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "top-2 by dot" in out
        assert "q0" in out and "q1" in out

    def test_query_file_entries_share_one_warm_service(self, tmp_path, capsys):
        """Each --query-file entry is its own request through ONE service:
        the first builds the engine, the rest hit the engine cache — the
        warm path the resident server relies on — and all of them land in
        a single microbatched engine call."""
        vectors = np.random.default_rng(1).standard_normal((3, 8)).astype(np.float32)
        qfile = tmp_path / "queries.npy"
        np.save(qfile, vectors)
        code = main(["query", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "--query-file", str(qfile),
                     "--top-k", "2", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "query: 3 queries in 1 microbatch(es)" in out
        assert "engine cache: 1 engine(s), 2 hits, 1 misses, 0 evictions" in out

    def test_query_defaults_connect_to_embed_save(self, tmp_path, capsys):
        """`embed --save` then `query` with no dim flags must serve from the
        store (query's default dim adapts to whatever is stored) instead of
        silently re-embedding under a different configuration."""
        args = build_parser().parse_args(["query", "com-amazon"])
        assert args.dim is None and args.epoch_scale == 1.0
        self._embed_and_save(tmp_path, capsys)        # stores a dim-8 entry
        code = main(["query", "com-amazon", "--config", "fast", "--vertex", "0",
                     "--top-k", "3", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "served from store: v0001" in out

    def test_query_bad_knobs_fail_before_embedding(self, tmp_path):
        """Invalid sizes must error out before any training runs."""
        with pytest.raises(SystemExit, match="top-k"):
            main(["query", "com-amazon", "--top-k", "0",
                  "--store-dir", str(tmp_path / "store")])
        assert not (tmp_path / "store").exists()      # nothing was embedded

    def test_gc_keep_honours_graph_and_tool_scope(self, tmp_path, capsys):
        """A scoped --gc-keep must not collect other graphs' lineages."""
        self._embed_and_save(tmp_path, capsys)        # com-amazon entry
        code = main(["embed", "com-dblp", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "-o", str(tmp_path / "d.npy"),
                     "--save", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        capsys.readouterr()
        code = main(["export", "com-dblp", "--tool", "gosh-fast", "--gc-keep", "0",
                     "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 1 entries" in out             # only com-dblp collected
        code = main(["export", "--list", "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "com-amazon" in out                    # out-of-scope survivor
        assert "com-dblp" not in out

    def test_tools_reports_store(self, tmp_path, capsys):
        self._embed_and_save(tmp_path, capsys)
        assert main(["tools", "--store-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "store at" in out and "1 entries" in out


class TestServeAndLoadCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "com-amazon"])
        assert args.host == "127.0.0.1" and args.port == 7654
        assert args.max_inflight == 64 and args.queue_depth == 128
        assert args.max_batch == 32
        assert args.socket is None and args.max_seconds is None
        assert args.no_warm is False

    #: Every option of the three serving commands, with its dest and
    #: default, as the parser defined them before the shared serving front
    #: was factored out: sharing the definitions must not add, drop or
    #: re-default a flag.
    SERVICE_OPTIONS = {
        ((), "graph", None), (("--seed",), "seed", 0),
        (("--tool",), "tool", None), (("--config",), "config", "normal"),
        (("--dim",), "dim", None), (("--epoch-scale",), "epoch_scale", 1.0),
        (("--metric",), "metric", "cosine"),
        (("--store-dir",), "store_dir", "embeddings"),
    }
    SERVING_OPTIONS = SERVICE_OPTIONS | {
        (("--host",), "host", "127.0.0.1"),
        (("--max-inflight",), "max_inflight", 64),
        (("--queue-depth",), "queue_depth", 128),
        (("--max-inflight-per-tool",), "max_inflight_per_tool", None),
        (("--max-batch",), "max_batch", 32),
        (("--max-seconds",), "max_seconds", None),
        (("--http-port",), "http_port", None),
        (("--trace-dir",), "trace_dir", None),
    }
    PINNED_OPTIONS = {
        "query": SERVICE_OPTIONS | {
            (("--device-memory-mb",), "device_memory_mb", None),
            (("--vertex",), "vertex", None),
            (("--query-file",), "query_file", None),
            (("--top-k",), "top_k", 10),
        },
        "serve": SERVING_OPTIONS | {
            (("--port",), "port", 7654),
            (("--socket",), "socket", None),
            (("--no-warm",), "no_warm", False),
        },
        "route": SERVING_OPTIONS | {
            (("--port",), "port", 7653),
            (("--shards",), "shards", None),
            (("--backend-address",), "backend_address", None),
            (("--shard-timeout",), "shard_timeout", 30.0),
            (("--replicas",), "replicas", 1),
            (("--probe-interval",), "probe_interval", 1.0),
            (("--probe-backoff-max",), "probe_backoff_max", 30.0),
        },
    }

    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_serving_command_options_are_pinned(self, command):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        options = {(tuple(a.option_strings), a.dest, a.default)
                   for a in commands.choices[command]._actions
                   if a.dest != "help"}
        assert options == self.PINNED_OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    @pytest.mark.parametrize("flag", ["--query-backend", "--block-rows"])
    def test_removed_query_knobs_are_rejected(self, command, flag, capsys):
        """Serving has one top-k path on a fixed grid: argparse rejects the
        flags that used to pick a backend or a block size."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "com-amazon", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_load_parser_defaults(self):
        args = build_parser().parse_args(["load", "127.0.0.1:7654"])
        assert args.clients == 4 and args.mode == "closed"
        assert args.duration == 2.0 and args.rate == 50.0
        assert args.json is None

    def test_load_bad_mode_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "x:1", "--mode", "sideways"])

    def test_load_unreachable_server_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot drive"):
            main(["load", f"unix:{tmp_path}/nope.sock", "--duration", "0.1"])

    @pytest.mark.timeout(120)
    def test_serve_then_load_round_trip(self, tmp_path, capsys):
        """`repro-gosh serve` warms the store and serves until --max-seconds;
        `repro-gosh load` measures it and writes the JSON report."""
        import json
        import threading
        import time

        sock = tmp_path / "serve.sock"
        report_path = tmp_path / "report.json"
        serve_rc: list[int] = []

        def run_server() -> None:
            serve_rc.append(main([
                "serve", "com-amazon", "--config", "fast", "--dim", "8",
                "--epoch-scale", "0.02", "--socket", str(sock),
                "--store-dir", str(tmp_path / "store"), "--max-seconds", "6"]))

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while not sock.exists():
            assert time.monotonic() < deadline, "server socket never appeared"
            time.sleep(0.05)
        code = main(["load", f"unix:{sock}", "--clients", "2",
                     "--duration", "0.4", "--num-vertices", "100",
                     "--top-k", "3", "--json", str(report_path)])
        assert code == 0
        thread.join(timeout=60)
        assert serve_rc == [0]
        out = capsys.readouterr().out
        assert "embedded and stored" in out or "served from store" in out
        assert "throughput:" in out and "queries/s" in out
        report = json.loads(report_path.read_text())
        assert report["answered"] > 0
        assert report["rejection_rate"] == 0.0
        assert {"p50", "p95", "p99"} <= set(report["latency_ms"])


    @pytest.mark.timeout(120)
    def test_route_spawns_shards_and_drains(self, tmp_path, capsys):
        """`repro-gosh route --shards 2` warms the store, spawns two shard
        servers, prints the router address and vertex ranges, and drains."""
        code = main(["route", "com-amazon", "--config", "fast", "--dim", "8",
                     "--epoch-scale", "0.02", "--shards", "2", "--port", "0",
                     "--max-seconds", "0.5",
                     "--store-dir", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "spawned 2 shard range(s) x 1 replica(s)" in out
        assert "router for graph 'com-amazon' on 127.0.0.1:" in out
        listed = re.search(r"vertex ranges: (.*)\); Ctrl-C", out).group(1)
        (lo0, hi0), (lo1, hi1) = [
            tuple(map(int, r)) for r in re.findall(r"\[(\d+),(\d+)\)", listed)]
        assert lo0 == 0 and hi0 == lo1 < hi1
        assert "routed 0 queries" in out


class TestStatsCli:
    def test_stats_parser_defaults(self):
        args = build_parser().parse_args(["stats", "127.0.0.1:7654"])
        assert args.metrics is False
        assert args.count == 1 and args.interval == 2.0
        assert args.timeout == 10.0

    def test_stats_unreachable_server_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["stats", f"unix:{tmp_path}/nope.sock", "--timeout", "0.2"])

    @pytest.mark.timeout(120)
    def test_stats_against_live_server_with_trace_export(self, tmp_path, capsys):
        """`repro-gosh stats` polls a live `serve --trace-dir` process: pretty
        JSON and Prometheus text both work, and shutdown exports the trace."""
        import json
        import threading
        import time

        sock = tmp_path / "serve.sock"
        trace_dir = tmp_path / "traces"
        serve_rc: list[int] = []

        def run_server() -> None:
            serve_rc.append(main([
                "serve", "com-amazon", "--config", "fast", "--dim", "8",
                "--epoch-scale", "0.02", "--socket", str(sock),
                "--store-dir", str(tmp_path / "store"),
                "--trace-dir", str(trace_dir), "--max-seconds", "6"]))

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while not sock.exists():
            assert time.monotonic() < deadline, "server socket never appeared"
            time.sleep(0.05)

        time.sleep(0.2)
        capsys.readouterr()  # drain the server thread's startup chatter
        assert main(["stats", f"unix:{sock}"]) == 0
        out = capsys.readouterr().out
        stats = json.loads(out[out.index("{"):])
        assert stats["server"]["queue_depth"] == 128
        assert "service" in stats

        assert main(["stats", f"unix:{sock}", "--metrics"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_server_queries_admitted_total counter" in text
        assert "repro_server_inflight 0" in text

        thread.join(timeout=60)
        assert serve_rc == [0]
        trace_file = trace_dir / "serve.trace.json"
        assert trace_file.exists()
        payload = json.loads(trace_file.read_text())
        # Only query paths record spans, so a stats-only session exports a
        # valid (possibly empty) envelope — Perfetto opens it either way.
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"


class TestToolRegistryCli:
    def test_tools_lists_registry(self, capsys):
        assert main(["tools"]) == 0
        out = capsys.readouterr().out
        for name in ("verse", "mile", "graphvite", "gosh-fast", "gosh-normal",
                     "gosh-slow", "gosh-nocoarse"):
            assert name in out

    def test_embed_with_tool_flag(self, tmp_path, capsys):
        out_path = tmp_path / "verse.npy"
        code = main(["embed", "com-amazon", "--tool", "verse", "--dim", "8",
                     "--epoch-scale", "0.02", "-o", str(out_path)])
        assert code == 0
        assert np.load(out_path).shape[1] == 8
        assert "tool: verse" in capsys.readouterr().out

    def test_embed_tool_overrides_config(self, tmp_path, capsys):
        out_path = tmp_path / "mile.npy"
        code = main(["embed", "com-amazon", "--config", "fast", "--tool", "mile",
                     "--dim", "8", "--epoch-scale", "0.02", "-o", str(out_path)])
        assert code == 0
        assert "tool: mile" in capsys.readouterr().out

    def test_embed_unknown_tool_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="node2vec"):
            main(["embed", "com-amazon", "--tool", "node2vec",
                  "-o", str(tmp_path / "x.npy")])

    def test_embed_reports_aggregated_partitioned_stats(self, tmp_path, capsys):
        """A tiny device forces the large-graph engine; the report aggregates
        every level that used it, not just the first."""
        out_path = tmp_path / "large.npy"
        code = main(["embed", "com-amazon", "--config", "fast", "--dim", "32",
                     "--epoch-scale", "0.05", "--device-memory-mb", "0.15",
                     "-o", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "partitioned engine" in out
        assert "levels=" in out and "K=[" in out and "kernels=" in out

    def test_evaluate_with_tool_flag(self, capsys):
        code = main(["evaluate", "com-amazon", "--tool", "gosh-fast", "--dim", "16",
                     "--epoch-scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AUCROC" in out and "gosh-fast" in out


class TestCrashSafetyCli:
    """``embed --checkpoint-every / --inject-fault / --resume`` round trip."""

    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro.faults import FAULTS

        FAULTS.reset()
        yield
        FAULTS.reset()

    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graph import powerlaw_cluster

        path = tmp_path / "graph.txt"
        write_edge_list(powerlaw_cluster(400, m=3, seed=1), path)
        return path

    def embed_args(self, tmp_path, graph_file, out_name, *extra):
        return ["embed", str(graph_file), "--config", "normal", "--dim", "16",
                "--epoch-scale", "0.2", "--seed", "0",
                "--device-memory-mb", "0.02",
                "--store-dir", str(tmp_path / "store"),
                "-o", str(tmp_path / out_name), *extra]

    @pytest.mark.parametrize("kill_spec", ["rotation-boundary:2",
                                           "level-boundary:1"])
    def test_kill_resume_round_trip_is_bit_exact(self, tmp_path, graph_file,
                                                 capsys, kill_spec):
        from repro.cli import EXIT_INJECTED_FAULT

        assert main(self.embed_args(tmp_path, graph_file, "golden.npy")) == 0
        # The crashed run is a real process death: only the store carries
        # its checkpoints over to the resumed run.
        crashed = subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.embed_args(
                tmp_path, graph_file, "crashed.npy",
                "--checkpoint-every", "1", "--inject-fault", kill_spec)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=300)
        assert crashed.returncode == EXIT_INJECTED_FAULT, crashed.stderr
        assert "injected fault" in crashed.stdout
        assert "--resume" in crashed.stdout
        assert not (tmp_path / "crashed.npy").exists()

        code = main(self.embed_args(tmp_path, graph_file, "resumed.npy",
                                    "--resume"))
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out
        assert np.array_equal(np.load(tmp_path / "golden.npy"),
                              np.load(tmp_path / "resumed.npy"))

    def test_successful_checkpointed_run_sweeps_its_lineage(self, tmp_path,
                                                            graph_file, capsys):
        code = main(self.embed_args(tmp_path, graph_file, "out.npy",
                                    "--checkpoint-every", "1"))
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoints saved:" in out
        assert "swept" in out and "spent checkpoint" in out
        # The store holds no leftover .ckpt lineage afterwards.
        from repro.store import EmbeddingStore

        assert EmbeddingStore(tmp_path / "store").stats()["entries"] == 0

    def test_bad_inject_fault_spec_is_a_usage_error(self, tmp_path, graph_file):
        for spec in ("no-such-point", "rotation-boundary:x",
                     "rotation-boundary:0"):
            with pytest.raises(SystemExit):
                main(self.embed_args(tmp_path, graph_file, "x.npy",
                                     "--inject-fault", spec))

    def test_injected_fault_without_checkpointing_gives_no_resume_hint(
            self, tmp_path, graph_file, capsys):
        from repro.cli import EXIT_INJECTED_FAULT

        code = main(self.embed_args(tmp_path, graph_file, "x.npy",
                                    "--inject-fault", "rotation-boundary:1"))
        assert code == EXIT_INJECTED_FAULT
        assert "--resume" not in capsys.readouterr().out

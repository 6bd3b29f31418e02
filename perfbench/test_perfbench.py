"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest perfbench -q

They check the benchmark, not the program: every metric BENCHMARK.json
names is produced, names and units agree with the code, counts that are
functions of the inputs repeat exactly, and the entry point fails cleanly
when the program's sources are missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from common import DETERMINISTIC, END_TO_END, HERE, PER_LAYER, ROOT, SRC

sys.path.insert(0, str(SRC))

import serve  # noqa: E402
import train  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(DETERMINISTIC) <= set(PER_LAYER)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def _train(workload: str, traced: bool):
    return train.run(workload, 5, 0.5, traced, n=3000, setup_rounds=1, min_iters=2)


@pytest.mark.parametrize("workload", ["train_inmem", "train_partitioned"])
def test_train_smoke_produces_every_metric(workload):
    _, correct, attempted, failed, values = _train(workload, False)
    assert correct and failed == 0 and attempted >= 2
    assert set(values) == set(END_TO_END)
    _, correct, _, _, first = _train(workload, True)
    assert correct and set(first) == set(PER_LAYER)
    _, _, _, _, second = _train(workload, True)
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    if workload == "train_partitioned":
        assert first["large.kernels"] > 0 and first["gpu.h2d_bytes"] > 0
    else:
        assert first["large.kernels"] == 0 and first["embedding.updates"] > 0


@pytest.mark.parametrize("workload,n", [("serve_direct", 2000), ("serve_routed", 3000)])
def test_serve_smoke_produces_every_metric(workload, n):
    _, correct, attempted, failed, values = serve.run(
        workload, 5, 1.0, False, n=n, setup_rounds=1)
    assert correct and failed == 0 and attempted > 0
    assert set(values) == set(END_TO_END)
    assert values["quality"] == 1.0
    runs = [serve.run(workload, 5, 1.0, True, n=n, setup_rounds=1) for _ in range(2)]
    for _, correct, _, _, layers in runs:
        assert correct and set(layers) == set(PER_LAYER)
    for name in DETERMINISTIC:
        assert runs[0][4][name] == runs[1][4][name], name
    assert runs[0][4]["query.rows_scored_per_query"] == n
    routed = workload == "serve_routed"
    assert (runs[0][4]["router.shard_queries_per_query"] == 2) == routed


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

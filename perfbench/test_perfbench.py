"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import generate as gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from arbor.formats import write_canonical  # noqa: E402
from arbor.graph import Framework  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT = ("_calls", "autodiff.tape_records_per_batch", "inference.expansions_per_relation")


def _smoke(name: str, trace: bool, seed: int = 3) -> dict:
    return run.run_workload(name, seed, 0.0, trace, size="smoke")


def _draw(seed: int) -> list[str]:
    """Everything the generator makes, as text."""
    rng = np.random.default_rng(seed)
    words, concepts = gen.token_pool(50), gen.label_pool(30)
    out = [" ".join(gen.sentence(rng, 6, words).tokens)]
    out += [repr(gen.graph_for(rng, fw, 12, words, concepts)) for fw in Framework]
    out += [write_canonical(r) for r in gen.mixed_corpus(rng, 6, [3, 5], words, concepts)]
    out += [write_canonical(r) for r in gen.vocabulary_corpus(rng, 50, 15, words)]
    gold = gen.amr_graph(rng, 10, concepts)
    out += [repr(gen.perturb_labels(rng, gold)), repr(gen.oracle_pair(rng, 5))]
    out += [repr(gen.perturb_edges(rng, gen.graph_for(rng, Framework.DM, 8, words, concepts)[0],
                                   gen.DM_LABELS))]
    return out


def test_generator_is_deterministic_per_seed():
    assert _draw(7) == _draw(7)
    assert _draw(7) != _draw(8)


def test_generator_sizes_do_not_depend_on_the_seed():
    sizes = {
        seed: [len(gen.graph_for(np.random.default_rng(seed), fw, 20, gen.token_pool(40),
                                 gen.label_pool(20))[0].nodes) for fw in Framework]
        for seed in (1, 2, 3)
    }
    assert sizes[1] == sizes[2] == sizes[3]


def test_vocabulary_corpus_covers_every_label_and_relation():
    records = gen.vocabulary_corpus(np.random.default_rng(0), 95, 23, gen.token_pool(30))
    labels = {n["label"] for r in records for n in r.nodes}
    rels = {e["label"] for r in records for e in r.edges}
    assert labels == set(gen.label_pool(95))
    assert rels == set(gen.relation_pool(23))


def test_clock_times_every_item_and_returns_exceptions():
    speed = Speed(("python",))
    clock = workloads.Clock(speed)
    assert clock.time(sum, [1, 2]) == 3
    assert isinstance(clock.time(int, "x"), ValueError)
    assert len(clock.seconds) == 2
    assert len(speed.samples["python"]) >= 2 and speed.slowdown() > 0


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_has_no_failures_and_declared_metrics(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _smoke(name, trace)
        assert result["failed"] == 0 and result["correct"], result
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        if trace:
            assert result["metrics"]["trace.span_coverage"]["value"] >= 0.95
        else:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["parse-beam5-small", "train-small"])
def test_exact_counts_repeat_between_runs(name):
    first, second = (_smoke(name, True)["metrics"] for _ in range(2))
    exact = [k for k in first if k.endswith(EXACT)]
    assert exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

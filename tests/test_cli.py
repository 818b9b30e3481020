import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arbor
from arbor import cli
from arbor.cli import _write_graph, main
from arbor.formats import (
    CanonicalGraphRecord,
    arbor_from_json,
    read_canonical,
    read_penman,
    write_canonical,
)
from arbor.graph import Framework, graph_isomorphic
from arbor.inference import parse
from arbor.model import TransducerModel, encoder_input_from_record

from conftest import synthetic_corpus
from test_evaluate import CLIMB_MISSES, criterion11_pair

VINKEN = "(e / express-01 :ARG0 (p / person) :ARG1 (c / concern :poss p))"


def run_cli(*args):
    """``arbor`` in a child process, so that its real stderr is seen."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(arbor.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "arbor.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(write_canonical(r) + "\n")


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    records = synthetic_corpus()
    train = base / "train.jsonl"
    write_corpus(train, records)
    return base, train, records


class TestConvert:
    def test_penman_round_trip_through_arbor(self, tmp_path):
        src = tmp_path / "in.penman"
        src.write_text(VINKEN + "\n")
        arbors = tmp_path / "arbors.jsonl"
        assert main(["convert", "--framework", "amr", "--direction", "to-arbor",
                     "--format", "penman", "--input", str(src),
                     "--output", str(arbors)]) == 0
        _, arbor = arbor_from_json(arbors.read_text().strip())
        persons = [n for n in arbor.nodes() if n.label == "person"]
        assert len(persons) == 2 and {n.index for n in persons} == {2}

        back = tmp_path / "out.penman"
        assert main(["convert", "--framework", "amr", "--direction", "from-arbor",
                     "--format", "penman", "--input", str(arbors),
                     "--output", str(back)]) == 0
        assert graph_isomorphic(read_penman(VINKEN), read_penman(back.read_text()))

    def test_sdp_to_arbor(self, tmp_path):
        src = tmp_path / "in.sdp"
        src.write_text("1\ta\ta\tDT\t+\t+\t_\n2\tb\tb\tNN\t-\t-\tARG1\n")
        out = tmp_path / "arbors.jsonl"
        assert main(["convert", "--framework", "dm", "--direction", "to-arbor",
                     "--format", "sdp", "--input", str(src), "--output", str(out)]) == 0
        _, arbor = arbor_from_json(out.read_text().strip())
        assert arbor.root.label == "a"

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("framework, fmt, text", [
        ("amr", "penman", VINKEN + "\n"),
        ("dm", "sdp", "1\ta\ta\tDT\t+\t+\t_\n2\tb\tb\tNN\t-\t-\tARG1\n"),
    ], ids=["penman", "sdp"])
    def test_input_file_is_closed(self, tmp_path, framework, fmt, text):
        src = tmp_path / f"in.{fmt}"
        src.write_text(text)
        assert main(["convert", "--framework", framework, "--direction", "to-arbor",
                     "--format", fmt, "--input", str(src),
                     "--output", str(tmp_path / "arbors.jsonl")]) == 0

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["convert", "--framework", "amr", "--direction", "to-arbor",
                     "--format", "penman", "--input", str(tmp_path / "nope"),
                     "--output", str(tmp_path / "out")]) == 2

    def test_malformed_input_is_validation_error(self, tmp_path):
        src = tmp_path / "bad.penman"
        src.write_text("(a / alpha :mod (b / beta) :mod b\n")
        assert main(["convert", "--framework", "amr", "--direction", "to-arbor",
                     "--format", "penman", "--input", str(src),
                     "--output", str(tmp_path / "out")]) == 1

    def test_deeply_nested_input_is_reported_without_traceback(self, tmp_path):
        depth = 2000
        src = tmp_path / "deep.penman"
        src.write_text("".join(f"(n{i} / x :ARG0 " for i in range(depth)) + "(z / y)"
                       + ")" * depth + "\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(arbor.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "arbor.cli", "convert", "--framework", "amr",
             "--direction", "to-arbor", "--format", "penman", "--input", str(src),
             "--output", str(tmp_path / "out.jsonl")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "input nested too deeply" in proc.stderr

    def test_deeply_nested_record_is_skipped(self, tmp_path):
        depth = 2000
        deep = "".join(f"(n{i} / x :ARG0 " for i in range(depth)) + "(z / y)" + ")" * depth
        src = tmp_path / "mixed.penman"
        src.write_text(f"{VINKEN}\n\n{deep}\n\n{VINKEN}\n")
        out = tmp_path / "out.jsonl"
        proc = run_cli("convert", "--framework", "amr", "--direction", "to-arbor",
                       "--format", "penman", "--input", src, "--output", out)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "record 1: input nested too deeply" in proc.stderr
        assert [arbor_from_json(line)[0] for line in out.read_text().splitlines()] == ["0", "2"]


def canonical_line(record_id, nodes, edges, tops):
    return json.dumps({"id": record_id, "framework": "amr", "tokens": ["a"], "pos": ["DT"],
                       "nodes": nodes, "edges": edges, "tops": tops})


GOOD_NODES = [{"id": "x", "label": "want-01"}, {"id": "y", "label": "person"}]
GOOD_EDGES = [{"src": "x", "tgt": "y", "label": "ARG0"}]


class TestBadRecords:
    """``convert`` and ``eval`` report a record whose graph cannot be built,
    converted or written as ``record <id>: <error>``, handle every other
    record and exit 1.  ``convert``, ``linearize`` and ``parse`` report a
    JSON line that does not parse as ``line <n>: <error>`` and skip it;
    ``eval`` and ``train`` stop at it."""

    def test_to_arbor_skips_bad_canonical_records(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join([
            canonical_line("g1", GOOD_NODES, GOOD_EDGES, ["x"]),
            canonical_line("dangling", GOOD_NODES, [{"src": "x", "tgt": "z", "label": "ARG0"}],
                           ["x"]),
            canonical_line("no-id", [{"label": "want-01"}], [], []),
            canonical_line("g2", GOOD_NODES, GOOD_EDGES, ["x"]),
        ]) + "\n")
        out = tmp_path / "arbors.jsonl"
        proc = run_cli("convert", "--framework", "amr", "--direction", "to-arbor",
                       "--format", "canonical", "--input", src, "--output", out)
        assert proc.returncode == 1
        assert [arbor_from_json(line)[0] for line in out.read_text().splitlines()] == ["g1", "g2"]
        assert "record dangling: edge x->z references unknown node" in proc.stderr
        assert "record no-id: bad node or edge: KeyError('id')" in proc.stderr
        assert "2 of 4 records failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_to_arbor_skips_bad_penman_block(self, tmp_path):
        src = tmp_path / "in.penman"
        src.write_text(VINKEN + "\n\n(a / alpha :mod (b / beta)\n\n" + VINKEN + "\n")
        out = tmp_path / "arbors.jsonl"
        proc = run_cli("convert", "--framework", "amr", "--direction", "to-arbor",
                       "--format", "penman", "--input", src, "--output", out)
        assert proc.returncode == 1
        assert [arbor_from_json(line)[0] for line in out.read_text().splitlines()] == ["0", "2"]
        assert "record 1: unbalanced parentheses" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_from_arbor_skips_unconvertible_record(self, tmp_path):
        good = {"label": "want-01", "index": 1,
                "children": [["ARG0", {"label": "person", "index": 2}]]}
        clash = {"label": "want-01", "index": 1,
                 "children": [["ARG0", {"label": "person", "index": 1}]]}
        src = tmp_path / "arbors.jsonl"
        src.write_text("".join(json.dumps({"id": i, "root": r}) + "\n"
                               for i, r in (("g1", good), ("clash", clash), ("g2", good))))
        out = tmp_path / "out.penman"
        proc = run_cli("convert", "--framework", "amr", "--direction", "from-arbor",
                       "--format", "penman", "--input", src, "--output", out)
        assert proc.returncode == 1
        blocks = [b for b in out.read_text().split("\n\n") if b.strip()]
        assert len(blocks) == 2
        assert all(read_penman(b).nodes for b in blocks)
        assert "record clash: index 1 carries labels" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_json_lines_are_reported_and_skipped(self, tmp_path):
        good = {"label": "want-01", "index": 1, "children": []}
        src = tmp_path / "arbors.jsonl"
        src.write_text("".join([json.dumps({"id": "g1", "root": good}) + "\n", "{not json\n",
                                "5\n", "\n", json.dumps({"id": "g2", "root": good}) + "\n"]))
        out = tmp_path / "out.jsonl"
        proc = run_cli("convert", "--framework", "amr", "--direction", "from-arbor",
                       "--input", src, "--output", out)
        assert proc.returncode == 1
        assert [r.id for r in map(read_canonical, out.read_text().splitlines())] == ["g1", "g2"]
        assert "line 2: bad arborescence JSON" in proc.stderr
        assert "line 3: bad arborescence record: a record must be an object, got int" in proc.stderr
        assert "2 of 4 records failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_wrong_shape_canonical_lines_are_reported_and_skipped(self, tmp_path):
        src = tmp_path / "in.jsonl"
        tokens_5 = json.loads(canonical_line("t", GOOD_NODES, GOOD_EDGES, ["x"]))
        tokens_5["tokens"] = 5
        features = json.loads(canonical_line("f", GOOD_NODES, GOOD_EDGES, ["x"]))
        features["features"] = [1]
        src.write_text("\n".join([
            canonical_line("g1", GOOD_NODES, GOOD_EDGES, ["x"]), "[1, 2]",
            json.dumps(tokens_5), json.dumps(features),
            canonical_line("g2", GOOD_NODES, GOOD_EDGES, ["x"]),
        ]) + "\n")
        out = tmp_path / "arbors.jsonl"
        proc = run_cli("convert", "--framework", "amr", "--direction", "to-arbor",
                       "--format", "canonical", "--input", src, "--output", out)
        assert proc.returncode == 1
        assert [arbor_from_json(line)[0] for line in out.read_text().splitlines()] == ["g1", "g2"]
        assert "line 2: bad canonical record: a record must be an object, got list" in proc.stderr
        assert "line 3: bad canonical record: tokens must be a list, got int" in proc.stderr
        assert "line 4: bad canonical record: features must be an object, got list" in proc.stderr
        assert "3 of 5 records failed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_linearize_skips_bad_lines(self, tmp_path):
        good = {"label": "want-01", "index": 1,
                "children": [["ARG0", {"label": "person", "index": 2}]]}
        src = tmp_path / "arbors.jsonl"
        src.write_text("".join([json.dumps({"id": "g1", "root": good}) + "\n", "5\n",
                                json.dumps({"id": "g2", "root": good}) + "\n"]))
        tsv = tmp_path / "rels.tsv"
        proc = run_cli("linearize", "--input", src, "--output", tsv)
        assert proc.returncode == 1
        assert [b for b in tsv.read_text().split("\n\n") if b.strip()] == [
            "@root@\t0\troot\twant-01\t1\nwant-01\t1\tARG0\tperson\t2"] * 2
        assert "line 2: bad arborescence record: a record must be an object, got int" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_eval_stops_at_a_bad_line_and_names_it(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(canonical_line("a", GOOD_NODES, GOOD_EDGES, ["x"]) + "\n[1, 2]\n")
        out = tmp_path / "report.json"
        proc = run_cli("eval", "--gold", gold, "--pred", gold, "--output", out)
        assert proc.returncode == 1
        assert f"{gold}: line 2: bad canonical record" in proc.stderr
        assert not out.exists()
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("repeated", ["gold", "pred"])
    def test_eval_rejects_a_repeated_id(self, tmp_path, repeated):
        one = [{"id": "x", "label": "dog"}]
        files = {}
        for name in ("gold", "pred"):
            files[name] = tmp_path / f"{name}.jsonl"
            ids = ("a", "b", "a") if name == repeated else ("a", "b")
            files[name].write_text("\n".join(canonical_line(i, one, [], ["x"]) for i in ids)
                                   + "\n")
        out = tmp_path / "report.json"
        proc = run_cli("eval", "--gold", files["gold"], "--pred", files["pred"],
                       "--output", out)
        assert proc.returncode == 1
        assert f"{files[repeated]}: repeated ids: ['a']" in proc.stderr
        assert not out.exists()
        assert "Traceback" not in proc.stderr

    def test_eval_scores_the_other_records(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("\n".join(canonical_line(i, GOOD_NODES, GOOD_EDGES, ["x"])
                                  for i in ("a", "b", "c")) + "\n")
        pred = tmp_path / "pred.jsonl"
        wrong = [{"id": "x", "label": "want-01"}, {"id": "y", "label": "dog"}]
        pred.write_text("\n".join([
            canonical_line("a", GOOD_NODES, GOOD_EDGES, ["x"]),
            canonical_line("b", GOOD_NODES, [{"src": "x", "tgt": "q", "label": "ARG0"}], ["x"]),
            canonical_line("c", wrong, GOOD_EDGES, ["x"]),
        ]) + "\n")
        out = tmp_path / "report.json"
        proc = run_cli("eval", "--gold", gold, "--pred", pred, "--output", out)
        assert proc.returncode == 1
        report = json.loads(out.read_text())
        assert report["failed_ids"] == ["b"]
        assert report["graphs"] == 2
        # a: 3 of 3 triples, c: 2 of 3 (the concept of y differs)
        assert (report["matched"], report["gold_triples"], report["predicted_triples"]) == (5, 6, 6)
        assert "record b: edge x->q references unknown node" in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_eval_reports_a_pair_of_different_frameworks(self, tmp_path):
        # a DM gold graph and an AMR prediction under one id: no scorer
        # compares graphs across frameworks
        dm = json.loads(canonical_line("a", [{"id": "x", "label": "a", "anchors": [0]}], [],
                                       ["x"]))
        dm["framework"] = "dm"
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        gold.write_text(json.dumps(dm) + "\n"
                        + canonical_line("b", GOOD_NODES, GOOD_EDGES, ["x"]) + "\n")
        pred.write_text(canonical_line("a", [{"id": "x", "label": "a"}], [], ["x"]) + "\n"
                        + canonical_line("b", GOOD_NODES, GOOD_EDGES, ["x"]) + "\n")
        out = tmp_path / "report.json"
        proc = run_cli("eval", "--gold", gold, "--pred", pred, "--output", out)
        assert proc.returncode == 1
        report = json.loads(out.read_text())
        assert report["failed_ids"] == ["a"]
        assert (report["graphs"], report["f1"]) == (1, 1.0)
        assert "record a: dm vs amr" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_eval_exact_mode_beats_hill_climbing(tmp_path):
    # a pair on which hill climbing misses the optimum by a triple or two
    gold, pred = criterion11_pair(np.random.default_rng(CLIMB_MISSES[0]))
    gold_path, pred_path = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    write_corpus(gold_path, [CanonicalGraphRecord.from_graph("a", gold, ["a"])])
    write_corpus(pred_path, [CanonicalGraphRecord.from_graph("a", pred, ["a"])])
    matched = {}
    for mode in ("hill_climb", "exact"):
        out = tmp_path / f"{mode}.json"
        assert main(["eval", "--gold", str(gold_path), "--pred", str(pred_path),
                     "--output", str(out), "--smatch-mode", mode]) == 0
        matched[mode] = json.loads(out.read_text())["matched"]
    assert matched["exact"] > matched["hill_climb"]


class TestLinearize:
    def test_tsv_format(self, tmp_path):
        src = tmp_path / "in.penman"
        src.write_text(VINKEN + "\n")
        arbors = tmp_path / "arbors.jsonl"
        main(["convert", "--framework", "amr", "--direction", "to-arbor",
              "--format", "penman", "--input", str(src), "--output", str(arbors)])
        tsv = tmp_path / "rels.tsv"
        assert main(["linearize", "--policy", "alphanumeric",
                     "--input", str(arbors), "--output", str(tsv)]) == 0
        lines = [l for l in tsv.read_text().splitlines() if l]
        assert lines[0].split("\t") == ["@root@", "0", "root", "express-01", "1"]
        assert all(len(l.split("\t")) == 5 for l in lines)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_files):
    base, train_file, records = corpus_files
    ckpt = tmp_path_factory.mktemp("model") / "model.ckpt"
    metrics = ckpt.with_suffix(".metrics.jsonl")
    code = main([
        "train", "--framework", "amr", "--train", str(train_file),
        "--output", str(ckpt), "--metrics", str(metrics),
        "--hidden", "16", "--max-epochs", "2", "--patience", "5",
        "--batch-size", "8", "--seed", "3",
    ])
    assert code == 0
    return ckpt, metrics, records


class TestTrainParseEvalBench:
    def test_metrics_log_written(self, trained):
        _, metrics, _ = trained
        entries = [json.loads(l) for l in Path(metrics).read_text().splitlines()]
        assert len(entries) == 2
        assert {"epoch", "train_loss", "dev_f1", "lr", "seconds"} <= set(entries[0])

    def test_parse_greedy_equals_beam_one(self, trained, tmp_path):
        ckpt, _, records = trained
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:4])
        out_greedy = tmp_path / "greedy.jsonl"
        out_beam1 = tmp_path / "beam1.jsonl"
        assert main(["parse", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(out_greedy), "--greedy"]) == 0
        assert main(["parse", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(out_beam1), "--beam", "1"]) == 0
        assert out_greedy.read_text() == out_beam1.read_text()

    @pytest.mark.parametrize("beam", ["0", "-2"])
    def test_parse_rejects_beam_below_one(self, trained, tmp_path, beam):
        ckpt, _, records = trained
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:1])
        out = tmp_path / "parsed.jsonl"
        assert main(["parse", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(out), "--beam", beam]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    def test_parse_rejects_max_len_below_one(self, trained, tmp_path, max_len):
        ckpt, _, records = trained
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:1])
        out = tmp_path / "parsed.jsonl"
        assert main(["parse", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(out), "--max-len", max_len]) == 1
        assert not out.exists()

    # with no records no decode runs, so the limit is checked on its own
    @pytest.mark.parametrize("command", ["parse", "bench"])
    def test_max_len_below_one_rejected_on_empty_input(self, trained, tmp_path, command):
        ckpt, _, _ = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "out.json"
        assert main([command, "--model", str(ckpt), "--input", str(empty),
                     "--output", str(out), "--max-len", "0"]) == 1
        assert not out.exists()

    def test_bench_rejects_max_len_zero(self, trained, tmp_path):
        ckpt, _, records = trained
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:1])
        out = tmp_path / "speed.json"
        assert main(["bench", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(out), "--max-len", "0"]) == 1
        assert not out.exists()

    def test_parse_then_eval(self, trained, tmp_path):
        ckpt, _, records = trained
        gold = tmp_path / "gold.jsonl"
        amr_records = [r for r in records if r.framework == Framework.AMR][:3]
        write_corpus(gold, amr_records)
        pred = tmp_path / "pred.jsonl"
        assert main(["parse", "--model", str(ckpt), "--input", str(gold),
                     "--output", str(pred), "--greedy"]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["f1"] <= 1.0
        assert report["graphs"] == 3
        assert "invalid_rate" in report

    def test_bench_rejects_a_file_with_no_sentences(self, trained, tmp_path, caplog):
        ckpt, _, _ = trained
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "speed.json"
        assert main(["bench", "--model", str(ckpt), "--input", str(empty),
                     "--output", str(out)]) == 1
        assert f"{empty}: no sentences to benchmark" in caplog.text
        assert not out.exists()

    def test_eval_rejects_predictions_without_gold(self, tmp_path, caplog):
        records = synthetic_corpus()
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        amr = [r for r in records if r.framework == Framework.AMR]
        write_corpus(gold, amr)
        write_corpus(pred, records)
        out = tmp_path / "report.json"
        assert main(["eval", "--gold", str(gold), "--pred", str(pred),
                     "--output", str(out)]) == 1
        unscored = sorted({r.id for r in records} - {r.id for r in amr})
        assert len(amr) < len(records)
        assert f"gold records missing for predicted ids: {unscored[:5]}" in caplog.text
        assert not out.exists()

    def test_bench_report(self, trained, tmp_path):
        ckpt, _, records = trained
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:3])
        out = tmp_path / "speed.json"
        assert main(["bench", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(out), "--beam", "2", "--max-len", "8"]) == 0
        payload = json.loads(out.read_text())
        assert payload["step_counts_exact"] is True
        assert payload["greedy_tokens_per_sec"] > 0

    def test_parse_output_readable_as_canonical(self, trained, tmp_path):
        ckpt, _, records = trained
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:2])
        out = tmp_path / "parsed.jsonl"
        main(["parse", "--model", str(ckpt), "--input", str(sentences),
              "--output", str(out), "--greedy"])
        for line in out.read_text().splitlines():
            record = read_canonical(line)
            record.graph()  # structurally valid

    def test_parse_writes_each_record_in_its_own_framework(self, trained, tmp_path):
        """A model trained on a mixed corpus parses each record into its
        record's framework, so eval scores every pair."""
        ckpt, _, records = trained
        sentences, pred = tmp_path / "sents.jsonl", tmp_path / "pred.jsonl"
        write_corpus(sentences, records)
        assert main(["parse", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(pred), "--greedy"]) == 0
        written = [read_canonical(line) for line in pred.read_text().splitlines()]
        assert [(r.id, r.framework) for r in written] == [(r.id, r.framework) for r in records]
        assert {r.framework for r in written} == set(Framework)
        report_path = tmp_path / "report.json"
        assert main(["eval", "--gold", str(sentences), "--pred", str(pred),
                     "--output", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["graphs"] == len(records)

    def test_parse_skips_bad_record(self, trained, tmp_path):
        ckpt, _, records = trained
        empty = dataclasses.replace(records[1], id="empty-one", tokens=[], pos=[])
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, [records[0], empty, records[2]])
        out = tmp_path / "parsed.jsonl"
        proc = run_cli("parse", "--model", ckpt, "--input", sentences, "--output", out,
                       "--greedy")
        assert proc.returncode == 1
        written = [read_canonical(line) for line in out.read_text().splitlines()]
        assert [r.id for r in written] == [records[0].id, records[2].id]
        assert "record empty-one: cannot encode an empty sentence" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("search, chunk", [(["--greedy"], 1024), (["--beam", "3"], 1024),
                                               (["--greedy"], 4)])
    def test_parse_batch_equals_per_record_parse(self, trained, tmp_path, monkeypatch,
                                                 search, chunk):
        """Records of 3, 4 and 5 tokens, several of each, with a bad one in
        the middle: the batched decode writes what ``inference.parse`` gives
        for each good record alone in its own framework, in input order,
        also when the records are decoded in several chunks."""
        monkeypatch.setattr(cli, "PARSE_CHUNK", chunk)
        ckpt, _, records = trained
        empty = dataclasses.replace(records[1], id="empty-one", tokens=[], pos=[])
        chosen = records[9:14] + [empty] + records[22:27]
        assert len({len(r.tokens) for r in chosen}) == 4
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, chosen)
        out = tmp_path / "parsed.jsonl"
        assert main(["parse", "--model", str(ckpt), "--input", str(sentences),
                     "--output", str(out), *search]) == 1
        model = TransducerModel.load(ckpt)
        expected = io.StringIO()
        for r in chosen:
            if r.tokens:
                graph = parse(model, encoder_input_from_record(r),
                              beam_size=1 if search == ["--greedy"] else 3,
                              max_len=2 * len(r.tokens) + 10, framework=r.framework)
                _write_graph(expected, r.id, graph, "canonical", r.tokens, r.pos)
        assert out.read_text() == expected.getvalue()

    def test_parse_skips_bad_line(self, trained, tmp_path):
        ckpt, _, records = trained
        sentences = tmp_path / "sents.jsonl"
        sentences.write_text("".join([write_canonical(records[0]) + "\n", "{not json\n",
                                      write_canonical(records[2]) + "\n"]))
        out = tmp_path / "parsed.jsonl"
        proc = run_cli("parse", "--model", ckpt, "--input", sentences, "--output", out,
                       "--greedy")
        assert proc.returncode == 1
        written = [read_canonical(line) for line in out.read_text().splitlines()]
        assert [r.id for r in written] == [records[0].id, records[2].id]
        assert "line 2: bad canonical JSON" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("header, message", [
        ('{"format_version": 1}', "bad checkpoint header: missing 'hyperparameters'"),
        ("[1]", "bad checkpoint header: the header must be an object, got list"),
        ('{"format_version": 1, "hyperparameters": {}, "vocabularies": {}, '
         '"tensors": [{"name": "x", "shape": [1], "offset": -4}]}',
         "tensor 'x' at offset -4, expected 0"),
    ])
    def test_parse_bad_checkpoint_is_reported(self, trained, tmp_path, header, message):
        _, _, records = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(header.encode("utf-8") + b"\n" + bytes(4))
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:1])
        out = tmp_path / "parsed.jsonl"
        proc = run_cli("parse", "--model", bad, "--input", sentences, "--output", out,
                       "--greedy")
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_train_stops_at_a_bad_line_and_names_it(self, corpus_files, tmp_path):
        _, train_file, _ = corpus_files
        bad = tmp_path / "bad.jsonl"
        bad.write_text(train_file.read_text() + '{"id": "x", "tokens": 5}\n')
        proc = run_cli("train", "--framework", "amr", "--train", bad,
                       "--output", tmp_path / "m.ckpt", "--hidden", "8", "--max-epochs", "1")
        assert proc.returncode == 1
        assert f"{bad}: line 33: bad canonical record" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_rejects_empty_sentence(self, corpus_files, tmp_path):
        _, _, records = corpus_files
        bad = tmp_path / "bad.jsonl"
        write_corpus(bad, [records[0], dataclasses.replace(records[1], tokens=[], pos=[])])
        proc = run_cli("train", "--framework", "amr", "--train", bad,
                       "--output", tmp_path / "m.ckpt", "--hidden", "8", "--max-epochs", "1")
        assert proc.returncode == 1
        assert "training pair 1: cannot encode an empty sentence" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_determinism(self, corpus_files, tmp_path):
        base, train_file, _ = corpus_files
        logs = []
        for run in range(2):
            ckpt = tmp_path / f"m{run}.ckpt"
            metrics = tmp_path / f"m{run}.jsonl"
            assert main(["train", "--framework", "amr", "--train", str(train_file),
                         "--output", str(ckpt), "--metrics", str(metrics),
                         "--hidden", "8", "--max-epochs", "2", "--patience", "5",
                         "--batch-size", "16", "--seed", "9"]) == 0
            logs.append([json.loads(l)["train_loss"]
                         for l in Path(metrics).read_text().splitlines()])
        assert logs[0] == logs[1]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_config_key(self, tmp_path, corpus_files):
        _, train_file, _ = corpus_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_option": 1}')
        assert main(["train", "--framework", "amr", "--train", str(train_file),
                     "--output", str(tmp_path / "m.ckpt"), "--config", str(cfg)]) == 1

    def test_removed_config_key_is_rejected_by_name(self, tmp_path, corpus_files):
        _, train_file, _ = corpus_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"eval_every": 2}')
        proc = run_cli("train", "--framework", "amr", "--train", train_file,
                       "--output", tmp_path / "m.ckpt", "--config", cfg,
                       "--hidden", "8", "--max-epochs", "1")
        assert proc.returncode == 1
        assert "unknown config keys: ['eval_every']" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()


class TestConfigChecks:
    """A config value of the wrong type or out of range ends the command with
    exit 1 and a message naming the field, before any training or parsing."""

    @pytest.mark.parametrize("option, value, message", [
        ("--config", '{"batch_size": "8"}', "config field batch_size: expected type int, got '8'"),
        ("--config", "[1, 2]", "--config must hold a JSON object, got list"),
        ("--dropout", "2", "config field dropout: expected a number in [0, 1), got 2.0"),
        ("--hidden", "-4", "config field encoder_hidden: expected a positive number, got -4"),
        ("--max-epochs", "0", "config field max_epochs: expected a positive number, got 0"),
    ], ids=["config-str", "config-list", "dropout", "hidden", "max-epochs"])
    def test_train_rejects_a_bad_value(self, corpus_files, tmp_path, caplog, option, value,
                                       message):
        _, train_file, _ = corpus_files
        if option == "--config":
            (tmp_path / "cfg.json").write_text(value)
            value = str(tmp_path / "cfg.json")
        assert main(["train", "--framework", "amr", "--train", str(train_file), "--output",
                     str(tmp_path / "m.ckpt"), "--max-epochs", "1", option, value]) == 1
        assert message in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "m.ckpt").exists()

    def test_parse_rejects_a_checkpoint_config_of_the_wrong_type(self, trained, tmp_path,
                                                                 caplog):
        ckpt, _, records = trained
        header, payload = Path(ckpt).read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["hyperparameters"]["config"]["word_dim"] = "16"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        sentences = tmp_path / "sents.jsonl"
        write_corpus(sentences, records[:1])
        assert main(["parse", "--model", str(bad), "--input", str(sentences),
                     "--output", str(tmp_path / "out.jsonl"), "--greedy"]) == 1
        assert "bad checkpoint model description" in caplog.text
        assert "config field word_dim: expected type int, got '16'" in caplog.text

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arbor
from arbor.cli import main
from arbor.formats import (
    arbor_from_json,
    read_canonical,
    read_penman,
    write_canonical,
)
from arbor.graph import Framework, graph_isomorphic

from conftest import synthetic_corpus

VINKEN = "(e / express-01 :ARG0 (p / person) :ARG1 (c / concern :poss p))"


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

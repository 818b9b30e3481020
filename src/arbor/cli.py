"""Command-line entry point.

Subcommands: convert, linearize, train, parse, eval, bench.  Exit codes:
0 success, 1 validation/usage error, 2 I/O error.  Config precedence for
training hyperparameters: command-line flags > --config JSON file >
built-in defaults.  Set ARBOR_LOG={error,info,debug} to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from . import convert as conv
from . import formats
from .evaluate import F1Report, labeled_triple_f1, speed_bench, validity_audit
from .graph import Framework, GraphError
from .inference import decode_batch, to_graph
from .linearize import OrderingPolicy, arbor_to_relations
from .model import ModelConfig, TransducerModel, build_vocabularies, encoder_input_from_record
from .training import TrainConfig, prepare_corpus, train as run_training

log = logging.getLogger("arbor")


class CliError(ValueError):
    pass


class _Failures:
    """A record whose graph cannot be built, converted, scored or written,
    or that is nested too deeply for the recursive tree walks, is reported
    on stderr as ``record <id>: <error>`` and skipped; a JSONL line that
    does not parse, as ``line <n>: <error>``."""

    def __init__(self):
        self.ids: list[str] = []
        self.seen = 0

    @contextmanager
    def record(self, record_id: str, counted: bool = False):
        """Report and skip a failure of the block; ``counted`` marks a later
        stage of a record that an earlier ``record`` block already counted."""
        self.seen += not counted
        try:
            yield
        except ValueError as exc:  # GraphError, FormatError and SmatchError among them
            log.error("record %s: %s", record_id, exc)
            self.ids.append(record_id)
        except RecursionError:  # the tree walks recurse once per nesting level
            log.error("record %s: input nested too deeply", record_id)
            self.ids.append(record_id)

    def lines(self, fh, read):
        """``read(line)`` of each non-blank line of the open file ``fh``, a
        line that it rejects reported and skipped."""
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                item = read(line)
            except ValueError as exc:  # FormatError among them
                error = exc
            except RecursionError:
                error = "input nested too deeply"
            else:
                yield item
                continue
            self.seen += 1
            log.error("line %d: %s", number, error)
            self.ids.append(f"line {number}")

    def exit_code(self) -> int:
        if self.ids:
            log.error("%d of %d records failed", len(self.ids), self.seen)
        return 1 if self.ids else 0


def _setup_logging() -> None:
    level = os.environ.get("ARBOR_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Graph file I/O by format


def _graph_readers(path: str, fmt: str, failures: _Failures) -> list:
    """(record id, function that builds its graph) for each record of a
    graph file; a malformed canonical JSON line is reported and skipped."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "canonical":
            return [(record.id, record.graph)
                    for record in failures.lines(fh, formats.read_canonical)]
        text = fh.read()
    if fmt == "penman":
        blocks = [b.strip() for b in text.split("\n\n") if b.strip()]
        return [(str(i), lambda b=b: formats.read_penman(b)) for i, b in enumerate(blocks)]
    return [(str(i), lambda b=b: formats.read_sdp(b)[1])
            for i, b in enumerate(formats.iter_sdp_blocks(text))]


def _write_graph(fh, record_id: str, graph, fmt: str, tokens=None, pos=None):
    if fmt == "penman":
        fh.write(formats.write_penman(graph) + "\n\n")
    elif fmt == "sdp":
        rows = [formats.SdpToken(t, t, p) for t, p in zip(tokens, pos or ["_"] * len(tokens))]
        fh.write(formats.write_sdp(rows, graph) + "\n")
    else:
        record = formats.CanonicalGraphRecord.from_graph(
            record_id, graph, tokens or [], pos or None
        )
        fh.write(formats.write_canonical(record) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_convert(args) -> int:
    framework = Framework(args.framework)
    failures = _Failures()
    if args.direction == "to-arbor":
        readers = _graph_readers(args.input, args.format, failures)
        with open(args.output, "w", encoding="utf-8") as out:
            for record_id, read_graph in readers:
                with failures.record(record_id):
                    graph = read_graph()
                    if graph.framework != framework:
                        raise CliError(f"framework {graph.framework.value} != {args.framework}")
                    out.write(formats.arbor_to_json(conv.to_arbor(graph), record_id) + "\n")
        return failures.exit_code()
    if args.format == "sdp":
        raise CliError("sdp output needs token rows; use canonical input")
    with open(args.input, encoding="utf-8") as fh:
        arbors = list(failures.lines(fh, formats.arbor_from_json))
    with open(args.output, "w", encoding="utf-8") as out:
        for record_id, arbor in arbors:
            with failures.record(record_id):
                _write_graph(out, record_id, conv.from_arbor(arbor, framework), args.format)
    return failures.exit_code()


def cmd_linearize(args) -> int:
    policy = OrderingPolicy(args.policy)
    failures = _Failures()
    with open(args.input, encoding="utf-8") as fh, open(args.output, "w", encoding="utf-8") as out:
        for record_id, arbor in failures.lines(fh, formats.arbor_from_json):
            with failures.record(record_id):
                seq = arbor_to_relations(arbor, policy)
                for rel in seq.relations:
                    out.write(
                        f"{rel.source}\t{rel.source_index}\t{rel.rel}\t"
                        f"{rel.target}\t{rel.target_index}\n"
                    )
                out.write("\n")
    return failures.exit_code()


def _train_config(args) -> TrainConfig:
    base = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise CliError(f"--config must hold a JSON object, got {type(base).__name__}")
    names = {f.name for f in fields(TrainConfig)}
    unknown = set(base) - names
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    return TrainConfig(**base)


def cmd_train(args) -> int:
    records = formats.read_canonical_file(args.train)
    dev_records = formats.read_canonical_file(args.dev) if args.dev else records
    train_pairs, sense_counts = prepare_corpus(records)
    dev_pairs, _ = prepare_corpus(dev_records)
    cfg = _train_config(args)

    overrides = {}
    if args.hidden is not None:
        overrides.update(encoder_hidden=args.hidden, relation_hidden=2 * args.hidden)
    if args.dropout is not None:
        overrides.update(dropout=args.dropout)
    model_config = ModelConfig.defaults(args.framework, **overrides)
    vocabs = build_vocabularies(model_config, [p[0] for p in train_pairs],
                                [p[1] for p in train_pairs])
    word_init = None
    if args.embeddings:
        table = formats.load_embeddings(args.embeddings, dim=model_config.word_dim)
        rng = np.random.default_rng(cfg.seed)
        word_init = rng.uniform(-0.1, 0.1, size=(len(vocabs.enc_word), model_config.word_dim))
        for i, token in enumerate(vocabs.enc_word.itos):
            word_init[i] = table.lookup(token)
    model = TransducerModel(model_config, vocabs, seed=cfg.seed,
                            word_init=word_init, sense_counts=sense_counts)
    log.info("training on %d pairs (%d dev), %d parameters",
             len(train_pairs), len(dev_pairs),
             sum(t.size for t in model.parameters().values()))
    result = run_training(model, train_pairs, dev_pairs, cfg, log_path=args.metrics)
    model.save(args.output)
    log.info("best dev F1 %.4f at epoch %d (%d epochs run)",
             result.best_dev_f1, result.best_epoch, result.epochs_run)
    return 0


def _check_search_args(args) -> None:
    """Reject a beam or length limit no decode can use, before any work."""
    if args.beam < 1:
        raise CliError(f"--beam must be at least 1, got {args.beam}")
    if args.max_len is not None and args.max_len < 1:
        raise CliError(f"--max-len must be at least 1, got {args.max_len}")


# Records one ``decode_batch`` call of ``arbor parse`` decodes: enough for
# full lockstep groups, while the decode results held at once (each with its
# finished pool) stay bounded however long the file is.
PARSE_CHUNK = 1024


def cmd_parse(args) -> int:
    """Parse every record; one that fails is reported and skipped (see
    ``_Failures``), the others are written in input order, and the exit
    code is 1 if any failed.

    Each record is checked first.  The good ones are decoded by one
    ``decode_batch`` call per ``PARSE_CHUNK`` of them (equal-length
    sentences in lockstep), then converted and written one by one.  The
    default length limit is ``2n + 10`` steps for a sentence of ``n``
    tokens.
    """
    _check_search_args(args)
    model = TransducerModel.load(args.model)
    beam = 1 if args.greedy else args.beam
    failures = _Failures()
    checked = []
    with open(args.input, encoding="utf-8") as fh:
        for record in failures.lines(fh, formats.read_canonical):
            with failures.record(record.id):
                inp = encoder_input_from_record(record)
                model.encoder.check(inp)
                checked.append((record, inp))
    with open(args.output, "w", encoding="utf-8") as out:
        for lo in range(0, len(checked), PARSE_CHUNK):
            chunk = checked[lo : lo + PARSE_CHUNK]
            results = decode_batch(
                model, [inp for _, inp in chunk], beam,
                [2 * len(inp.tokens) + 10 if args.max_len is None else args.max_len
                 for _, inp in chunk])
            for (record, _), result in zip(chunk, results):
                with failures.record(record.id, counted=True):
                    graph = to_graph(model, result.sequence, record.framework)
                    _write_graph(out, record.id, graph, args.format, record.tokens, record.pos)
    return failures.exit_code()


def _records_by_id(path) -> dict:
    """The canonical records of ``path`` by id; an id that the file repeats
    is an error, since only one of its records could be scored."""
    records = formats.read_canonical_file(path)
    repeated = sorted(i for i, n in Counter(r.id for r in records).items() if n > 1)
    if repeated:
        raise CliError(f"{path}: repeated ids: {repeated[:5]}")
    return {r.id: r for r in records}


def cmd_eval(args) -> int:
    """Score each prediction against its gold graph; the report counts the
    pairs scored and lists ``failed_ids``, the pairs ``_Failures`` skipped.
    A gold record without a prediction, or a prediction without a gold
    record, is an error."""
    gold, pred = _records_by_id(args.gold), _records_by_id(args.pred)
    missing = sorted(set(gold) - set(pred))
    if missing:
        raise CliError(f"predictions missing for ids: {missing[:5]}")
    unscored = sorted(set(pred) - set(gold))
    if unscored:
        raise CliError(f"gold records missing for predicted ids: {unscored[:5]}")

    failures = _Failures()
    reports, predicted = [], []
    for record_id in sorted(gold):
        with failures.record(record_id):
            g, p = gold[record_id].graph(), pred[record_id].graph()
            reports.append(labeled_triple_f1(g, p, smatch_mode=args.smatch_mode))
            predicted.append(p)
    total = F1Report.from_counts(sum(r.matched for r in reports),
                                 sum(r.gold for r in reports),
                                 sum(r.predicted for r in reports))
    audit = validity_audit(predicted)
    report = {
        "precision": total.precision,
        "recall": total.recall,
        "f1": total.f1,
        "matched": total.matched,
        "gold_triples": total.gold,
        "predicted_triples": total.predicted,
        "graphs": len(predicted),
        "invalid_graphs": audit.invalid,
        "invalid_rate": audit.rate,
        "failed_ids": failures.ids,
    }
    with open(args.output, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    print(json.dumps(report))
    return failures.exit_code()


def cmd_bench(args) -> int:
    _check_search_args(args)
    model = TransducerModel.load(args.model)
    inputs = [encoder_input_from_record(r) for r in formats.read_canonical_file(args.input)]
    if not inputs:
        raise CliError(f"{args.input}: no sentences to benchmark")
    report = speed_bench(model, inputs, beam_size=args.beam,
                         max_len=100 if args.max_len is None else args.max_len)
    payload = {
        "greedy_tokens_per_sec": report.greedy_tokens_per_sec,
        "beam_tokens_per_sec": report.beam_tokens_per_sec,
        "linear_r2": report.linear_r2,
        "step_counts_exact": report.step_counts_exact,
    }
    with open(args.output, "w", encoding="utf-8") as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arbor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="graph file <-> unified arborescence JSONL")
    p.add_argument("--framework", required=True, choices=[f.value for f in Framework])
    p.add_argument("--direction", required=True, choices=["to-arbor", "from-arbor"])
    p.add_argument("--format", default="canonical", choices=["penman", "sdp", "canonical"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("linearize", help="arborescence JSONL -> relation TSV")
    p.add_argument("--policy", default="alphanumeric",
                   choices=[pol.value for pol in OrderingPolicy])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("train", help="train a transducer on canonical JSONL")
    p.add_argument("--framework", required=True, choices=[f.value for f in Framework])
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--output", required=True, help="checkpoint path")
    p.add_argument("--metrics", help="JSONL metrics log path")
    p.add_argument("--config", help="JSON file with TrainConfig overrides")
    p.add_argument("--embeddings", help="pretrained word-vector file")
    p.add_argument("--hidden", type=int, help="encoder hidden size override")
    p.add_argument("--dropout", type=float)
    for name, typ in (("learning_rate", float), ("batch_size", int), ("max_epochs", int),
                      ("patience", int), ("seed", int), ("label_smoothing", float),
                      ("coverage_weight", float), ("max_grad_norm", float)):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="checkpoint + sentences -> graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="canonical JSONL with tokens/pos")
    p.add_argument("--output", required=True)
    p.add_argument("--format", default="canonical", choices=["penman", "sdp", "canonical"])
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--greedy", action="store_true", help="force beam size 1")
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predictions against gold graphs")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--output", required=True, help="JSON report path")
    p.add_argument("--smatch-mode", dest="smatch_mode", default="hill_climb",
                   choices=["hill_climb", "exact"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="decoding speed benchmark")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GraphError, formats.FormatError, formats.CheckpointError, ValueError) as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("I/O error: %s", exc)
        return 2
    except RecursionError:
        # the tree walks recurse once per nesting level
        log.error("input nested too deeply")
        return 1


if __name__ == "__main__":
    sys.exit(main())

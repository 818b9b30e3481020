"""Spans recorded around calls into arbor's public functions.

Nothing inside ``src/arbor`` is instrumented.  A ``Tracer`` replaces
public methods on their classes and module functions on the module the
caller looks them up in (``inference.parse`` finds ``greedy_decode`` and
``from_arbor`` in its own module globals, and ``train`` imports
``greedy_decode`` from ``arbor.inference`` at call time), and puts the
originals back on ``uninstall``.

A span is ``(name, start, end, parent, item, phase, size)``: ``parent`` is
the index of the enclosing span (-1 at top level), ``item`` the sentence,
batch or graph id the benchmark set, ``phase`` one of setup / measure /
check, and ``size`` an optional count taken from the call (relations
returned by a decode, records on a tape).  Spans stay in memory and are
written as JSONL once the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter


def _relations_returned(args, result) -> int:
    return len(result.sequence.relations)


def _tape_records(args, result) -> int:
    return len(args[0].records)


# (module, attribute, span name, size function).  The attribute may name a
# method as ``Class.method``.
PATCHES = [
    ("arbor.model", "TransducerModel.load", "model.load", None),
    ("arbor.encoder", "Encoder.encode", "encoder.encode", None),
    ("arbor.decoder", "Decoder.predict_target", "decoder.predict_target", None),
    ("arbor.decoder", "Decoder.feed_target", "decoder.feed_target", None),
    ("arbor.decoder", "Decoder.point_source", "decoder.point_source", None),
    ("arbor.decoder", "Decoder.source_scores", "decoder.source_scores", None),
    ("arbor.decoder", "Decoder.relation_scores", "decoder.relation_scores", None),
    ("arbor.decoder", "Decoder.relation_dist_all", "decoder.relation_dist_all", None),
    ("arbor.inference", "parse", "inference.parse", None),
    ("arbor.inference", "greedy_decode", "inference.greedy_decode", _relations_returned),
    ("arbor.inference", "beam_decode", "inference.beam_decode", _relations_returned),
    ("arbor.inference", "relations_to_arbor", "linearize.relations_to_arbor", None),
    ("arbor.inference", "from_arbor", "convert.from_arbor", None),
    ("arbor.inference", "amr_restore_senses", "convert.amr_restore_senses", None),
    ("arbor.training", "train", "training.train", None),
    ("arbor.training", "sequence_loss", "training.sequence_loss", None),
    ("arbor.training", "clip_global_norm", "training.clip_global_norm", None),
    ("arbor.training", "adam_step", "training.adam_step", None),
    ("arbor.autodiff", "Tape.backward", "autodiff.backward", _tape_records),
    ("arbor.convert", "to_arbor", "convert.to_arbor", None),
    ("arbor.convert", "from_arbor", "convert.from_arbor", None),
    ("arbor.linearize", "arbor_to_relations", "linearize.arbor_to_relations", None),
    ("arbor.linearize", "relations_to_arbor", "linearize.relations_to_arbor", None),
    ("arbor.formats", "write_penman", "formats.write_penman", None),
    ("arbor.formats", "read_penman", "formats.read_penman", None),
    ("arbor.formats", "write_canonical", "formats.write_canonical", None),
    ("arbor.formats", "read_canonical", "formats.read_canonical", None),
    ("arbor.formats", "CanonicalGraphRecord.from_graph", "formats.record_from_graph", None),
    ("arbor.formats", "CanonicalGraphRecord.graph", "formats.record_graph", None),
    ("arbor.evaluate", "smatch_score", "evaluate.smatch_score", None),
    ("arbor.evaluate", "labeled_triple_f1", "evaluate.labeled_triple_f1", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.phase = "setup"
        self.batches = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, size in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._replace(owner, leaf, lambda fn, name=name, size=size: self._wrap(name, fn, size))
        # a training batch starts when train() opens its tape
        from arbor.autodiff import Tape
        self._replace(Tape, "__enter__", self._count_batch)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals.clear()

    def _replace(self, owner, leaf: str, make) -> None:
        original = inspect.getattr_static(owner, leaf)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._originals.append((owner, leaf, original))
        setattr(owner, leaf, replacement)

    def _count_batch(self, fn):
        def enter(tape):
            self.batches += 1
            self.item = f"batch{self.batches}"
            return fn(tape)
        return enter

    def _wrap(self, name: str, fn, size):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[sid] = [name, start, perf_counter(), parent, self.item, self.phase, None]
                raise
            end = perf_counter()
            stack.pop()
            spans[sid] = [name, start, end, parent, self.item, self.phase,
                          size(args, result) if size else None]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path, header: dict, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, start, end, parent, item, phase, size) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": round(start - origin, 7),
                    "end": round(end - origin, 7), "parent": parent, "item": item,
                    "phase": phase, "size": size,
                }) + "\n")


class SpanIndex:
    """Queries over the spans of one phase."""

    def __init__(self, spans: list[list], phase: str):
        self.all = spans
        self.ids = [i for i, s in enumerate(spans) if s[5] == phase]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i in self.ids:
            self.by_name[spans[i][0]].append(i)
            self.children[spans[i][3]].append(i)

    def dur(self, i: int) -> float:
        return self.all[i][2] - self.all[i][1]

    def total(self, *names: str) -> float:
        return sum(self.dur(i) for name in names for i in self.by_name.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children.get(i, ()))

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.all[i][3]
        while parent >= 0:
            if self.all[parent][0] == name:
                return True
            parent = self.all[parent][3]
        return False

    def top_level_total(self) -> float:
        return sum(self.dur(i) for i in self.children.get(-1, ()))

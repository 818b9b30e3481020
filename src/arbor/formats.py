"""Readers and writers for graph formats, embedding files and checkpoints.

Supported graph formats:

* PENMAN — the parenthesized notation commonly used for AMR.  Supported
  subset: variables, slash concepts, ``:role`` edges, string/numeric
  constants and variable re-mentions (reentrancies).
* SDP — tab-separated bi-lexical dependency format with six fixed columns
  (``id  form  lemma  pos  top  pred``) followed by one argument column
  per predicate token.
* canonical — one JSON object per line holding tokens, POS tags, named
  feature columns and the graph itself.  This is the only input format
  for UCCA; non-terminal nodes have empty labels and no anchors.

Checkpoints store a one-line JSON header (format version, hyperparameters,
vocabularies, tensor directory) followed by a little-endian float32
payload, the tensors end to end in directory order.  Save and load convert
through one fixed-size buffer, so neither holds a second copy of the
payload.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    Framework,
    GraphEdge,
    GraphError,
    GraphNode,
    SemanticGraph,
    weak_components,
)


class FormatError(ValueError):
    """Malformed input text for one of the supported formats."""


def _typed(value, kind, what: str):
    """``value`` if it is a ``kind`` (a bool is none), else a TypeError
    naming ``what``."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{what} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    return value


_ID = (str, int)  # ids may be written as numbers; they are read as strings
_LABEL = (str, type(None))
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               _ID: "a string or an integer", _LABEL: "a string or null"}
# the exact types that JSON values of each kind decode to
_JSON_TYPES = {list: {list}, str: {str}, int: {int}, _ID: {str, int},
               _LABEL: {str, type(None)}}


def _items(value, kind, what: str) -> list:
    """``value`` if it is a list of ``kind``, else a TypeError naming
    ``what``; a list of decoded JSON values is checked in one pass over
    their types."""
    if type(value) is not list or not _JSON_TYPES[kind].issuperset(map(type, value)):
        for item in _typed(value, list, what):
            _typed(item, kind, f"each of {what}")
    return value


# ---------------------------------------------------------------------------
# PENMAN


_PENMAN_TOKEN = re.compile(r'\(|\)|/|:[^\s()]+|"(?:[^"\\]|\\.)*"|[^\s()/:]+')
_SAFE_ATOM = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.+\-]*$")


def _penman_tokens(text: str) -> list[str]:
    tokens = _PENMAN_TOKEN.findall(text)
    stripped = re.sub(r'"(?:[^"\\]|\\.)*"', "", text)
    leftovers = re.sub(r"[\s()/:]|[^\s()/:]+", "", stripped)
    if leftovers:
        raise FormatError(f"unexpected characters in PENMAN input: {leftovers!r}")
    return tokens


def read_penman(text: str) -> SemanticGraph:
    """Parse a single PENMAN expression into an AMR-framework graph.

    Re-mentioned variables (including forward references) become reentrant
    edges; any other bare atom or quoted string becomes a fresh constant
    node.
    """
    tokens = _penman_tokens(text)
    if not tokens:
        raise FormatError("empty PENMAN input")
    pos = 0

    defined: dict[str, str] = {}
    # (source var, role, target) where target is ("var"|"atom", text)
    triples: list[tuple[str, str, tuple[str, str]]] = []
    def_order: list[str] = []

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def advance() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("unbalanced parentheses: unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_node() -> str:
        tok = advance()
        if tok != "(":
            raise FormatError(f"expected '(' but found {tok!r}")
        var = advance()
        if var in ("(", ")", "/") or var.startswith(":"):
            raise FormatError(f"expected variable name, found {var!r}")
        concept = ""
        if peek() == "/":
            advance()
            concept_tok = advance()
            if concept_tok in ("(", ")", "/") or concept_tok.startswith(":"):
                raise FormatError(f"expected concept after '/', found {concept_tok!r}")
            concept = _unquote(concept_tok)
        if var in defined:
            raise FormatError(f"duplicate variable definition: {var!r}")
        defined[var] = concept
        def_order.append(var)
        while True:
            tok = peek()
            if tok is None:
                raise FormatError("unbalanced parentheses: missing ')'")
            if tok == ")":
                advance()
                return var
            if not tok.startswith(":"):
                raise FormatError(f"expected role or ')', found {tok!r}")
            role = advance()[1:]
            if not role:
                raise FormatError("empty role name")
            nxt = peek()
            if nxt is None or nxt == ")" or nxt.startswith(":"):
                raise FormatError(f"role :{role} has no target")
            if nxt == "(":
                child = parse_node()
                triples.append((var, role, ("var", child)))
            else:
                triples.append((var, role, ("atom", advance())))

    root = parse_node()
    if pos != len(tokens):
        raise FormatError(f"trailing tokens after PENMAN expression: {tokens[pos:]!r}")

    nodes = [GraphNode(id=v, label=defined[v]) for v in def_order]
    edges = []
    const_count = 0
    for src, role, (kind, target) in triples:
        if kind == "var":
            edges.append(GraphEdge(src, target, role))
        elif target in defined:
            edges.append(GraphEdge(src, target, role))  # reentrant mention
        else:
            const_id = f"_c{const_count}"
            const_count += 1
            nodes.append(GraphNode(id=const_id, label=_unquote(target)))
            edges.append(GraphEdge(src, const_id, role))
    return SemanticGraph(Framework.AMR, tuple(nodes), tuple(edges), tops=(root,))


def _unquote(token: str) -> str:
    if len(token) >= 2 and token.startswith('"') and token.endswith('"'):
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return token


def _quote_if_needed(label: str) -> str:
    if _SAFE_ATOM.match(label):
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_penman(g: SemanticGraph) -> str:
    """Serialize an AMR graph; reentrancies become variable re-mentions."""
    if g.framework != Framework.AMR:
        raise GraphError(f"write_penman requires an AMR graph, got {g.framework.value}")
    if len(g.tops) != 1:
        raise GraphError(f"write_penman requires exactly one top, got {len(g.tops)}")
    if len(weak_components(g)) > 1:
        raise GraphError("write_penman requires a weakly connected graph")

    out = g.outgoing()
    names: dict[str, str] = {}
    counters: dict[str, int] = {}
    for node in g.nodes:
        prefix = node.label[:1].lower() if node.label[:1].isalpha() else "x"
        n = counters.get(prefix, 0)
        counters[prefix] = n + 1
        names[node.id] = f"{prefix}{n}"

    node_map = g.node_map()
    visited: set[str] = set()

    def render(node_id: str) -> str:
        if node_id in visited:
            return names[node_id]
        visited.add(node_id)
        label = node_map[node_id].label
        parts = [f"({names[node_id]} / {_quote_if_needed(label)}"]
        for e in out[node_id]:
            parts.append(f" :{e.label} {render(e.target)}")
        return "".join(parts) + ")"

    text = render(g.tops[0])
    if len(visited) != len(g.nodes):
        raise GraphError("graph has nodes unreachable from the top")
    return text


# ---------------------------------------------------------------------------
# SDP (bi-lexical dependencies)


@dataclass(frozen=True)
class SdpToken:
    form: str
    lemma: str
    pos: str


def read_sdp(text: str) -> tuple[list[SdpToken], SemanticGraph]:
    """Parse one SDP sentence block.

    Column layout: ``id form lemma pos top pred`` plus one argument column
    per ``pred='+'`` token.  A node is created for every token that is a
    predicate, an argument or a top; node labels are the surface forms and
    anchors are 0-based token positions.
    """
    rows = []
    for line in text.splitlines():
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 6:
            raise FormatError(f"SDP row has {len(cols)} columns, expected at least 6: {line!r}")
        rows.append(cols)
    if not rows:
        raise FormatError("empty SDP block")

    tokens = []
    tops_idx = []
    pred_idx = []
    for i, cols in enumerate(rows):
        if cols[4] not in ("+", "-") or cols[5] not in ("+", "-"):
            raise FormatError(f"bad top/pred flag in row {i + 1}: {cols[4]!r}/{cols[5]!r}")
        tokens.append(SdpToken(form=cols[1], lemma=cols[2], pos=cols[3]))
        if cols[4] == "+":
            tops_idx.append(i)
        if cols[5] == "+":
            pred_idx.append(i)

    n_pred = len(pred_idx)
    edges_raw: list[tuple[int, int, str]] = []
    for i, cols in enumerate(rows):
        args = cols[6:]
        if len(args) != n_pred:
            raise FormatError(
                f"row {i + 1} has {len(args)} argument columns but {n_pred} predicates"
            )
        for j, cell in enumerate(args):
            if cell != "_" and cell != "":
                edges_raw.append((pred_idx[j], i, cell))

    endpoint = set(tops_idx)
    for s, t, _ in edges_raw:
        endpoint.add(s)
        endpoint.add(t)
    nodes = tuple(
        GraphNode(id=f"n{i}", label=tokens[i].form, anchors=(i,)) for i in sorted(endpoint)
    )
    edges = tuple(GraphEdge(f"n{s}", f"n{t}", lbl) for s, t, lbl in edges_raw)
    tops = tuple(f"n{i}" for i in tops_idx)
    return tokens, SemanticGraph(Framework.DM, nodes, edges, tops)


def write_sdp(tokens: list[SdpToken], g: SemanticGraph) -> str:
    """Inverse of :func:`read_sdp` up to the pred flag of argument-less
    predicates (a token is marked ``pred='+'`` iff it has outgoing edges)."""
    anchor_of: dict[str, int] = {}
    for node in g.nodes:
        if not node.anchors:
            raise GraphError(f"SDP node {node.id!r} has no anchor")
        anchor_of[node.id] = node.anchors[0]
    out = g.outgoing()
    pred_anchor = sorted(anchor_of[n.id] for n in g.nodes if out[n.id])
    pred_col = {a: j for j, a in enumerate(pred_anchor)}
    top_anchor = {anchor_of[t] for t in g.tops}

    cells: dict[tuple[int, int], str] = {}
    for e in g.edges:
        cells[(anchor_of[e.target], pred_col[anchor_of[e.source]])] = e.label

    lines = []
    for i, tok in enumerate(tokens):
        row = [
            str(i + 1),
            tok.form,
            tok.lemma,
            tok.pos,
            "+" if i in top_anchor else "-",
            "+" if i in pred_col else "-",
        ]
        row.extend(cells.get((i, j), "_") for j in range(len(pred_anchor)))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def iter_sdp_blocks(text: str):
    """Yield per-sentence blocks of an SDP file (blank-line separated)."""
    block: list[str] = []
    for line in text.splitlines():
        if line.strip():
            block.append(line)
        elif block:
            yield "\n".join(block)
            block = []
    if block:
        yield "\n".join(block)


# ---------------------------------------------------------------------------
# Canonical JSONL records


@dataclass
class CanonicalGraphRecord:
    id: str
    framework: Framework
    tokens: list[str]
    pos: list[str]
    features: dict[str, list[str]] = field(default_factory=dict)
    nodes: list[dict] = field(default_factory=list)
    edges: list[dict] = field(default_factory=list)
    tops: list[str] = field(default_factory=list)

    def __post_init__(self):
        n = len(self.tokens)
        if len(self.pos) != n:
            raise FormatError(f"pos column length {len(self.pos)} != token count {n}")
        for name, col in self.features.items():
            if len(col) != n:
                raise FormatError(f"feature {name!r} length {len(col)} != token count {n}")

    def graph(self) -> SemanticGraph:
        ids, labels = _JSON_TYPES[_ID], _JSON_TYPES[_LABEL]
        nodes, edges = [], []
        try:
            for d in self.nodes:
                node_id, label, anchors = d["id"], d.get("label"), d.get("anchors")
                if type(node_id) not in ids or type(label) not in labels:
                    _typed(node_id, _ID, "a node id")
                    _typed(label, _LABEL, "a node label")
                if anchors is not None:
                    anchors = tuple(_items(anchors, int, "a node's anchors"))
                nodes.append(GraphNode(str(node_id), label or "", anchors))
            for d in self.edges:
                src, tgt, label = d["src"], d["tgt"], d["label"]
                if type(src) not in ids or type(tgt) not in ids or type(label) is not str:
                    _typed(src, _ID, "an edge source")
                    _typed(tgt, _ID, "an edge target")
                    _typed(label, str, "an edge label")
                edges.append(GraphEdge(str(src), str(tgt), label))
        except (AttributeError, KeyError, TypeError) as exc:
            raise FormatError(f"bad node or edge: {exc!r}") from exc
        return SemanticGraph(self.framework, tuple(nodes), tuple(edges),
                             tuple(str(t) for t in self.tops))

    @classmethod
    def from_graph(
        cls,
        record_id: str,
        g: SemanticGraph,
        tokens: list[str],
        pos: list[str] | None = None,
        features: dict[str, list[str]] | None = None,
    ) -> "CanonicalGraphRecord":
        return cls(
            id=record_id,
            framework=g.framework,
            tokens=list(tokens),
            pos=list(pos) if pos is not None else ["@unk@"] * len(tokens),
            features=dict(features or {}),
            nodes=[
                {
                    "id": n.id,
                    "label": n.label,
                    "anchors": list(n.anchors) if n.anchors is not None else None,
                }
                for n in g.nodes
            ],
            edges=[{"src": e.source, "tgt": e.target, "label": e.label} for e in g.edges],
            tops=list(g.tops),
        )


def read_canonical(line: str) -> CanonicalGraphRecord:
    """One canonical JSON line as a record.  A line that is not an object,
    or whose fields are missing or of the wrong type, raises
    ``FormatError``; each node and edge is checked when ``graph`` builds
    it."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad canonical JSON: {exc}") from exc
    try:
        _typed(obj, dict, "a record")
        return CanonicalGraphRecord(
            id=str(_typed(obj["id"], _ID, "id")),
            framework=Framework(obj["framework"]),
            tokens=_items(obj["tokens"], str, "tokens"),
            pos=_items(obj["pos"], str, "pos"),
            features={k: _items(v, str, f"feature {k!r}")
                      for k, v in _typed(obj.get("features", {}), dict, "features").items()},
            nodes=_typed(obj.get("nodes", []), list, "nodes"),
            edges=_typed(obj.get("edges", []), list, "edges"),
            tops=[str(t) for t in _items(obj.get("tops", []), _ID, "tops")],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad canonical record: {exc}") from exc


def write_canonical(record: CanonicalGraphRecord) -> str:
    obj = {
        "id": record.id,
        "framework": record.framework.value,
        "tokens": record.tokens,
        "pos": record.pos,
        "features": record.features,
        "nodes": record.nodes,
        "edges": record.edges,
        "tops": record.tops,
    }
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def read_canonical_file(path) -> list[CanonicalGraphRecord]:
    """The records of a canonical JSONL file; the first malformed line
    raises ``FormatError`` naming it."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(read_canonical(line))
                except FormatError as exc:
                    raise FormatError(f"{path}: line {number}: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# Embedding files


class EmbeddingTableFile:
    """Word-vector table parsed from a text file of ``word f1 ... fd`` lines.

    Lookup is case-sensitive with a lowercase fallback; misses return the
    shared UNK vector (mean of all loaded vectors).
    """

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        self.vectors = vectors
        self.dim = dim
        if vectors:
            self.unk = np.mean(np.stack(list(vectors.values())), axis=0)
        else:
            self.unk = np.zeros(dim)

    def lookup(self, word: str) -> np.ndarray:
        vec = self.vectors.get(word)
        if vec is None:
            vec = self.vectors.get(word.lower())
        return vec if vec is not None else self.unk


def load_embeddings(path, dim: int | None = None) -> EmbeddingTableFile:
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
            if len(values) != dim:
                raise FormatError(
                    f"{path}:{lineno}: expected {dim} values for {word!r}, got {len(values)}"
                )
            vectors[word] = np.asarray([float(v) for v in values])
    if dim is None:
        raise FormatError(f"{path}: empty embedding file")
    return EmbeddingTableFile(vectors, dim)


# ---------------------------------------------------------------------------
# Checkpoints


CHECKPOINT_VERSION = 1
# float32 values that save and load convert through at a time (1 MiB)
_BUFFER_VALUES = 1 << 18


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, hyperparameters: dict, vocabularies: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write header JSON line + float32 little-endian payload.

    Values are stored as float32 regardless of compute precision, so the
    first save of a float64 model rounds; save/load is bit-exact from then
    on.  Each tensor is converted through one buffer of ``_BUFFER_VALUES``
    values, so no float32 copy of a whole tensor is made.
    """
    directory = []
    offset = 0
    for name, arr in tensors.items():
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 4 * arr.size
    header = {
        "format_version": CHECKPOINT_VERSION,
        "hyperparameters": hyperparameters,
        "vocabularies": vocabularies,
        "tensors": directory,
    }
    buffer = np.empty(_BUFFER_VALUES, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for arr in tensors.values():
            flat = np.ravel(arr)
            for start in range(0, flat.size, _BUFFER_VALUES):
                chunk = buffer[: min(_BUFFER_VALUES, flat.size - start)]
                chunk[...] = flat[start : start + chunk.size]
                fh.write(chunk.data)


def _checkpoint_header(line: bytes) -> tuple[dict, dict, dict[str, tuple]]:
    """The hyperparameters, the vocabularies and the ``name -> shape``
    directory of a header line.  Each entry's payload must start where the
    previous one's ends, as ``save_checkpoint`` writes it."""
    try:
        header = _typed(json.loads(line.decode("utf-8")), dict, "the header")
        version = header.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version!r}")
        hyperparameters = _typed(header["hyperparameters"], dict, "hyperparameters")
        vocabularies = _typed(header["vocabularies"], dict, "vocabularies")
        shapes: dict[str, tuple] = {}
        end = 0
        for entry in _typed(header["tensors"], list, "tensors"):
            entry = _typed(entry, dict, "each tensor entry")
            name = _typed(entry["name"], str, "a tensor name")
            shape = tuple(_items(entry["shape"], int, f"the shape of {name!r}"))
            offset = _typed(entry["offset"], int, f"the offset of {name!r}")
            if name in shapes:
                raise CheckpointError(f"duplicate tensor {name!r} in checkpoint")
            if any(n < 0 for n in shape):
                raise CheckpointError(f"tensor {name!r} has a negative dimension: {list(shape)}")
            if offset != end:
                raise CheckpointError(
                    f"tensor {name!r} at offset {offset}, expected {end} (the end of the "
                    f"previous tensor)")
            shapes[name] = shape
            end += 4 * math.prod(shape)
    except KeyError as exc:
        raise CheckpointError(f"bad checkpoint header: missing {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from exc
    return hyperparameters, vocabularies, shapes


def read_checkpoint(path, build):
    """Read the checkpoint at ``path`` into the arrays that ``build`` gives.

    ``build(hyperparameters, vocabularies, shapes)`` is called once the
    header is checked and the payload's length matches its directory
    (``shapes`` maps each tensor's name to its shape).  It returns
    ``(result, tensors)``: any object, and ``name -> array`` of
    C-contiguous arrays holding each tensor of the directory once, with its
    shape.  Each tensor is then read through one buffer of
    ``_BUFFER_VALUES`` float32 values and converted into its array; the
    file is read once, in order.  Returns ``result``.

    Any mismatch raises ``CheckpointError``, so ``result`` is returned only
    with every array filled.
    """
    with open(path, "rb") as fh:
        hyperparameters, vocabularies, shapes = _checkpoint_header(fh.readline())
        expected = 4 * sum(math.prod(shape) for shape in shapes.values())
        length = os.fstat(fh.fileno()).st_size - fh.tell()
        if length != expected:
            raise CheckpointError(
                f"payload length {length} does not match directory total {expected}")
        result, tensors = build(hyperparameters, vocabularies, shapes)
        missing, extra = set(tensors) - set(shapes), set(shapes) - set(tensors)
        if missing or extra:
            raise CheckpointError(
                f"checkpoint/model tensor mismatch: missing={sorted(missing)[:3]} "
                f"extra={sorted(extra)[:3]}"
            )
        for name, shape in shapes.items():
            if shape != tensors[name].shape:
                raise CheckpointError(
                    f"tensor {name!r} shape {shape} != expected {tensors[name].shape}")
        buffer = np.empty(_BUFFER_VALUES, dtype="<f4")
        for name in shapes:
            flat = tensors[name].reshape(-1)  # a view: the array is C-contiguous
            for start in range(0, flat.size, _BUFFER_VALUES):
                chunk = buffer[: min(_BUFFER_VALUES, flat.size - start)]
                if fh.readinto(chunk) != chunk.nbytes:
                    raise CheckpointError(f"payload truncated in tensor {name!r}")
                flat[start : start + chunk.size] = chunk
    return result


# ---------------------------------------------------------------------------
# Arborescence JSONL


def arbor_to_json(a, record_id: str = "") -> str:
    """One JSON object per arborescence: nested {label, index, anchors,
    children: [[relation, node], ...]} under "root"."""

    def node_obj(n):
        return {
            "label": n.label,
            "index": n.index,
            "anchors": list(n.anchors) if n.anchors is not None else None,
            "children": [[rel, node_obj(child)] for rel, child in n.children],
        }

    return json.dumps({"id": record_id, "root": node_obj(a.root)}, ensure_ascii=False)


def arbor_from_json(line: str):
    """The record id and arborescence of one JSON line as ``arbor_to_json``
    writes it.  A line that is not an object, or whose fields are missing
    or of the wrong type at any depth, raises ``FormatError``."""
    from .graph import Arborescence, ArborNode

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad arborescence JSON: {exc}") from exc

    def build(d) -> ArborNode:
        _typed(d, dict, "a node")
        anchors = d.get("anchors")
        node = ArborNode(
            label=_typed(d["label"], str, "a node label"),
            index=_typed(d["index"], int, "a node index"),
            anchors=tuple(_items(anchors, int, "a node's anchors")) if anchors is not None else None,
        )
        for rel, child in _items(d.get("children", []), list, "a node's children"):
            node.add(_typed(rel, str, "a relation"), build(child))
        return node

    try:
        record_id = str(_typed(_typed(obj, dict, "a record").get("id", ""), _ID, "id"))
        root = build(obj["root"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad arborescence record: {exc}") from exc
    return record_id, Arborescence(root)

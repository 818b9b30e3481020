import json
import os

import numpy as np
import pytest

from arbor import formats
from arbor.formats import (
    CanonicalGraphRecord,
    CheckpointError,
    FormatError,
    SdpToken,
    load_embeddings,
    read_canonical,
    read_penman,
    read_sdp,
    save_checkpoint,
    write_canonical,
    write_penman,
    write_sdp,
)
from arbor.graph import Framework, GraphError, graph_isomorphic

from conftest import load_checkpoint, random_amr_graph


class TestPenman:
    def test_vinken_example(self):
        g = read_penman(
            "(e / express-01 :ARG0 (p / person) :ARG1 (c / concern :poss p))"
        )
        assert len(g.nodes) == 3
        labels = {n.id: n.label for n in g.nodes}
        assert labels == {"e": "express-01", "p": "person", "c": "concern"}
        poss = [e for e in g.edges if e.label == "poss"]
        assert len(poss) == 1 and poss[0].source == "c" and poss[0].target == "p"
        # p has two incoming edges: the reentrancy survived
        assert sum(1 for e in g.edges if e.target == "p") == 2

    def test_single_node(self):
        g = read_penman("(a / alpha)")
        assert len(g.nodes) == 1 and len(g.edges) == 0

    def test_unbalanced_parentheses(self):
        with pytest.raises(FormatError, match="unbalanced|trailing"):
            read_penman("(a / alpha :mod (b / beta) :mod b")

    def test_role_without_target(self):
        with pytest.raises(FormatError, match="no target"):
            read_penman("(a / alpha :mod)")

    def test_duplicate_variable(self):
        with pytest.raises(FormatError, match="duplicate variable"):
            read_penman("(a / alpha :mod (a / beta))")

    def test_constants_are_fresh_nodes(self):
        g = read_penman('(a / alpha :quant 5 :mod (b / beta :quant 5) :name "x y")')
        fives = [n for n in g.nodes if n.label == "5"]
        assert len(fives) == 2  # constants are never shared
        assert any(n.label == "x y" for n in g.nodes)

    def test_forward_reference(self):
        g = read_penman("(a / alpha :mod b :part (b / beta))")
        assert len(g.nodes) == 2
        assert sum(1 for e in g.edges if e.target == "b") == 2

    def test_write_single_node(self):
        g = read_penman("(a / alpha)")
        assert write_penman(g) == "(a0 / alpha)"

    def test_round_trip(self):
        g = read_penman(
            "(e / express-01 :ARG0 (p / person) :ARG1 (c / concern :poss p))"
        )
        assert graph_isomorphic(g, read_penman(write_penman(g)))

    def test_cycle_through_reentrancy_terminates(self):
        # a -> b -> a again: re-mention cuts the loop
        g = read_penman("(a / alpha :mod (b / beta :mod a))")
        text = write_penman(g)
        assert graph_isomorphic(g, read_penman(text))

    def test_write_requires_single_top(self):
        g = read_penman("(a / alpha)")
        bad = type(g)(g.framework, g.nodes, g.edges, tops=())
        with pytest.raises(GraphError, match="top"):
            write_penman(bad)

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzzed_round_trip(self, seed):
        g = random_amr_graph(np.random.default_rng(seed))
        assert graph_isomorphic(g, read_penman(write_penman(g)))


SDP_TEXT = (
    "1\tPierre\tPierre\tNNP\t-\t-\t_\n"
    "2\tVinken\tVinken\tNNP\t-\t-\tARG1\n"
    "3\texpressed\texpress\tVBD\t+\t+\t_\n"
)


class TestSdp:
    def test_basic_decode(self):
        tokens, g = read_sdp("1\ta\ta\tDT\t+\t+\t_\n2\tb\tb\tNN\t-\t-\tARG1\n")
        assert len(tokens) == 2
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        edge = g.edges[0]
        nm = g.node_map()
        assert nm[edge.source].anchors == (0,) and nm[edge.target].anchors == (1,)
        assert edge.label == "ARG1"
        assert [nm[t].anchors for t in g.tops] == [(0,)]

    def test_all_dashes_no_args(self):
        tokens, g = read_sdp("1\ta\ta\tDT\t-\t-\n2\tb\tb\tNN\t-\t-\n")
        assert len(g.edges) == 0 and len(g.nodes) == 0

    def test_missing_column(self):
        with pytest.raises(FormatError, match="columns"):
            read_sdp("1\ta\ta\tDT\t-\n")

    def test_ragged_arg_columns(self):
        with pytest.raises(FormatError, match="argument columns"):
            read_sdp("1\ta\ta\tDT\t-\t+\t_\n2\tb\tb\tNN\t-\t-\n")

    def test_round_trip(self):
        tokens, g = read_sdp(SDP_TEXT)
        text = write_sdp(tokens, g)
        tokens2, g2 = read_sdp(text)
        assert tokens == tokens2
        assert graph_isomorphic(g, g2)
        assert write_sdp(tokens2, g2) == text  # fixpoint after one round


class TestCanonical:
    def test_round_trip_bit_exact(self):
        record = CanonicalGraphRecord(
            id="r1",
            framework=Framework.DM,
            tokens=["a", "b"],
            pos=["DT", "NN"],
            features={"caps": ["no", "no"]},
            nodes=[{"id": "n0", "label": "a", "anchors": [0]}],
            edges=[],
            tops=["n0"],
        )
        line = write_canonical(record)
        again = write_canonical(read_canonical(line))
        assert line == again
        assert json.loads(line)["framework"] == "dm"

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="length"):
            CanonicalGraphRecord(
                id="x", framework=Framework.DM, tokens=["a"], pos=["DT", "NN"]
            )

    def test_bad_json(self):
        with pytest.raises(FormatError):
            read_canonical("{nope")

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "a record must be an object, got list"),
        ("5", "a record must be an object, got int"),
        ("null", "a record must be an object, got NoneType"),
        ({"tokens": 5}, "tokens must be a list, got int"),
        ({"tokens": "ab"}, "tokens must be a list, got str"),
        ({"tokens": [1]}, "each of tokens must be a string, got int"),
        ({"pos": [None]}, "each of pos must be a string, got NoneType"),
        ({"features": [1]}, "features must be an object, got list"),
        ({"features": {"caps": 5}}, "feature 'caps' must be a list, got int"),
        ({"nodes": 5}, "nodes must be a list, got int"),
        ({"tops": "n0"}, "tops must be a list, got str"),
        ({"tops": [None]}, "each of tops must be a string or an integer, got NoneType"),
        ({"id": None}, "id must be a string or an integer, got NoneType"),
        ({"framework": [1]}, "is not a valid Framework"),
    ])
    def test_wrong_shape_rejected(self, line, message):
        if isinstance(line, dict):
            line = json.dumps({"id": "x", "framework": "dm", "tokens": ["a"], "pos": ["DT"],
                               **line})
        with pytest.raises(FormatError, match=f"^bad canonical record: .*{message}"):
            read_canonical(line)

    @pytest.mark.parametrize("node, edge, message", [
        ({"id": "n0", "label": 5}, None, "a node label must be a string or null, got int"),
        ({"id": "n0", "anchors": 0}, None, "a node's anchors must be a list, got int"),
        ({"id": "n0", "anchors": ["a"]}, None,
         "each of a node's anchors must be an integer, got str"),
        ({"id": "n0"}, {"src": "n0", "tgt": "n0", "label": 5},
         "an edge label must be a string, got int"),
        ({"id": ["n0"]}, None, "a node id must be a string or an integer, got list"),
        (1, None, "TypeError"),
        ({"id": "n0"}, [], "TypeError"),
        ({"id": "n0"}, {"src": "n0", "tgt": True, "label": "r"},
         "an edge target must be a string or an integer, got bool"),
    ])
    def test_wrong_typed_node_or_edge_rejected(self, node, edge, message):
        record = read_canonical(json.dumps({
            "id": "x", "framework": "dm", "tokens": ["a"], "pos": ["DT"], "nodes": [node],
            "edges": [] if edge is None else [edge]}))
        with pytest.raises(FormatError, match=f"bad node or edge: .*{message}"):
            record.graph()


class TestEmbeddings:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("the 0.1 0.2 0.3\nThe 1.0 1.0 1.0\ncat 0.5 0.5 0.5\n")
        table = load_embeddings(path)
        assert table.dim == 3
        assert np.allclose(table.lookup("the"), [0.1, 0.2, 0.3])
        assert np.allclose(table.lookup("CAT".lower()), [0.5, 0.5, 0.5])
        # lowercase fallback
        assert np.allclose(table.lookup("THE"), [0.1, 0.2, 0.3])
        # unknown word gets the shared mean vector
        assert np.allclose(table.lookup("zzz"), table.unk)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("the 0.1 0.2\n")
        with pytest.raises(FormatError, match="expected 3"):
            load_embeddings(path, dim=3)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "a.b": rng.standard_normal(3).astype(np.float32),
            "scalar": np.float32(2.5).reshape(()),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"lr": 0.1}, {"vocab": ["x"]}, tensors)
        ckpt = load_checkpoint(path)
        assert ckpt.hyperparameters == {"lr": 0.1}
        assert ckpt.vocabularies == {"vocab": ["x"]}
        for name, arr in tensors.items():
            assert ckpt.tensors[name].dtype == np.float32
            assert np.array_equal(ckpt.tensors[name], arr)

    def test_float64_rounds_once_then_stable(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal(5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {}, {"x": arr})
        first = load_checkpoint(path).tensors["x"]
        assert np.array_equal(first, arr.astype(np.float32))
        save_checkpoint(path, {}, {}, {"x": first})
        assert np.array_equal(load_checkpoint(path).tensors["x"], first)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {}, {"x": np.zeros(2, dtype=np.float32)})
        raw = path.read_bytes().split(b"\n", 1)
        header = json.loads(raw[0])
        header["format_version"] = 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + raw[1])
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {}, {"x": np.zeros(4, dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_payload_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {}, {"x": np.zeros(4, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(CheckpointError, match="payload length 20 does not match"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header, message", [
        (b"{not json", "bad checkpoint header"),
        (b"\xff", "bad checkpoint header"),
        ([1], "the header must be an object, got list"),
        ({"format_version": 1}, "missing 'hyperparameters'"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {}},
         "missing 'tensors'"),
        ({"format_version": 1, "hyperparameters": [], "vocabularies": {}, "tensors": []},
         "hyperparameters must be an object, got list"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {}, "tensors": {}},
         "tensors must be a list, got dict"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {}, "tensors": [5]},
         "each tensor entry must be an object, got int"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": [2]}]}, "missing 'offset'"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": 5, "shape": [2], "offset": 0}]},
         "a tensor name must be a string, got int"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": 2, "offset": 0}]},
         "the shape of 'x' must be a list, got int"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": [2.0], "offset": 0}]}, "must be an integer"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": [True], "offset": 0}]}, "must be an integer"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": [-1, -2], "offset": 0}]},
         r"tensor 'x' has a negative dimension: \[-1, -2\]"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": [2], "offset": "0"}]},
         "the offset of 'x' must be an integer, got str"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": [2], "offset": -4}]},
         "tensor 'x' at offset -4, expected 0"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},  # overlapping
          "tensors": [{"name": "x", "shape": [2], "offset": 0},
                      {"name": "y", "shape": [2], "offset": 4}]},
         "tensor 'y' at offset 4, expected 8"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},  # out of order
          "tensors": [{"name": "y", "shape": [2], "offset": 8},
                      {"name": "x", "shape": [2], "offset": 0}]},
         "tensor 'y' at offset 8, expected 0"),
        ({"format_version": 1, "hyperparameters": {}, "vocabularies": {},
          "tensors": [{"name": "x", "shape": [2], "offset": 0},
                      {"name": "x", "shape": [2], "offset": 8}]},
         "duplicate tensor 'x'"),
    ])
    def test_malformed_header(self, tmp_path, header, message):
        path = tmp_path / "m.ckpt"
        line = header if isinstance(header, bytes) else json.dumps(header).encode()
        path.write_bytes(line + b"\n" + bytes(16))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_file_shrinking_during_the_read(self, tmp_path):
        """A payload that ends early while it is read, after the length
        check, is reported by the read itself."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {}, {}, {"x": np.zeros(3), "y": np.ones(20000)})
        size = path.stat().st_size

        def build(hyperparameters, vocabularies, shapes):
            os.truncate(path, size - 40000)
            tensors = {name: np.empty(shape) for name, shape in shapes.items()}
            return tensors, tensors

        with pytest.raises(CheckpointError, match="payload truncated in tensor 'y'"):
            formats.read_checkpoint(path, build)


class TestArborJson:
    @pytest.mark.parametrize("line, message", [
        ("5", "bad arborescence record: a record must be an object, got int"),
        ("[1]", "bad arborescence record: a record must be an object, got list"),
        ('{"id": "g"}', "bad arborescence record: 'root'"),
        ('{"id": null, "root": {"label": "a", "index": 1}}', "id must be a string or an integer"),
        ('{"root": 5}', "bad arborescence record: a node must be an object, got int"),
        ('{"root": {"label": 5, "index": 1}}', "a node label must be a string, got int"),
        ('{"root": {"label": "a", "index": "1"}}', "a node index must be an integer, got str"),
        ('{"root": {"label": "a", "index": true}}', "a node index must be an integer, got bool"),
        ('{"root": {"label": "a", "index": 1, "anchors": ["q"]}}',
         "each of a node's anchors must be an integer, got str"),
        ('{"root": {"label": "a", "index": 1, "children": 5}}',
         "a node's children must be a list, got int"),
        ('{"root": {"label": "a", "index": 1, "children": [[5, {"label": "b", "index": 2}]]}}',
         "a relation must be a string, got int"),
    ])
    def test_wrong_shape_rejected(self, line, message):
        from arbor.formats import arbor_from_json

        with pytest.raises(FormatError, match=message):
            arbor_from_json(line)

    def test_bad_deep_node_reported_once(self):
        from arbor.formats import arbor_from_json

        node = {"label": "leaf"}  # no index
        for depth in range(5):
            node = {"label": f"n{depth}", "index": depth, "children": [["r", node]]}
        with pytest.raises(FormatError) as err:
            arbor_from_json(json.dumps({"id": "g", "root": node}))
        assert str(err.value) == "bad arborescence record: 'index'"

    def test_round_trip(self):
        from arbor.formats import arbor_from_json, arbor_to_json
        from conftest import random_arborescence

        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_arborescence(rng, with_anchors=True)
            rid, back = arbor_from_json(arbor_to_json(a, "g7"))
            assert rid == "g7"
            assert back.root == a.root

"""Unit tests for index persistence: binary format + unified save/load."""

from __future__ import annotations

import pytest

from repro.core import build_index_star, pmbc_index_query
from repro.core.index import PMBCIndex
from repro.core.serialize import (
    IndexFormatError,
    read_binary,
    write_binary,
)
from repro.graph.bipartite import Side
from repro.graph.generators import random_bipartite


def _assert_same_answers(index, loaded, graph):
    assert loaded.num_upper == index.num_upper
    assert loaded.num_lower == index.num_lower
    assert loaded.num_bicliques == index.num_bicliques
    assert loaded.num_tree_nodes == index.num_tree_nodes
    for side in Side:
        for q in range(graph.num_vertices_on(side)):
            for tau_u, tau_l in ((1, 1), (2, 4), (5, 1)):
                a = pmbc_index_query(index, side, q, tau_u, tau_l)
                b = pmbc_index_query(loaded, side, q, tau_u, tau_l)
                if a is None:
                    assert b is None
                else:
                    assert a.num_edges == b.num_edges


def test_binary_roundtrip(paper_graph, tmp_path):
    index = build_index_star(paper_graph)
    path = tmp_path / "index.bin"
    written = write_binary(index, path)
    assert written == path.stat().st_size > 0
    loaded = read_binary(path)
    _assert_same_answers(index, loaded, paper_graph)


def test_unified_save_auto_detects_format_by_extension(
    paper_graph, tmp_path
):
    from repro.core.serialize import MAGIC

    index = build_index_star(paper_graph)
    bin_path = tmp_path / "index.bin"
    json_path = tmp_path / "index.json"
    index.save(bin_path)  # .bin -> binary
    index.save(json_path)  # .json -> JSON
    assert bin_path.read_bytes().startswith(MAGIC)
    assert json_path.read_bytes().lstrip().startswith(b"{")


def test_unified_save_explicit_format_overrides_extension(
    paper_graph, tmp_path
):
    from repro.core.serialize import MAGIC

    index = build_index_star(paper_graph)
    path = tmp_path / "index.json"
    index.save(path, format="binary")
    assert path.read_bytes().startswith(MAGIC)
    with pytest.raises(ValueError):
        index.save(tmp_path / "x.bin", format="msgpack")


@pytest.mark.parametrize("suffix", ["bin", "pmbc", "pmbcidx", "json"])
def test_unified_load_reads_either_format(paper_graph, tmp_path, suffix):
    index = build_index_star(paper_graph)
    path = tmp_path / f"index.{suffix}"
    index.save(path)
    loaded = PMBCIndex.load(path)
    _assert_same_answers(index, loaded, paper_graph)


def test_binary_smaller_than_json(tmp_path):
    graph = random_bipartite(20, 20, 0.3, seed=3)
    index = build_index_star(graph)
    json_path = tmp_path / "index.json"
    bin_path = tmp_path / "index.bin"
    index.save(json_path)
    index.save(bin_path)
    assert bin_path.stat().st_size < json_path.stat().st_size


def test_binary_size_close_to_model(paper_graph, tmp_path):
    """On-disk size stays within 2.5x of the Table III word model."""
    index = build_index_star(paper_graph)
    path = tmp_path / "index.bin"
    written = write_binary(index, path)
    model = index.total_size_bytes()
    assert written <= 2.5 * model


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
    with pytest.raises(IndexFormatError):
        read_binary(path)


def test_truncated_file(paper_graph, tmp_path):
    index = build_index_star(paper_graph)
    path = tmp_path / "index.bin"
    write_binary(index, path)
    data = path.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[: len(data) // 2])
    with pytest.raises(IndexFormatError):
        read_binary(truncated)

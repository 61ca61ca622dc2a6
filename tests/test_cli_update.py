"""Unit tests for the ``pmbc update`` command."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_update_op, main
from repro.graph.bipartite import Side
from repro.graph.generators import paper_example_graph
from repro.serve import AsyncPMBCServer, PMBCService


def test_parse_update_op_forms():
    assert _parse_update_op("insert:3:5") == ("insert", 3, 5)
    assert _parse_update_op("delete:0:1") == ("delete", 0, 1)
    assert _parse_update_op("+3:5") == ("insert", 3, 5)
    assert _parse_update_op("-0:1") == ("delete", 0, 1)


@pytest.mark.parametrize(
    "token",
    ["upsert:1:2", "insert:1", "insert:a:2", "insert:1:2:3", "", "3:5"],
)
def test_parse_update_op_rejects(token):
    with pytest.raises(ValueError):
        _parse_update_op(token)


@pytest.fixture
def server():
    service = PMBCService(paper_example_graph()).start()
    srv = AsyncPMBCServer(service, port=0).start()
    try:
        yield srv
    finally:
        srv.shutdown()


def _missing_edge(graph):
    return next(
        (u, v)
        for u in range(graph.num_upper)
        for v in range(graph.num_lower)
        if not graph.has_edge(u, v)
    )


def test_update_command_applies_ops(server, capsys):
    u, v = _missing_edge(server.service.graph)
    code = main(["update", "--url", server.url, f"insert:{u}:{v}"])
    assert code == 0
    out = capsys.readouterr().out
    assert "applied 1" in out
    assert server.service.graph.has_edge(u, v)


def test_update_command_json_output(server, capsys):
    u = 0
    v = server.service.graph.neighbors(Side.UPPER, u)[0]
    code = main(
        ["update", "--url", server.url, "--json", f"delete:{u}:{v}"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["applied"] == 1
    assert payload["deletes"] == 1


def test_update_command_ops_file(server, tmp_path, capsys):
    graph = server.service.graph
    u, v = _missing_edge(graph)
    path = tmp_path / "ops.txt"
    path.write_text(
        f"# comment line\ninsert {u} {v}\ndelete {u} {v}\n"
    )
    code = main(["update", "--url", server.url, "--file", str(path)])
    assert code == 0
    assert "applied 0" in capsys.readouterr().out  # net no-op batch


def test_update_command_bad_token_exits_2(server, capsys):
    assert main(["update", "--url", server.url, "upsert:1:2"]) == 2


def test_update_command_no_ops_exits_2(server, capsys):
    assert main(["update", "--url", server.url]) == 2


def test_update_command_unreachable_server_exits_1(capsys):
    code = main(
        [
            "update",
            "--url",
            "http://127.0.0.1:9",
            "--timeout",
            "1",
            "insert:0:1",
        ]
    )
    assert code == 1

"""Unit tests for the pmbc command-line interface."""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.graph.generators import paper_example_graph
from repro.graph.io import write_edge_list, write_konect


@pytest.fixture
def edges_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(paper_example_graph(), path)
    return str(path)


@pytest.fixture
def konect_file(tmp_path):
    path = tmp_path / "out.graph"
    write_konect(paper_example_graph(), path)
    return str(path)


def test_build_and_query(edges_file, tmp_path, capsys):
    index_path = str(tmp_path / "index.json")
    assert main(["build", edges_file, "-o", index_path]) == 0
    out = capsys.readouterr().out
    assert "built PMBC-Index" in out

    code = main(
        [
            "query",
            edges_file,
            "--index",
            index_path,
            "--side",
            "upper",
            "--label",
            "u1",
            "--tau-u",
            "1",
            "--tau-l",
            "1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == [4, 3]
    assert "u1" in payload["upper"]


def test_online_query_without_index(edges_file, capsys):
    code = main(
        ["query", edges_file, "--side", "upper", "--label", "u7"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == [3, 3]


def test_query_no_result(edges_file, capsys):
    code = main(
        [
            "query",
            edges_file,
            "--side",
            "upper",
            "--label",
            "u1",
            "--tau-u",
            "6",
        ]
    )
    assert code == 1
    assert "no biclique" in capsys.readouterr().out


def test_query_requires_vertex_or_label(edges_file, capsys):
    code = main(["query", edges_file, "--side", "upper"])
    assert code == 2


def test_konect_input(konect_file, capsys):
    code = main(
        ["query", konect_file, "--konect", "--side", "upper", "--vertex", "0"]
    )
    assert code == 0


def test_stats(edges_file, tmp_path, capsys):
    index_path = str(tmp_path / "index.json")
    main(["build", edges_file, "-o", index_path])
    capsys.readouterr()
    assert main(["stats", edges_file, "--index", index_path]) == 0
    out = capsys.readouterr().out
    assert "|E|=25" in out
    assert "num_bicliques" in out


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "Writers" in out
    assert "DBLP" in out


def test_invalid_side(edges_file):
    with pytest.raises(SystemExit):
        main(["query", edges_file, "--side", "middle", "--vertex", "0"])


def test_build_without_cost_sharing(edges_file, tmp_path, capsys):
    index_path = str(tmp_path / "index_ic.json")
    assert main(["build", edges_file, "-o", index_path, "--no-cost-sharing"]) == 0


def test_topk_command(edges_file, tmp_path, capsys):
    index_path = str(tmp_path / "index.json")
    main(["build", edges_file, "-o", index_path])
    capsys.readouterr()
    code = main(
        [
            "topk",
            edges_file,
            "--index",
            index_path,
            "--side",
            "upper",
            "--label",
            "u1",
            "-k",
            "3",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3
    assert payload[0]["edges"] >= payload[1]["edges"] >= payload[2]["edges"]
    assert payload[0]["shape"] == [4, 3]


def test_topk_command_empty(edges_file, tmp_path, capsys):
    index_path = str(tmp_path / "index.json")
    main(["build", edges_file, "-o", index_path])
    capsys.readouterr()
    code = main(
        [
            "topk", edges_file, "--index", index_path,
            "--side", "upper", "--label", "u1", "--tau-u", "6",
        ]
    )
    assert code == 1


def test_datasets_stats_flag(capsys):
    assert main(["datasets", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "deg_U" in out and "hub%" in out


def test_query_missing_index_file_clean_error(edges_file, capsys):
    code = main(
        [
            "query", edges_file, "--index", "/no/such/index.bin",
            "--side", "upper", "--vertex", "0",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "index.bin" in err
    assert "Traceback" not in err


def test_query_corrupt_binary_index_clean_error(edges_file, tmp_path, capsys):
    from repro.core.serialize import MAGIC

    path = tmp_path / "index.bin"
    path.write_bytes(MAGIC + b"\x01\x02")  # sniffs binary, then truncated
    code = main(
        [
            "query", edges_file, "--index", str(path),
            "--side", "upper", "--vertex", "0",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "corrupt" in err
    assert "Traceback" not in err


def test_query_corrupt_json_index_clean_error(edges_file, tmp_path, capsys):
    path = tmp_path / "index.json"
    path.write_text("{not valid json")
    code = main(
        [
            "query", edges_file, "--index", str(path),
            "--side", "upper", "--vertex", "0",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "not a valid PMBC-Index" in err


def test_stats_missing_index_clean_error(edges_file, capsys):
    assert main(["stats", edges_file, "--index", "/missing.json"]) == 2
    assert "error:" in capsys.readouterr().err


#: Arguments after the edge-list path, per subcommand that reads one.
_AFTER_EDGE_LIST = {
    "build": ["-o", "index.json"],
    "query": ["--side", "upper", "--vertex", "0"],
    "explain": ["0", "1", "1"],
    "topk": ["--index", "index.json", "--side", "upper", "--vertex", "0"],
    "stats": [],
    "serve": ["--port", "0"],
}


@pytest.mark.parametrize("command", list(_AFTER_EDGE_LIST))
def test_missing_edge_list_clean_error(command, tmp_path, capsys):
    """A missing edge-list path is an ``error:`` line and exit 2."""
    missing = str(tmp_path / "no-such-edges.txt")
    assert main([command, missing, *_AFTER_EDGE_LIST[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read edge list"), err
    assert "Traceback" not in err


def test_malformed_edge_list_clean_error(tmp_path, capsys):
    path = tmp_path / "bad-edges.txt"
    path.write_text("u1 v1 extra\n")
    assert main(["stats", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed edge list"), err


#: One bad query input per case; ``{edges}``/``{index}`` are filled in.
_BAD_QUERY_INPUT = {
    "query-vertex": ["query", "{edges}", "--side", "upper", "--vertex", "99"],
    "query-index-vertex": [
        "query", "{edges}", "--index", "{index}",
        "--side", "upper", "--vertex", "99",
    ],
    "query-label": ["query", "{edges}", "--side", "upper", "--label", "nope"],
    "query-tau": [
        "query", "{edges}", "--side", "upper", "--vertex", "0", "--tau-u", "0",
    ],
    "topk-vertex": [
        "topk", "{edges}", "--index", "{index}",
        "--side", "upper", "--vertex", "99",
    ],
    "topk-label": [
        "topk", "{edges}", "--index", "{index}",
        "--side", "upper", "--label", "nope",
    ],
    "topk-tau": [
        "topk", "{edges}", "--index", "{index}",
        "--side", "upper", "--vertex", "0", "--tau-l", "0",
    ],
    "topk-no-vertex": ["topk", "{edges}", "--index", "{index}", "--side", "upper"],
    "topk-k": [
        "topk", "{edges}", "--index", "{index}",
        "--side", "upper", "--vertex", "0", "-k", "0",
    ],
    "explain-vertex": ["explain", "{edges}", "99", "1", "1"],
    "explain-label": ["explain", "{edges}", "--label", "nope"],
    "explain-tau": ["explain", "{edges}", "0", "0", "1"],
    "explain-dataset": ["explain", "NoSuchDataset", "0", "1", "1", "--dataset"],
}


@pytest.mark.parametrize(
    "argv", list(_BAD_QUERY_INPUT.values()), ids=list(_BAD_QUERY_INPUT)
)
def test_bad_query_input_clean_error(argv, edges_file, tmp_path, capsys):
    """A bad vertex, label, tau, k or dataset name is an ``error:`` line
    and exit 2, not a traceback."""
    index = str(tmp_path / "index.json")
    assert main(["build", edges_file, "-o", index]) == 0
    capsys.readouterr()
    assert main([a.format(edges=edges_file, index=index) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: "), err


def test_serve_parser_defaults():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "edges.txt"])
    assert args.fn.__name__ == "_cmd_serve"
    assert args.port == 8642
    assert args.workers == 8
    assert args.queue_size == 64
    assert args.deadline == 30.0
    assert args.index is None


def test_serve_missing_index_clean_error(edges_file, capsys):
    code = main(["serve", edges_file, "--index", "/no/such.idx"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_serve_port_in_use_clean_error(edges_file, capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code = main(["serve", edges_file, "--port", str(port)])
    assert code == 2
    assert "error: cannot listen" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        ("--workers", "0"),
        ("--queue-size", "0"),
        ("--index-budget-mb", "0"),
        ("--hot-threshold", "0"),
        ("--cache-size", "-1"),
        pytest.param(
            ("--adaptive", "--index-budget-mb", "nan"),
            id="index-budget-mb-nan",
        ),
        pytest.param(
            ("--adaptive", "--index-budget-mb", "inf"),
            id="index-budget-mb-inf",
        ),
        pytest.param(("--hot-threshold", "nan"), id="hot-threshold-nan"),
        pytest.param(("--port", "-1"), id="port-negative"),
        pytest.param(("--port", "99999"), id="port-too-large"),
        pytest.param(("--deadline", "-5"), id="deadline-negative"),
        pytest.param(("--deadline", "nan"), id="deadline-nan"),
    ],
    ids=lambda flag: flag[0].lstrip("-"),
)
def test_serve_bad_config_clean_error(edges_file, flag, monkeypatch, capsys):
    """A config the service rejects is an ``error:`` line and exit 2.

    A config that slips through reaches ``listening on``, where the
    stdout below interrupts it: the case fails instead of serving
    forever.
    """
    monkeypatch.setattr(sys, "stdout", _InterruptOnListening())
    assert main(["serve", edges_file, "--port", "0", *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    assert "Traceback" not in err


def test_serve_has_no_shards_flag():
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["serve", "g.txt", "--shards", "2"])
    assert info.value.code == 2


def test_serve_end_to_end(edges_file):
    """``pmbc serve`` answers HTTP and stops on SIGINT."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", edges_file,
            "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    # A server that never prints its address is killed, ending the read.
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        url = next(
            line.split()[2]
            for line in proc.stdout
            if line.startswith("listening on ")
        )
        with urllib.request.urlopen(url + "/healthz", timeout=10) as reply:
            assert reply.status == 200
        request = urllib.request.Request(
            url + "/healthz", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 405
        info.value.close()
        proc.send_signal(signal.SIGINT)
        __, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "shutting down" in err
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


class _InterruptOnListening(io.StringIO):
    """A stdout that raises KeyboardInterrupt as the banner is written."""

    url = None

    def write(self, text):
        if text.startswith("listening on "):
            self.url = text.split()[2]
            raise KeyboardInterrupt
        return super().write(text)


def test_serve_interrupt_while_printing_banner_shuts_down(
    edges_file, monkeypatch, capsys
):
    """Ctrl-C that lands while ``listening on`` is printed stops cleanly."""
    stdout = _InterruptOnListening()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["serve", edges_file, "--port", "0"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped pmbc serve")
    assert code == 0
    assert "shutting down" in capsys.readouterr().err
    port = urllib.parse.urlsplit(stdout.url).port
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_binary_index_build_and_query(edges_file, tmp_path, capsys):
    index_path = str(tmp_path / "index.bin")
    assert main(["build", edges_file, "-o", index_path, "--binary"]) == 0
    capsys.readouterr()
    code = main(
        [
            "query",
            edges_file,
            "--index",
            index_path,
            "--side",
            "upper",
            "--label",
            "u1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == [4, 3]


# ----------------------------------------------------------------------
# pmbc explain


def test_explain_prints_trace_report(edges_file, capsys):
    code = main(["explain", edges_file, "0", "2", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "two-hop subgraph" in out
    assert "progressive-bounding rounds" in out
    assert "pruning" in out
    assert "answer:" in out


def test_explain_json_output(edges_file, capsys):
    code = main(["explain", edges_file, "0", "2", "2", "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["meta"]["query"]["vertex"] == 0
    assert summary["counters"]["twohop_extractions"] == 1
    assert "prunes" in summary


def test_explain_with_index(edges_file, tmp_path, capsys):
    index_path = str(tmp_path / "index.json")
    main(["build", edges_file, "-o", index_path])
    capsys.readouterr()
    code = main(["explain", edges_file, "0", "--index", index_path])
    assert code == 0
    assert "index tree nodes visited" in capsys.readouterr().out
    summary_code = main(
        ["explain", edges_file, "0", "--index", index_path, "--json"]
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary_code == 0
    assert summary["counters"]["index_lookups"] == 1
    assert summary["meta"]["backend"] == "index"


def test_explain_no_result_exits_nonzero(edges_file, capsys):
    code = main(["explain", edges_file, "0", "99", "99"])
    assert code == 1
    out = capsys.readouterr().out
    assert "result: none" in out


def test_explain_by_label(edges_file, capsys):
    code = main(["explain", edges_file, "--label", "u1", "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["meta"]["result"]["shape"] == [4, 3]


def test_query_balanced_objective(edges_file, capsys):
    code = main(
        [
            "query", edges_file, "--side", "upper", "--vertex", "0",
            "--tau-u", "2", "--tau-l", "2", "--objective", "balanced",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"][0] == payload["shape"][1] >= 2


def test_query_balanced_with_index_is_clean_error(
    edges_file, tmp_path, capsys
):
    index_path = str(tmp_path / "index.json")
    assert main(["build", edges_file, "-o", index_path]) == 0
    capsys.readouterr()
    code = main(
        [
            "query", edges_file, "--index", index_path,
            "--side", "upper", "--vertex", "0",
            "--objective", "balanced",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "balanced" in err
    assert "--index" in err


def test_query_unknown_objective_rejected(edges_file, capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "query", edges_file, "--side", "upper", "--vertex", "0",
                "--objective", "biplex",
            ]
        )


def test_explain_balanced_objective(edges_file, capsys):
    code = main(
        ["explain", edges_file, "0", "2", "2", "--objective", "balanced"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "objective=balanced" in out
    assert "progressive-bounding rounds" in out


def test_batch_file_balanced_objective(edges_file, tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(
        json.dumps(
            [
                {"side": "upper", "vertex": 0, "objective": "balanced"},
                {"side": "upper", "vertex": 1},
            ]
        )
    )
    code = main(
        ["query", edges_file, "--batch-file", str(batch)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    first = payload["results"][0]
    assert first["query"]["objective"] == "balanced"
    assert first["result"]["shape"][0] == first["result"]["shape"][1]


def test_batch_file_balanced_with_index_is_clean_error(
    edges_file, tmp_path, capsys
):
    index_path = str(tmp_path / "index.json")
    assert main(["build", edges_file, "-o", index_path]) == 0
    batch = tmp_path / "batch.json"
    batch.write_text(
        json.dumps([{"side": "upper", "vertex": 0, "objective": "balanced"}])
    )
    capsys.readouterr()
    code = main(
        ["query", edges_file, "--index", index_path,
         "--batch-file", str(batch)]
    )
    assert code == 2
    assert "balanced" in capsys.readouterr().err

"""Load-generator side of the HTTP workloads: server process + keep-alive client."""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Longest a server may take to print READY, or to exit after ``quit``.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Conn:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, path: str, body: dict) -> tuple[int, dict]:
        """POST a JSON body; returns ``(status, decoded reply)``."""
        self.http.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = self.http.getresponse()
        return response.status, json.loads(response.read())

    def get(self, path: str) -> tuple[int, bytes]:
        """GET ``path``; returns ``(status, raw body)``."""
        self.http.request("GET", path)
        response = self.http.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> dict:
        """GET a JSON endpoint (``/stats``); raises unless it answers 200."""
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"{path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.http.close()


class Server:
    """A serving process (``serverproc.py``) owned by the benchmark.

    ``start`` spawns it and waits for ``READY``; ``stop`` sends
    ``quit``, waits for it to exit and returns its JSON report.  The
    process is killed and reaped if anything goes wrong in between.
    """

    def __init__(self, dataset: str, trace: bool, adaptive: bool) -> None:
        self.dataset = dataset
        self.trace = trace
        self.adaptive = adaptive
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.launched_at = 0.0

    def start(self) -> "Server":
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.launched_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serverproc.py"),
             "--dataset", self.dataset, "--trace", str(int(self.trace)),
             "--adaptive", str(int(self.adaptive))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=str(ROOT), text=True,
        )
        line = self._readline(START_TIMEOUT_S)
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])
        return self

    def _readline(self, timeout: float) -> str:
        box: list[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout)
        if not box:
            self.kill()
            raise RuntimeError("server produced no output in time")
        return box[0]

    def stop(self) -> dict:
        """Ask the server to quit; return its final report."""
        # Let the server finish closing connections the client just
        # dropped, so shutdown does not cancel their handlers mid-close.
        time.sleep(0.1)
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        line = self._readline(STOP_TIMEOUT_S)
        self.proc.stdin.close()
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()
        if not line:
            raise RuntimeError("server exited without a report")
        return json.loads(line)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                if pipe is not None and not pipe.closed:
                    pipe.close()


def query_body(side, vertex: int, tau: int, rid: str) -> dict:
    """The ``POST /query`` body; ``rid`` travels as the trace id."""
    return {"side": side.value, "vertex": vertex, "tau_u": tau,
            "tau_l": tau, "trace_id": rid}


def answer_edges(reply: dict) -> int:
    """Edge count of a ``/query`` reply (0 for an empty answer)."""
    result = reply.get("result")
    return result["edges"] if result else 0


def time_to_first_answer(dataset: str, probe: dict, trace: bool, adaptive: bool):
    """Launch a server and time it until ``probe`` is answered.

    Returns ``(seconds, server)``; the caller owns the running server.
    """
    server = Server(dataset, trace, adaptive)
    try:
        server.start()
        conn = Conn(server.port)
        status, __ = conn.post("/query", probe)
        elapsed = time.perf_counter() - server.launched_at
        conn.close()
    except BaseException:
        server.kill()
        raise
    if status != 200:
        server.kill()
        raise RuntimeError(f"set-up probe answered {status}")
    return elapsed, server


@dataclass
class Sample:
    """One open-loop request: schedule, send and completion times."""

    scheduled: float
    sent: float
    done: float
    lag: float  # how late the generator sent, beyond its own schedule
    status: int
    edges: int


def open_loop(port: int, bodies: list[dict], rate: float, conns: int = 2) -> list[Sample]:
    """Send ``bodies`` at a fixed ``rate`` over ``conns`` keep-alive connections.

    Request ``i`` is due at ``t0 + i / rate``.  Whichever connection is
    free takes the next due request, so a slow answer delays later ones
    (and that wait counts: latency runs from the due time).  ``lag`` is
    how late the generator itself sent a request it was ready for.
    """
    samples: list[Sample | None] = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    errors: list[BaseException] = []
    t0 = time.perf_counter() + 0.05

    def worker() -> None:
        conn = Conn(port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = t0 + i / rate
                ready = time.perf_counter()
                if ready < due:
                    time.sleep(due - ready)
                sent = time.perf_counter()
                try:
                    status, reply = conn.post("/query", bodies[i])
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = Conn(port)
                    status, reply = 599, {}
                done = time.perf_counter()
                samples[i] = Sample(
                    due, sent, done, sent - max(due, ready), status,
                    answer_edges(reply) if status == 200 else -1,
                )
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for __ in range(conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return samples

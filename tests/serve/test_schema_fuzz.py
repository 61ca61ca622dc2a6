"""Schema fuzzing of the HTTP front-end.

Generated JSON bodies go to ``/query``, ``/query_batch`` and
``/update`` on one server over the paper graph.  Keys are the schema's
field names plus unknown ones; values are any JSON value, including
huge and negative integers and the ``NaN`` / ``Infinity`` tokens
Python's ``json`` emits.  Whatever the body, the reply is a 200 or a
typed JSON error — a 400, or a 504 when a tiny deadline ran out —
never a dropped connection or a 500, and a 200 from ``/query`` echoes
the integers that were sent.
"""

from __future__ import annotations

import http.client
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph.generators import paper_example_graph
from repro.serve import AsyncPMBCServer, PMBCService, ServiceConfig

FIELDS = (
    "side", "vertex", "label", "tau_u", "tau_l", "deadline", "verify",
    "explain", "trace_id", "objective", "queries", "updates", "action",
    "u", "v",
)
UNKNOWN = ("bogus", "Vertex", "")
#: The only error replies a body may get.
TYPED_ERRORS = {400: "InvalidRequestError", 504: "DeadlineExceededError"}
WORDS = (
    "upper", "lower", "insert", "delete", "pmbc", "balanced",
    "u1", "l1", "0", "1", "-1", "1.5", "true", "nan",
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=8)
    | st.integers()
    | st.sampled_from([-(10**30), 2**63, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(WORDS)
    | st.text(max_size=6)
)
keys = st.sampled_from(FIELDS + UNKNOWN)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=12,
)
#: Any object over the schema's keys and unknown ones.
bodies = st.dictionaries(keys, values, max_size=6)


def mutated(valid):
    """``valid`` objects, half of them with one field set to anything."""
    return st.builds(
        lambda body, change: (
            body if change is None else {**body, change[0]: change[1]}
        ),
        valid,
        st.none() | st.tuples(keys, values),
    )


# Near-valid bodies, so the fuzz also reaches the 200 paths.
deadlines = st.sampled_from((1e-9, 0.5, 5.0))
query_required = {
    "side": st.sampled_from(("upper", "lower")),
    "vertex": st.integers(min_value=-1, max_value=8),
}
query_fields = {
    "tau_u": st.integers(min_value=1, max_value=4),
    "tau_l": st.integers(min_value=1, max_value=4),
    "label": st.sampled_from(("u1", "u3", "l2", "x")),
    "trace_id": st.text(max_size=6),
    "objective": st.sampled_from(("pmbc", "balanced")),
}
query_items = mutated(
    st.fixed_dictionaries(query_required, optional=query_fields)
)
query_bodies = mutated(
    st.fixed_dictionaries(
        query_required,
        optional={
            **query_fields,
            "deadline": deadlines,
            "verify": st.booleans(),
            "explain": st.booleans(),
        },
    )
)
batch_bodies = mutated(
    st.fixed_dictionaries(
        {"queries": st.lists(query_items, min_size=1, max_size=3)},
        optional={"deadline": deadlines, "explain": st.booleans()},
    )
)
update_items = mutated(
    st.fixed_dictionaries(
        {
            "action": st.sampled_from(("insert", "delete")),
            "u": st.integers(min_value=-1, max_value=12),
            "v": st.integers(min_value=-1, max_value=12),
        }
    )
)
update_bodies = mutated(
    st.fixed_dictionaries(
        {"updates": st.lists(update_items, min_size=1, max_size=3)}
    )
)
requests = (
    st.tuples(st.just("/query"), query_bodies | bodies)
    | st.tuples(st.just("/query_batch"), batch_bodies | bodies)
    | st.tuples(st.just("/update"), update_bodies | bodies)
)


@pytest.fixture(scope="module")
def server():
    service = PMBCService(
        paper_example_graph(), config=ServiceConfig(num_workers=2)
    ).start()
    with AsyncPMBCServer(service, port=0) as srv:
        yield srv


def _post(server, route: str, body: dict) -> tuple[int, dict]:
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "POST",
            route,
            body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _sent_int(body: dict, name: str, default=None) -> int:
    raw = body.get(name, default)
    return int(raw) if isinstance(raw, str) else raw


@settings(max_examples=200, deadline=None)
@given(request=requests)
@example(request=("/query", {"side": "upper", "label": [1]}))
@example(request=("/query", {"side": "upper", "label": {"u1": 1}}))
@example(request=("/query", {"side": "upper", "vertex": float("inf")}))
def test_every_body_gets_a_typed_reply(server, request):
    route, body = request
    status, payload = _post(server, route, body)
    assert status in (200, *TYPED_ERRORS), (status, payload)
    if status != 200:
        assert payload["error"] == TYPED_ERRORS[status], payload
        return
    if route != "/query":
        return
    echoed = payload["query"]
    if body.get("label") is None:
        assert echoed["vertex"] == _sent_int(body, "vertex")
    assert echoed["tau_u"] == _sent_int(body, "tau_u", 1)
    assert echoed["tau_l"] == _sent_int(body, "tau_l", 1)
    assert all(
        type(echoed[name]) is int for name in ("vertex", "tau_u", "tau_l")
    )

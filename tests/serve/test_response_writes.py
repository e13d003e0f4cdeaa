"""Response writes: no Nagle stall on keep-alive connections.

A response written as headers first and body second, on a socket with
Nagle's algorithm on, leaves the body waiting for the client's delayed
ACK (about 40 ms) whenever the client sends its next request right
away. The daemon sets TCP_NODELAY on every accepted connection and
writes each response with a single write; these tests pin both, and
the round-trip time they buy.
"""

import http.client
import socket
import statistics
import threading
import time

import pytest

from repro.serve import MediatorServer
from repro.serve import server as server_module
from repro.workloads import brochure_sgml

PROGRAM = "SgmlBrochuresToOdmg"


class _CountingWriter:
    """Wraps a handler's unbuffered ``wfile``: each ``write`` is one
    ``sendall`` on the connection, so this counts socket writes."""

    def __init__(self, inner, counts):
        self._inner = inner
        self._counts = counts

    def write(self, data):
        self._counts.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def connections(monkeypatch):
    """Per accepted connection: its TCP_NODELAY flag and write sizes."""
    seen = []
    lock = threading.Lock()
    original = server_module._Handler.setup

    def setup(handler):
        original(handler)
        record = {
            "nodelay": handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ),
            "writes": [],
        }
        handler.wfile = _CountingWriter(handler.wfile, record["writes"])
        with lock:
            seen.append(record)

    monkeypatch.setattr(server_module._Handler, "setup", setup)
    return seen


@pytest.fixture
def server():
    instance = MediatorServer(port=0, warm=False)
    instance.warm_now()
    instance.start()
    yield instance
    instance.stop()


def exchange(connection, method, path, body=None):
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read()


def one_request(server, method, path, body=None):
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    try:
        return exchange(connection, method, path, body)
    finally:
        connection.close()


def test_accepted_socket_has_nodelay(server, connections):
    status, _ = one_request(server, "GET", "/healthz")
    assert status == 200
    assert [c["nodelay"] for c in connections] == [1]


@pytest.mark.parametrize("method,path", [
    ("POST", f"/convert/{PROGRAM}"),
    ("GET", "/stats"),
])
def test_one_socket_write_per_response(server, connections, method, path):
    body = brochure_sgml(3, distinct_suppliers=2).encode() \
        if method == "POST" else None
    status, raw = one_request(server, method, path, body)
    assert status == 200
    [record] = connections
    assert len(record["writes"]) == 1
    assert record["writes"][0] > len(raw)  # status line + headers + body


def test_keepalive_round_trips_do_not_stall(server):
    body = brochure_sgml(2, distinct_suppliers=1).encode()
    path = f"/convert/{PROGRAM}"
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    try:
        for _ in range(3):  # fill the cache; leave TCP's quick-ACK start
            assert exchange(connection, "POST", path, body)[0] == 200
        round_trips = []
        for _ in range(20):
            start = time.perf_counter()
            status, _ = exchange(connection, "POST", path, body)
            round_trips.append((time.perf_counter() - start) * 1000.0)
            assert status == 200
    finally:
        connection.close()
    # A stalled response costs the client's delayed-ACK timer, >= 40 ms.
    assert statistics.median(round_trips) < 20.0, round_trips

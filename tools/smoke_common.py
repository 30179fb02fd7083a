"""Helpers the service, fleet and load smoke tests share.

Each smoke script runs as ``python tools/<name>.py``, so this directory
is already on ``sys.path`` and the scripts import this module by name.
"""

import socket
import sys
import time


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def metric_total(text: str, name: str) -> float:
    """Sum of every sample of one metric family in a Prometheus scrape."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest[:1] not in ("{", " "):
            continue  # a different family sharing the prefix
        total += float(line.rsplit(" ", 1)[1])
    return total


def dump_flight_recorder(client):
    """Best-effort post-mortem: print the event ring to stderr."""
    try:
        if client is None:
            raise RuntimeError("client never connected")
        debug = client.debug_events(limit=200)
    except Exception as error:  # server already gone
        print(f"--- flight recorder unavailable: {error!r}", file=sys.stderr)
        return
    print("--- flight recorder (most recent last) ---", file=sys.stderr)
    for event in debug["events"]:
        print(event, file=sys.stderr)
    print(f"--- recorder stats: {debug['stats']}", file=sys.stderr)


def wait_healthy(client, server):
    """Poll ``/healthz`` until the ``server`` subprocess answers."""
    for _attempt in range(50):
        if server.poll() is not None:
            raise RuntimeError("server exited before accepting")
        try:
            client.health()
            return
        except OSError:
            time.sleep(0.2)
    raise RuntimeError("server never became healthy")

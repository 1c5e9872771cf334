"""Open-loop HTTP load from one process over a fixed set of connections.

Request ``i`` is due at ``t0 + i / rate`` whether or not earlier
answers have come back (independent users, so an open loop).  Each is
assigned round-robin to a keep-alive connection and pipelined onto it,
up to ``depth`` unanswered requests per connection; a request whose
connection is full waits client-side, and that wait is charged to it,
because latency is timed from the scheduled send.  ``lateness`` is the
actual send minus the scheduled send; when it rises, the number
measures the generator or the server's back-pressure, not service time.

Raw non-blocking sockets on one ``selectors`` loop keep the client's
cost per request small next to the fleet's.  The benchmark carries its
own generator, rather than importing ``benchmarks/loadgen.py``, so that
a change to the repository's other benches cannot change what this
benchmark measures.
"""

from __future__ import annotations

import selectors
import socket
import time

RECV_BYTES = 262144


def render_post(path: str, body: bytes) -> bytes:
    """One keep-alive ``POST`` with a JSON body, ready to send verbatim."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


class _Conn:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.waiting: list[int] = []  # request indices, in send order
        self.events = selectors.EVENT_READ
        self.closed = False

    def parse(self):
        """Yield ``(status, body)`` for every complete response buffered."""
        while True:
            end = self.inbuf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(self.inbuf[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split(" ", 2)[1])
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            stop = end + 4 + length
            if len(self.inbuf) < stop:
                return
            body = bytes(self.inbuf[end + 4 : stop])
            del self.inbuf[:stop]
            yield status, body


def run_open_loop(
    host: str,
    port: int,
    requests: list[bytes],
    rate: float,
    connections: int = 2,
    depth: int = 32,
    timeout_s: float = 10.0,
) -> list[dict]:
    """Send pre-rendered ``requests`` at ``rate`` per second.

    Returns one record per request, in schedule order: ``sched``,
    ``sent`` and ``done`` (``time.perf_counter`` seconds; ``done`` None
    when unanswered by the deadline), ``status`` and ``body``.
    """
    conns = [_Conn(host, port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, conn.events, conn)
    n = len(requests)
    t0 = time.perf_counter() + 0.005
    records = [
        {"sched": t0 + i / rate, "sent": None, "done": None,
         "status": None, "body": None}
        for i in range(n)
    ]
    queued: list[list[int]] = [[] for _ in conns]  # due, not yet sent
    next_due = 0
    answered = 0
    deadline = t0 + n / rate + timeout_s

    def interest(conn):
        want = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
        if want != conn.events:
            selector.modify(conn.sock, want, conn)
            conn.events = want

    def flush(conn):
        while conn.out and not conn.closed:
            try:
                sent = conn.sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                conn.out.clear()  # the read side sees the close
                break
            del conn.out[:sent]
        if not conn.closed:
            interest(conn)

    try:
        while answered < n:
            now = time.perf_counter()
            if now > deadline:
                break
            while next_due < n and records[next_due]["sched"] <= now:
                queued[next_due % connections].append(next_due)
                next_due += 1
            for c, conn in enumerate(conns):
                pending = queued[c]
                if conn.closed:
                    # Nothing more can arrive here: what was due on it
                    # stays unanswered (a failure), without waiting out
                    # the deadline.
                    answered += len(pending)
                    pending.clear()
                    continue
                while pending and len(conn.waiting) < depth:
                    i = pending.pop(0)
                    records[i]["sent"] = now
                    conn.out += requests[i]
                    conn.waiting.append(i)
                if conn.out:
                    flush(conn)
            wait = deadline - now
            if next_due < n:
                wait = min(wait, records[next_due]["sched"] - now)
            for key, mask in selector.select(max(0.0, wait)):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    flush(conn)
                if mask & selectors.EVENT_READ:
                    try:
                        chunk = conn.sock.recv(RECV_BYTES)
                    except ConnectionError:
                        chunk = b""
                    if not chunk:
                        selector.unregister(conn.sock)
                        conn.closed = True
                        answered += len(conn.waiting)
                        conn.waiting.clear()
                        continue
                    conn.inbuf += chunk
                    done = time.perf_counter()
                    for status, body in conn.parse():
                        record = records[conn.waiting.pop(0)]
                        record.update(done=done, status=status, body=body)
                        answered += 1
    finally:
        for conn in conns:
            if not conn.closed:
                selector.unregister(conn.sock)
            conn.sock.close()
        selector.close()
    return records

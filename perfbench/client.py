"""Open-loop HTTP load generator: one asyncio thread, keep-alive connections.

Requests are due on a seeded Poisson schedule and are sent on the
first free connection.  Each request is timed from its due time, so
time spent waiting for a connection (the client-side backlog a slow
server builds) counts as latency; ``lateness`` is how long after its
due time the request was actually sent.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

import numpy as np

#: a request taking longer than this counts as failed
TIMEOUT_S = 30.0


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: int  # 0: connection failed
    body_index: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: text/plain\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, payload: bytes
) -> tuple[int, bytes]:
    writer.write(payload)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    return status, await reader.readexactly(length)


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Due offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    n = max(1, int(rate * seconds * 1.5) + 16)
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    return due[due < seconds]


async def _run_schedule(
    host: str,
    port: int,
    payloads: list[bytes],
    due: np.ndarray,
    picks: np.ndarray,
    connections: int,
) -> list[Outcome]:
    pending: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    t0 = time.perf_counter() + 0.01

    async def conn_worker() -> None:
        reader = writer = None
        while True:
            item = await pending.get()
            if item is None:
                break
            due_at, k = item
            sent = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(host, port)
                status, body = await asyncio.wait_for(
                    _exchange(reader, writer, payloads[k]), TIMEOUT_S
                )
            except (OSError, asyncio.IncompleteReadError, ValueError, asyncio.TimeoutError):
                status, body = 0, b""
                if writer is not None:
                    writer.close()
                reader = writer = None
            outcomes.append(Outcome(due_at, sent, time.perf_counter(), status, k, body))
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    workers = [asyncio.ensure_future(conn_worker()) for _ in range(connections)]
    try:
        for offset, k in zip(due.tolist(), picks.tolist()):
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            pending.put_nowait((t0 + offset, k))
        for _ in workers:
            pending.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for w in workers:
            w.cancel()
    outcomes.sort(key=lambda o: o.due)
    return outcomes


def run_open_loop(
    host: str,
    port: int,
    payloads: list[bytes],
    due: np.ndarray,
    picks: np.ndarray,
    connections: int = 2,
) -> list[Outcome]:
    """Send ``payloads[picks[i]]`` at ``due[i]`` seconds from now; all outcomes."""
    return asyncio.run(_run_schedule(host, port, payloads, due, picks, connections))


async def _closed_loop(
    host: str, port: int, payloads: list[bytes], picks: np.ndarray, connections: int, seconds: float
) -> tuple[list[Outcome], float]:
    outcomes: list[Outcome] = []
    order = iter(picks.tolist())
    t0 = time.perf_counter()
    deadline = t0 + seconds

    async def conn_worker() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for k in order:
                if time.perf_counter() >= deadline:
                    break
                sent = time.perf_counter()
                try:
                    status, body = await asyncio.wait_for(
                        _exchange(reader, writer, payloads[k]), TIMEOUT_S
                    )
                except (OSError, asyncio.IncompleteReadError, ValueError, asyncio.TimeoutError):
                    outcomes.append(Outcome(sent, sent, time.perf_counter(), 0, k, b""))
                    break
                outcomes.append(Outcome(sent, sent, time.perf_counter(), status, k, body))
        finally:
            writer.close()

    await asyncio.gather(*(conn_worker() for _ in range(connections)))
    return outcomes, time.perf_counter() - t0


def run_closed_loop(
    host: str, port: int, payloads: list[bytes], picks: np.ndarray, connections: int, seconds: float
) -> tuple[list[Outcome], float]:
    """Each connection sends its next request as soon as the last returns.

    Runs for ``seconds`` (or until ``picks`` runs out); returns the
    outcomes and the elapsed wall time.
    """
    return asyncio.run(_closed_loop(host, port, payloads, picks, connections, seconds))


def get(host: str, port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    """One blocking GET (fresh connection)."""

    async def once() -> tuple[int, bytes]:
        reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
        try:
            return await asyncio.wait_for(
                _exchange(reader, writer, request_bytes("GET", path)), timeout
            )
        finally:
            writer.close()

    return asyncio.run(once())


def get_json(host: str, port: int, path: str) -> dict:
    status, body = get(host, port, path)
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return json.loads(body)

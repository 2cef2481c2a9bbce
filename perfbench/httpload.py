"""Open-loop HTTP load over keep-alive connections, timed from the schedule.

One asyncio process holds a fixed pool of keep-alive connections.  Every
arrival has a scheduled time and is dispatched at that time whether or not
earlier requests have finished.  Callers time each request from its
scheduled time, so waiting behind earlier work or for a free connection
counts.  :func:`run_open_loop` also returns how late the generator itself
dispatched each arrival, which shows whether it kept its schedule.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Coroutine, List, Optional, Sequence, Tuple

#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0

#: What a failed request raises: socket errors, a closed connection, a
#: malformed reply or the timeout.
REQUEST_ERRORS = (OSError, EOFError, ValueError, asyncio.TimeoutError)


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON; opens on first use."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, Any, float]:
        """Send one request; return ``(status, payload, seconds send to reply)``."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "\r\n"
        )
        sent = time.monotonic()
        try:
            self._writer.write(head.encode("latin-1") + payload)
            await self._writer.drain()
            parts = (await self._reader.readline()).split()
            if len(parts) < 2:
                raise ConnectionError("the server closed the connection")
            status = int(parts[1])
            length = 0
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            raw = await self._reader.readexactly(length) if length else b""
        except BaseException:
            # The stream position is lost; the next request reconnects.
            self.close()
            raise
        return status, (json.loads(raw) if raw else {}), time.monotonic() - sent

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


class ConnectionPool:
    """At most ``size`` keep-alive connections; a request waits for a free one.

    Create it inside the event loop that uses it.
    """

    def __init__(self, host: str, port: int, size: int):
        self._connections = [Connection(host, port) for _ in range(size)]
        self._idle: asyncio.Queue = asyncio.Queue()
        for connection in self._connections:
            self._idle.put_nowait(connection)

    async def request(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, Any, float]:
        connection = await self._idle.get()
        try:
            return await asyncio.wait_for(
                connection.request(method, path, body), REQUEST_TIMEOUT
            )
        finally:
            self._idle.put_nowait(connection)

    def close(self) -> None:
        for connection in self._connections:
            connection.close()


async def run_open_loop(
    arrivals: Sequence,
    fire: Callable[[Any, float], Coroutine],
    *,
    start: float,
) -> List[float]:
    """Dispatch ``fire(arrival, scheduled)`` at ``start + arrival.at`` each.

    ``fire`` is called synchronously in schedule order (so it can chain
    per-object work) and returns the coroutine to run; the coroutines run
    concurrently and must handle their own failures.  Returns every
    arrival's generator lateness in seconds.
    """
    lateness: List[float] = []
    tasks = []
    for arrival in arrivals:
        scheduled = start + arrival.at
        delay = scheduled - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.monotonic() - scheduled)
        tasks.append(asyncio.ensure_future(fire(arrival, scheduled)))
    await asyncio.gather(*tasks)
    return lateness

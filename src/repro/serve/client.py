"""Blocking Python client for the always-on sampling service.

:class:`ServeClient` speaks the protocol of :mod:`repro.serve.protocol`
(framed with :mod:`repro.engine.backends.wire`) over one TCP connection: authenticate once, then issue request/reply
commands.  The convenience methods are strictly synchronous (one request
in flight); tests and load tools that want pipelining use the raw
:meth:`ServeClient.send_command` / :meth:`ServeClient.read_reply` pair
and match replies to requests by order (the server replies strictly in
request order per connection — see the protocol docstring).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backends import wire

__all__ = [
    "BackpressureError",
    "DrainingError",
    "IngestRetryError",
    "ServeClient",
    "ServeError",
]


class ServeError(RuntimeError):
    """The server answered a request with a failure."""


class BackpressureError(ServeError):
    """An ingest was rejected because the server's queue cap is reached.

    ``retry_after`` carries the server's hint (seconds) for when to retry.
    """

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"server is backpressured; retry after {retry_after:.3f}s")
        self.retry_after = float(retry_after)


class DrainingError(ServeError):
    """An ingest was rejected because the server is draining."""

    def __init__(self) -> None:
        super().__init__("server is draining and no longer accepts ingests")


class IngestRetryError(ServeError):
    """An ingest exhausted its backpressure retry budget.

    Raised by :meth:`ServeClient.ingest` after ``max_retries`` rejected
    resends; the last :class:`BackpressureError` is chained as the cause.
    """

    def __init__(self, attempts: int, slept: float) -> None:
        super().__init__(
            f"ingest still backpressured after {attempts} retries "
            f"({slept:.3f}s total backoff)")
        self.attempts = int(attempts)
        self.slept = float(slept)


class ServeClient:
    """One authenticated connection to a :class:`SamplingServer`.

    Parameters
    ----------
    address:
        ``(host, port)`` tuple or ``"host:port"`` string.
    auth_token / auth_token_file:
        The shared token (exactly one must be given).
    timeout:
        Per-request deadline in seconds (``None`` blocks indefinitely).
    """

    def __init__(self, address: Union[str, Tuple[str, int]], *,
                 auth_token: Optional[Union[str, bytes]] = None,
                 auth_token_file: Optional[str] = None,
                 timeout: Optional[float] = 60.0) -> None:
        if (auth_token is None) == (auth_token_file is None):
            raise ValueError(
                "exactly one of auth_token / auth_token_file is required")
        token = (wire.load_auth_token(auth_token_file)
                 if auth_token_file is not None
                 else wire.token_bytes(auth_token))
        host, port = wire.parse_endpoint(address)
        self._timeout = timeout
        self._connection = socket.create_connection((host, port),
                                                    timeout=10.0)
        try:
            self._connection.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
            wire.client_handshake(self._connection, token)
        except BaseException:
            self._connection.close()
            raise

    # ------------------------------------------------------------------ #
    # Raw pipelined interface
    # ------------------------------------------------------------------ #
    def _deadline(self) -> Optional[float]:
        return None if self._timeout is None \
            else time.monotonic() + self._timeout

    def send_command(self, command: str, payload: Any = None) -> None:
        """Send one request frame without waiting for its reply."""
        wire.send_frame(self._connection, (command, payload),
                            deadline=self._deadline())

    def read_reply(self) -> Tuple[bool, Any]:
        """Read the next reply frame (replies arrive in request order)."""
        return wire.recv_frame(self._connection,
                                   deadline=self._deadline())

    def _request(self, command: str, payload: Any = None) -> Any:
        self.send_command(command, payload)
        ok, result = self.read_reply()
        if ok:
            return result
        if isinstance(result, dict):
            if result.get("error") == "backpressure":
                raise BackpressureError(result.get("retry_after", 0.0))
            if result.get("error") == "draining":
                raise DrainingError()
        raise ServeError(str(result))

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #
    def ingest(self, identifiers: Sequence[int], *,
               return_outputs: bool = False,
               seq: Any = None,
               max_retries: int = 0,
               backoff_base: float = 0.01,
               backoff_cap: float = 2.0) -> Dict[str, Any]:
        """Ingest one batch; optionally retry on backpressure.

        With ``max_retries`` > 0, a backpressure rejection sleeps and
        resends — the batch reaches the samplers exactly once either way
        (a rejected ingest never touches them).  The sleep honours the
        server's ``retry_after`` hint, doubled per consecutive rejection
        (bounded exponential backoff, capped at ``backoff_cap`` seconds);
        once the budget is exhausted, :class:`IngestRetryError` is raised
        with the last :class:`BackpressureError` as its cause.
        """
        payload = {"ids": np.asarray(identifiers, dtype=np.int64)}
        if return_outputs:
            payload["return_outputs"] = True
        if seq is not None:
            payload["seq"] = seq
        attempts = 0
        slept = 0.0
        while True:
            try:
                return self._request("ingest", payload)
            except BackpressureError as error:
                attempts += 1
                if attempts > max_retries:
                    if max_retries <= 0:
                        raise
                    raise IngestRetryError(max_retries, slept) from error
                delay = min(backoff_cap,
                            max(error.retry_after, backoff_base)
                            * 2.0 ** (attempts - 1))
                slept += delay
                time.sleep(delay)

    def sample(self) -> Optional[int]:
        return self._request("sample")["sample"]

    def sample_many(self, count: int, *, strict: bool = True) -> List[int]:
        return self._request("sample_many",
                             {"count": count, "strict": strict})["samples"]

    def stats(self) -> Dict[str, Any]:
        return self._request("stats")

    def memory(self) -> List[int]:
        return self._request("memory")["memory"]

    def ping(self) -> bool:
        return bool(self._request("ping").get("pong"))

    def drain(self) -> Dict[str, Any]:
        """Request a graceful drain; returns the drain report.

        The report is the last frame on this connection — the server
        closes every connection once drained.
        """
        return self._request("drain")

    def close(self) -> None:
        try:
            self.send_command("close")
        except OSError:
            pass
        finally:
            self._connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

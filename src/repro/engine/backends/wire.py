"""Frame and handshake codec shared by every stream channel of the package.

One codec serves the worker pool's channels (a private socketpair per
process worker, authenticated TCP per socket worker) and the ``repro
serve`` front-end (:mod:`repro.serve.protocol` adds the asyncio side):

* **Framing** — every message is one frame: an 8-byte big-endian payload
  length (:data:`LENGTH`) followed by the pickled payload.  Requests are
  ``(command, payload)`` tuples, replies ``(ok, result)`` tuples.
* **Authentication** — a mutual HMAC-SHA256 challenge–response over a
  shared token: the client sends a nonce, the server answers with its own
  nonce plus ``HMAC(token, b"server" + nonces)``, the client proves itself
  with ``HMAC(token, b"client" + nonces)``, and only then is anything
  unpickled on either side.  The token never crosses the wire and digests
  are compared in constant time.  (The stream stays plaintext: an active
  on-path attacker can hijack an authenticated session, so run workers
  inside a trusted network.)

The blocking helpers poll in :data:`POLL_INTERVAL` slices, so a deadline
can interrupt a peer that stalls mid-frame in either direction.
"""

from __future__ import annotations

import hmac
import pickle
import secrets
import socket
import struct
import time
from typing import Optional, Tuple, Union

__all__ = [
    "DIGEST_SIZE",
    "HANDSHAKE_TIMEOUT",
    "LENGTH",
    "MAX_HANDSHAKE_FRAME",
    "NONCE_SIZE",
    "ConnectionLost",
    "DeadlineExceeded",
    "client_handshake",
    "handshake_mac",
    "load_auth_token",
    "parse_endpoint",
    "recv_frame",
    "recv_raw_frame",
    "send_frame",
    "send_raw_frame",
    "server_challenge",
    "server_verify",
    "token_bytes",
]

#: Frame header: the payload length as an 8-byte big-endian integer.
LENGTH = struct.Struct(">Q")

#: Size of the handshake nonces and HMAC-SHA256 digests.
NONCE_SIZE = 32
DIGEST_SIZE = 32

#: Upper bound on the raw handshake frames (read before authentication).
MAX_HANDSHAKE_FRAME = 4096

#: Seconds either side grants the peer to finish the handshake (bounds how
#: long a port scanner can pin a handler).
HANDSHAKE_TIMEOUT = 30.0

#: Granularity of the blocking send/receive loops (deadline checks between
#: slices).
POLL_INTERVAL = 0.05


class ConnectionLost(Exception):
    """The peer closed or reset the connection mid-frame."""


class DeadlineExceeded(Exception):
    """A frame did not get through within its deadline."""


# --------------------------------------------------------------------- #
# Endpoint / token helpers
# --------------------------------------------------------------------- #
def parse_endpoint(text: Union[str, Tuple[str, int]], *,
                   allow_port_zero: bool = False) -> Tuple[str, int]:
    """Parse a ``host:port`` string into a ``(host, port)`` pair.

    ``allow_port_zero`` admits port 0 (listen sockets pick a free port);
    connect endpoints must name a concrete port.
    """
    if isinstance(text, tuple):
        host, port = text
    else:
        host, separator, port = str(text).rpartition(":")
        if not separator or not host:
            raise ValueError(
                f"endpoint must look like 'host:port', got {text!r}")
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ValueError(
            f"endpoint {text!r} has a non-integer port") from None
    lowest = 0 if allow_port_zero else 1
    if not lowest <= port <= 65535:
        raise ValueError(
            f"endpoint {text!r} has an out-of-range port {port}")
    return str(host), port


def load_auth_token(path) -> bytes:
    """Read a shared auth token from a file (stripped, non-empty)."""
    with open(path, "rb") as handle:
        token = handle.read().strip()
    if not token:
        raise ValueError(f"auth token file {path!r} is empty")
    return token


def token_bytes(token: Union[str, bytes]) -> bytes:
    """Normalise an auth token to non-empty bytes."""
    if isinstance(token, str):
        token = token.encode("utf-8")
    if not isinstance(token, bytes) or not token:
        raise ValueError("auth token must be a non-empty str or bytes")
    return token


# --------------------------------------------------------------------- #
# Blocking framing
# --------------------------------------------------------------------- #
def _settimeout(connection: socket.socket,
                deadline: Optional[float]) -> None:
    if deadline is None:
        connection.settimeout(None)
        return
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise DeadlineExceeded()
    connection.settimeout(min(POLL_INTERVAL, remaining))


def _recv_exact(connection: socket.socket, count: int,
                deadline: Optional[float]) -> bytearray:
    """Read exactly ``count`` bytes, polling so a deadline can interrupt."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        _settimeout(connection, deadline)
        try:
            size = connection.recv_into(view[received:])
        except socket.timeout:
            continue
        except OSError as error:
            raise ConnectionLost(str(error)) from error
        if not size:
            raise ConnectionLost("connection closed by peer")
        received += size
    return buffer


def send_raw_frame(connection: socket.socket, payload: bytes, *,
                   deadline: Optional[float] = None) -> None:
    """Send one frame, polling so a deadline can interrupt a stalled peer.

    Without a deadline the send blocks; with one, a peer whose receive
    buffer stays full past the deadline raises :class:`DeadlineExceeded`
    instead of wedging the caller.
    """
    data = memoryview(LENGTH.pack(len(payload)) + payload)
    while data:
        _settimeout(connection, deadline)
        try:
            sent = connection.send(data)
        except socket.timeout:
            continue
        data = data[sent:]


def send_frame(connection: socket.socket, message, *,
               deadline: Optional[float] = None) -> int:
    """Pickle and send one frame; returns the payload size in bytes."""
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    send_raw_frame(connection, blob, deadline=deadline)
    return len(blob)


def recv_raw_frame(connection: socket.socket, *,
                   deadline: Optional[float] = None,
                   limit: Optional[int] = None) -> bytearray:
    """Read one frame's payload bytes (``limit`` caps the declared size)."""
    (length,) = LENGTH.unpack(_recv_exact(connection, LENGTH.size, deadline))
    if limit is not None and length > limit:
        raise ConnectionLost(
            f"oversized frame ({length} bytes, limit {limit})")
    return _recv_exact(connection, length, deadline)


def recv_frame(connection: socket.socket, *,
               deadline: Optional[float] = None):
    """Read and unpickle one frame (only ever after authentication)."""
    return pickle.loads(recv_raw_frame(connection, deadline=deadline))


# --------------------------------------------------------------------- #
# Mutual HMAC handshake
# --------------------------------------------------------------------- #
def handshake_mac(token: bytes, role: bytes, client_nonce: bytes,
                  server_nonce: bytes) -> bytes:
    """HMAC-SHA256 proof of token knowledge, bound to both nonces."""
    return hmac.new(token, role + client_nonce + server_nonce,
                    "sha256").digest()


def server_challenge(token: bytes, client_nonce: bytes
                     ) -> Optional[Tuple[bytes, bytes]]:
    """Answer a client nonce: ``(server_nonce, challenge_frame)``.

    Returns ``None`` for a malformed nonce; the server then closes the
    connection without a word.
    """
    if len(client_nonce) != NONCE_SIZE:
        return None
    server_nonce = secrets.token_bytes(NONCE_SIZE)
    return server_nonce, server_nonce + handshake_mac(
        token, b"server", client_nonce, server_nonce)


def server_verify(token: bytes, client_nonce: bytes, server_nonce: bytes,
                  client_mac: bytes) -> bool:
    """Whether the client's MAC proves knowledge of the token."""
    return hmac.compare_digest(
        client_mac,
        handshake_mac(token, b"client", client_nonce, server_nonce))


def client_handshake(connection: socket.socket, token: bytes, *,
                     timeout: float = HANDSHAKE_TIMEOUT,
                     peer: str = "server") -> None:
    """Run the client side of the mutual handshake on a blocking socket.

    Raises :class:`~repro.engine.backends.base.AuthenticationError` when the
    peer (named ``peer`` in the message) cannot prove token knowledge —
    before a single byte it sent reaches ``pickle.loads``.
    """
    from repro.engine.backends.base import AuthenticationError

    deadline = time.monotonic() + timeout
    client_nonce = secrets.token_bytes(NONCE_SIZE)
    send_raw_frame(connection, client_nonce, deadline=deadline)
    reply = recv_raw_frame(connection, deadline=deadline,
                           limit=MAX_HANDSHAKE_FRAME)
    server_nonce = reply[:NONCE_SIZE]
    expected = handshake_mac(token, b"server", client_nonce, server_nonce)
    if (len(reply) != NONCE_SIZE + DIGEST_SIZE
            or not hmac.compare_digest(reply[NONCE_SIZE:], expected)):
        raise AuthenticationError(
            f"{peer} failed to prove knowledge of the shared auth token "
            "(wrong token, or not a repro endpoint)")
    send_raw_frame(
        connection, handshake_mac(token, b"client", client_nonce,
                                  server_nonce),
        deadline=deadline)
    ok, detail = recv_frame(connection, deadline=deadline)
    if not ok:
        raise AuthenticationError(f"{peer} rejected the session: {detail}")

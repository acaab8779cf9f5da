"""Wire protocol of the always-on sampling service (``repro serve``).

The serve protocol is the worker pool's frame and handshake codec
(:mod:`repro.engine.backends.wire`), with a client-facing command set on
top:

* **Framing** — every message is one length-prefixed frame: an 8-byte
  big-endian payload length (:data:`LENGTH`) followed by a pickled
  payload.  Requests are ``(command, payload)`` tuples; replies are
  ``(ok, result)`` tuples where ``ok`` is a bool and ``result`` carries
  the answer (or, on failure, an error dict / formatted traceback).
* **Authentication** — a session opens with the mutual HMAC-SHA256
  challenge–response over a shared token: the client sends a nonce, the
  server answers with its own nonce plus ``HMAC(token, b"server" +
  nonces)``, the client proves itself with ``HMAC(token, b"client" +
  nonces)``, and only then is anything unpickled on either side.

This module holds the asyncio server side; blocking clients use
:func:`~repro.engine.backends.wire.client_handshake`,
:func:`~repro.engine.backends.wire.send_frame` and
:func:`~repro.engine.backends.wire.recv_frame` directly.

Commands
--------
``ingest``
    ``{"ids": <int sequence>, "seq": <opaque>, "return_outputs": bool}``.
    Routes the batch through the shard pool; replies
    ``(True, {"count": n, "seq": seq})`` (plus ``"outputs"`` when asked).
    May instead be rejected without touching the samplers:
    ``(False, {"error": "backpressure", "retry_after": seconds, "seq": s})``
    when the server's global in-flight cap is reached, or
    ``(False, {"error": "draining", "seq": s})`` once a drain has begun.
``sample`` / ``sample_many``
    ``None`` / ``{"count": n, "strict": bool}``; replies
    ``(True, {"sample": id})`` / ``(True, {"samples": [...]})``.  These
    consume the ensemble's shard-choice coins and therefore order with
    ingests (see the arrival-order rule below).
``stats``
    Live service stats: per-shard loads, memory sizes, totals, backend
    name, uniformity-so-far (KL divergence of the merged sampler memory
    to uniform), connection/queue gauges, and — when the server runs with
    telemetry — a metrics snapshot.
``memory``
    ``(True, {"memory": [...]})``, the merged sampler memory (debugging
    and equivalence tests; not intended for hot paths).
``drain``
    Asks the server to drain: stop accepting work, quiesce in-flight
    ingests, snapshot the ensemble to the state file, then reply
    ``(True, report)``.  The reply is the **last** frame on the
    connection; the server closes every connection once drained.
``ping``
    Liveness probe; replies ``(True, {"pong": True})``.
``close``
    Ends the session (no reply).

Ordering rule (normative)
-------------------------
The server applies operations **in the order their request frames finish
arriving on the event loop**, and that order is total: every operation —
ingest batches and coin-consuming queries alike — is executed to
completion on a single operations thread before the next begins.  Two
consequences:

* Within one connection, operations apply in send order, and replies are
  delivered in that same order (rejections included — a backpressure
  reject occupies its request's reply slot).
* Across connections, the global order is the interleaving in which the
  event loop completed reading the frames.  Clients that need a
  *reproducible* cross-connection order must impose it themselves by
  acknowledgement: wait for each ingest's reply before the next send
  (from any connection), and the global apply order equals the ack
  order.  The wire-equivalence tests pin exactly this.

Bit-identity invariant: a fixed sequence of ingest batches over the wire
— across any number of connections, with any mix of backends, and with a
mid-run drain/restart — yields samples and memory identical to the batch
engine run on the concatenated stream with the same seed.
"""

from __future__ import annotations

import asyncio
import pickle
from typing import Any, Optional, Tuple

from repro.engine.backends import wire
from repro.engine.backends.wire import HANDSHAKE_TIMEOUT, LENGTH

__all__ = [
    "HANDSHAKE_TIMEOUT",
    "LENGTH",
    "MAX_REQUEST_FRAME",
    "read_frame",
    "server_handshake",
    "write_frame",
]

#: Ceiling on a single request frame (pickled payload bytes).  Large
#: enough for multi-million-element ingest batches, small enough that a
#: garbage length prefix cannot make the server try to buffer petabytes.
MAX_REQUEST_FRAME = 1 << 30


# --------------------------------------------------------------------- #
# Async framing (server side)
# --------------------------------------------------------------------- #
async def _read_exact_frame(reader: asyncio.StreamReader, *,
                            limit: Optional[int] = None) -> bytes:
    header = await reader.readexactly(LENGTH.size)
    (length,) = LENGTH.unpack(header)
    if limit is not None and length > limit:
        raise ValueError(f"oversized frame ({length} bytes, limit {limit})")
    return await reader.readexactly(length)


async def read_frame(reader: asyncio.StreamReader, *,
                     limit: Optional[int] = MAX_REQUEST_FRAME
                     ) -> Tuple[Any, int]:
    """Read one pickled frame; returns ``(message, payload_bytes)``.

    Only called after the peer authenticated — nothing reaches
    ``pickle.loads`` before the handshake succeeds.  A payload that does
    not unpickle comes back as ``None``, which the read loop answers as a
    malformed frame.
    """
    blob = await _read_exact_frame(reader, limit=limit)
    try:
        message = pickle.loads(blob)
    except Exception:  # bad bytes raise any of a dozen exception types
        message = None
    return message, len(blob)


def write_frame(writer: asyncio.StreamWriter, message: Any) -> int:
    """Pickle and enqueue one frame; returns the payload size in bytes.

    The caller is responsible for ``await writer.drain()`` — the server's
    reply writer drains once per reply so a slow reader exerts TCP
    backpressure instead of growing an unbounded buffer.
    """
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    writer.write(LENGTH.pack(len(blob)) + blob)
    return len(blob)


async def server_handshake(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           token: bytes, *,
                           timeout: float = HANDSHAKE_TIMEOUT) -> bool:
    """Run the server side of the mutual HMAC handshake.

    Returns ``True`` on success.  An unauthenticated (or malformed, or
    stalled) peer gets the connection closed without learning anything —
    the same challenge and verification the worker server runs.
    """
    try:
        client_nonce = await asyncio.wait_for(
            _read_exact_frame(reader, limit=wire.MAX_HANDSHAKE_FRAME),
            timeout=timeout)
        challenge = wire.server_challenge(token, client_nonce)
        if challenge is None:
            return False
        server_nonce, frame = challenge
        writer.write(LENGTH.pack(len(frame)) + frame)
        await writer.drain()
        client_mac = await asyncio.wait_for(
            _read_exact_frame(reader, limit=wire.MAX_HANDSHAKE_FRAME),
            timeout=timeout)
    except (asyncio.IncompleteReadError, asyncio.TimeoutError,
            ConnectionError, ValueError, OSError):
        return False
    if not wire.server_verify(token, client_nonce, server_nonce, client_mac):
        return False
    write_frame(writer, (True, "ok"))
    await writer.drain()
    return True

"""Incremental stream sources: the chunk-wise input protocol of the engine.

The paper's model (Section III-A) is an *unbounded* stream read one element
at a time; materialising a whole :class:`~repro.streams.stream.IdentifierStream`
up front is an evaluation convenience, not part of the model.  A
:class:`StreamSource` restores the incremental view at chunk granularity:
the batch engine pulls one chunk at a time (``next_chunk``) until the source
is exhausted, which is what lets an adaptive adversary
(:mod:`repro.adversary.adaptive`) observe the sampler *between* chunks and
schedule its next insertions — the strong-adversary feedback loop of
Section III-B.

:class:`MaterializedStreamSource` adapts an existing pre-materialised stream
onto the protocol without changing a single chunk boundary: driving a target
through it is bit-identical to handing the stream to
:func:`repro.engine.batch.run_stream` directly with the same chunk size.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

from repro.streams.stream import IdentifierStream
from repro.utils.validation import check_positive

#: Default chunk size of sources built without an explicit one.  Kept equal
#: to the engine's default batch size (a local constant to avoid importing
#: the engine from the streams layer).
DEFAULT_CHUNK_SIZE = 8192


class StreamSource(abc.ABC):
    """A finite stream read one chunk at a time.

    The batch engine (:func:`repro.engine.batch.run_stream`) recognises any
    object with a ``next_chunk`` method and pulls chunks until ``None``.
    Before the first pull it calls :meth:`bind_sampler` with a read-only
    :class:`~repro.adversary.view.SamplerView` of the driven target, so
    adaptive sources can observe the sampler between chunks; sources that do
    not adapt simply inherit the no-op binding.
    """

    def bind_sampler(self, view) -> None:
        """Receive a read-only view of the sampler this source will feed.

        Called once by the engine before the first chunk is pulled.  The
        view exposes the sampler's memory contents only — never its random
        coins, matching the paper's strong-adversary model (Section III-B).
        """

    @abc.abstractmethod
    def next_chunk(self) -> Optional[np.ndarray]:
        """Return the next chunk as an int64 array, or ``None`` when done.

        Sources carry their own randomness, if any.
        """

    def materialized(self) -> IdentifierStream:
        """Return the full stream this source emitted (metrics input).

        Only meaningful once the source is exhausted; sources that cannot
        reconstruct their emissions may raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not record its emitted stream")


class MaterializedStreamSource(StreamSource):
    """Adapt a pre-materialised stream onto the chunk-wise protocol.

    Chunk boundaries are exactly those of
    :func:`repro.engine.batch.iter_batches` for ``chunk_size``, so driving a
    target through this source is bit-identical to driving it over the
    stream directly with ``batch_size=chunk_size`` (regression-tested by
    ``TestMaterializedStreamSource``).
    """

    def __init__(self, stream: Union[IdentifierStream, np.ndarray], *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        check_positive("chunk_size", chunk_size)
        if isinstance(stream, IdentifierStream):
            self._stream: Optional[IdentifierStream] = stream
            self._identifiers = np.asarray(stream.identifiers, dtype=np.int64)
        else:
            self._stream = None
            self._identifiers = np.ascontiguousarray(stream, dtype=np.int64)
        self._chunk_size = int(chunk_size)
        self._cursor = 0

    @property
    def chunk_size(self) -> int:
        """The fixed chunk length (the last chunk may be shorter)."""
        return self._chunk_size

    def next_chunk(self) -> Optional[np.ndarray]:
        """Return the next ``chunk_size`` slice, or ``None`` past the end."""
        if self._cursor >= self._identifiers.size:
            return None
        chunk = self._identifiers[self._cursor:self._cursor + self._chunk_size]
        self._cursor += self._chunk_size
        return chunk

    def materialized(self) -> IdentifierStream:
        """Return the wrapped stream (built on demand for raw arrays)."""
        if self._stream is None:
            self._stream = IdentifierStream(
                identifiers=self._identifiers.tolist(), label="materialized")
        return self._stream

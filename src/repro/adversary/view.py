"""Read-only sampler observations for the strong adversary (Section III-B).

The paper's adversary observes everything public — the input stream, and
(in the strongest reading) the sampler's externally visible state — but
*never* the correct node's local random coins; that restriction is exactly
why the Section V effort bounds hold.  :class:`SamplerView` enforces the
boundary in code: it wraps any engine target (a strategy, a
:class:`~repro.core.service.NodeSamplingService`, or a
:class:`~repro.engine.sharded.ShardedSamplingService`) and exposes one
observation — the memory contents, the state every adaptive attack reads.

On pipelined backends the observation drains in-flight chunks first (the
backends' one memory query broadcasts, which drains), so the state an
adaptive adversary sees after chunk ``k`` is identical on every backend —
the property that keeps adaptive runs bit-identical to serial per seed.
"""

from __future__ import annotations

from typing import Tuple

from repro.telemetry import runtime as telemetry


class SamplerView:
    """The memory of a running sampler, never its coins.

    Every query is counted on the ``adversary.feedback_queries`` telemetry
    counter (when telemetry is enabled); instruments never draw randomness,
    so observing cannot shift any coin stream.
    """

    def __init__(self, target: object) -> None:
        self._target = target

    def memory(self) -> Tuple[int, ...]:
        """The identifiers currently held in the sampler's memory ``Gamma``.

        For sharded targets this is the concatenation of every shard's
        memory (draining any pipelined chunks first).
        """
        reg = telemetry.active()
        if reg is not None:
            reg.counter("adversary.feedback_queries").inc()
        merged = getattr(self._target, "merged_memory", None)
        if callable(merged):
            return tuple(merged())
        strategy = getattr(self._target, "strategy", self._target)
        return tuple(strategy.memory)

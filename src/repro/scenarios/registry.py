"""Component registries of the scenario API.

Every axis the paper's evaluation varies — sampling strategy, input-stream
bias, frequency sketch, adversary behaviour — is an interchangeable
*component*.  A :class:`ComponentRegistry` maps short string keys (the ones a
:class:`~repro.scenarios.spec.ScenarioSpec` names in JSON) to builder
callables, and validates spec parameters against the builder's signature
before construction, so a typo'd parameter fails with the list of accepted
names instead of a bare ``TypeError`` deep inside a trial loop.

Four module-level registries cover the library's component kinds; the
matching ``register_*`` decorators let applications plug their own
strategies, streams, sketches and adversaries into the same declarative
machinery:

>>> from repro.scenarios import register_strategy
>>> @register_strategy("my-sampler")
... def build_my_sampler(memory_size, *, random_state=None):
...     ...

The built-in components are registered by :mod:`repro.scenarios.builtins`,
imported with the package.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional


class ScenarioError(ValueError):
    """A scenario spec names an unusable component or invalid parameters."""


class UnknownComponentError(ScenarioError):
    """A scenario spec references a component key that was never registered."""


class ComponentRegistry:
    """String-keyed registry of component builders with parameter validation.

    Parameters
    ----------
    kind:
        Human-readable component kind ("strategy", "stream", ...) used in
        error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = str(kind)
        self._builders: Dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, key: str,
                 builder: Optional[Callable[..., Any]] = None):
        """Register ``builder`` under ``key``; usable as a decorator.

        Re-registering a key overwrites the previous builder, so applications
        can shadow a built-in component with their own implementation.
        """
        if not key or not isinstance(key, str):
            raise ScenarioError(
                f"{self.kind} registry keys must be non-empty strings, "
                f"got {key!r}")

        def decorator(target: Callable[..., Any]) -> Callable[..., Any]:
            if not callable(target):
                raise ScenarioError(
                    f"{self.kind} {key!r} builder must be callable, "
                    f"got {type(target).__name__}")
            self._builders[key] = target
            return target

        if builder is None:
            return decorator
        return decorator(builder)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def keys(self) -> List[str]:
        """Return the registered component keys, sorted."""
        return sorted(self._builders)

    def __contains__(self, key: str) -> bool:
        return key in self._builders

    def get(self, key: str) -> Callable[..., Any]:
        """Return the builder registered under ``key``."""
        try:
            return self._builders[key]
        except KeyError:
            available = ", ".join(self.keys()) or "(none registered)"
            raise UnknownComponentError(
                f"unknown {self.kind} {key!r}; available: {available}"
            ) from None

    def parameters(self, key: str) -> List[str]:
        """Return the parameter names accepted by a component's builder."""
        signature = inspect.signature(self.get(key))
        return [name for name, parameter in signature.parameters.items()
                if parameter.kind is not inspect.Parameter.VAR_KEYWORD]

    def accepts(self, key: str, parameter: str) -> bool:
        """Whether a component's builder accepts the named parameter."""
        signature = inspect.signature(self.get(key))
        if parameter in signature.parameters:
            return True
        return any(p.kind is inspect.Parameter.VAR_KEYWORD
                   for p in signature.parameters.values())

    def check_params(self, key: str,
                     params: Optional[Dict[str, Any]] = None) -> None:
        """Validate spec parameter *names* against the builder's signature.

        Used by the runner's compile step so a misspelled parameter fails
        before the first trial starts, with the list of accepted names.
        """
        builder = self.get(key)
        signature = inspect.signature(builder)
        has_var_keyword = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in signature.parameters.values())
        if has_var_keyword:
            return
        unknown = [name for name in (params or {})
                   if name not in signature.parameters]
        if unknown:
            accepted = ", ".join(self.parameters(key)) or "(none)"
            raise ScenarioError(
                f"{self.kind} {key!r} does not accept parameter(s) "
                f"{', '.join(sorted(unknown))}; accepted: {accepted}")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self, key: str, params: Optional[Dict[str, Any]] = None,
              **context: Any) -> Any:
        """Build the component ``key`` from spec ``params`` plus ``context``.

        Parameters
        ----------
        key:
            Registered component key.
        params:
            The user-supplied parameter mapping from the scenario spec; every
            entry must be accepted by the builder's signature.
        context:
            Runner-supplied keyword arguments (``random_state``, ``stream``,
            ``frequency_oracle``, ``correct_identifiers``...).  Unlike spec
            params, context entries the builder does not declare are silently
            dropped — a builder only receives the context it asks for.
        """
        builder = self.get(key)
        self.check_params(key, params)
        signature = inspect.signature(builder)
        has_var_keyword = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in signature.parameters.values())
        kwargs = dict(params or {})
        for name, value in context.items():
            if has_var_keyword or name in signature.parameters:
                kwargs.setdefault(name, value)
        try:
            signature.bind(**kwargs)
        except TypeError as error:
            accepted = ", ".join(self.parameters(key)) or "(none)"
            raise ScenarioError(
                f"invalid parameters for {self.kind} {key!r}: {error} "
                f"(accepted: {accepted})") from None
        try:
            return builder(**kwargs)
        except (TypeError, ValueError) as error:
            raise ScenarioError(
                f"building {self.kind} {key!r} failed: {error}") from error

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ComponentRegistry(kind={self.kind!r}, "
                f"keys={self.keys()})")


#: The four global registries backing the scenario API.
STRATEGIES = ComponentRegistry("strategy")
STREAMS = ComponentRegistry("stream")
SKETCHES = ComponentRegistry("sketch")
ADVERSARIES = ComponentRegistry("adversary")


def register_strategy(key: str, builder: Optional[Callable] = None):
    """Register a sampling-strategy builder under ``key`` (decorator-friendly).

    The builder is called with the spec's ``params`` plus any of the context
    keywords it declares: ``random_state`` (always provided), ``stream`` (the
    trial's input stream, e.g. for omniscient oracles) and
    ``frequency_oracle`` (the built sketch, when the strategy spec carries a
    ``sketch`` section).
    """
    return STRATEGIES.register(key, builder)


def register_stream(key: str, builder: Optional[Callable] = None):
    """Register an input-stream builder under ``key`` (decorator-friendly).

    The builder is called with the spec's ``params`` plus ``random_state``
    and must return an :class:`~repro.streams.stream.IdentifierStream`.
    """
    return STREAMS.register(key, builder)


def register_sketch(key: str, builder: Optional[Callable] = None):
    """Register a frequency-oracle builder under ``key`` (decorator-friendly).

    The builder is called with the spec's ``params`` plus ``random_state``
    and must return an object implementing
    :class:`~repro.core.knowledge_free.FrequencyOracle`.
    """
    return SKETCHES.register(key, builder)


def register_adversary(key: str, builder: Optional[Callable] = None):
    """Register an attack builder under ``key`` (decorator-friendly).

    The builder is called with the spec's ``params`` plus any of the
    context keywords it declares: ``correct_identifiers`` (the universe of
    the legitimate stream) and ``sybil_factory`` (the
    :class:`~repro.adversary.attacks.SybilIdentifierFactory` every attack
    of the scenario mints Sybil identifiers from).  It returns either a
    static attack — merged into the stream before ingestion by
    :meth:`~repro.adversary.adversary.Adversary.bias` — or an
    :class:`~repro.adversary.adaptive.AdaptiveAttack`, scheduled between
    chunks against the running sampler.
    """
    return ADVERSARIES.register(key, builder)

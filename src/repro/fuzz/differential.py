"""Differential executor: one spec, several backends, zero tolerated drift.

Runs a scenario on a set of backend *variants* — serial, process, socket —
and compares the full :meth:`~repro.scenarios.runner.ScenarioResult.to_dict`
structures.  Any difference, down to the last float, is a divergence: the
determinism contract says the backend only decides *where* shards execute,
never what they compute.

A divergence is reported with the dotted paths that differ and the spec is
emitted in the corpus-entry format replayed by ``tests/fuzz_corpus/`` and
``repro fuzz --replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenarios import ScenarioSpec

__all__ = [
    "VARIANTS",
    "DEFAULT_VARIANTS",
    "DivergenceReport",
    "FuzzReport",
    "corpus_entry",
    "replay_corpus_entry",
    "run_differential",
]

#: Worker count used by every multi-process variant; two workers are enough
#: to exercise cross-worker chunk routing without ballooning CI time.
_WORKERS = 2

#: Engine-section overrides per variant name.  ``shards`` is never touched
#: here: bit-identity only holds across backends at the same topology, so
#: the shard count must come from the spec (see :func:`_variant_spec`).
VARIANTS: Dict[str, Dict[str, Any]] = {
    "serial": {"backend": "serial", "workers": None},
    "process": {"backend": "process", "workers": _WORKERS},
    "socket": {"backend": "socket", "workers": _WORKERS},
}

#: The variants compared by default: serial is the reference, process
#: exercises the pipelined shared-memory path, socket the TCP path.
DEFAULT_VARIANTS: Tuple[str, ...] = ("serial", "process", "socket")


@dataclass
class DivergenceReport:
    """One spec whose outputs differed between two variants."""

    spec: ScenarioSpec
    variants: Tuple[str, ...]
    baseline: str
    diverged: str
    paths: List[str]

    @property
    def reason(self) -> str:
        shown = ", ".join(self.paths[:5])
        extra = "" if len(self.paths) <= 5 else \
            f" (+{len(self.paths) - 5} more)"
        return (f"{self.diverged} diverged from {self.baseline} "
                f"at {shown}{extra}")


@dataclass
class FuzzReport:
    """Outcome of a differential sweep over several specs."""

    checked: int = 0
    variants: Tuple[str, ...] = DEFAULT_VARIANTS
    divergences: List[DivergenceReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _variant_spec(spec: ScenarioSpec, variant: str) -> ScenarioSpec:
    """Rebase a spec's engine section onto a backend variant.

    The spec's topology (shards, batch size, autoscale policy) is kept;
    only the execution backend and its worker count change.  Specs with
    no sharding get ``shards=2`` — applied uniformly, serial included, so
    every variant still runs the same two-shard ensemble.
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; "
            f"expected one of {', '.join(sorted(VARIANTS))}")
    overrides = dict(VARIANTS[variant])
    shards = spec.engine.shards if spec.engine.shards is not None else 2
    engine = replace(spec.engine, shards=shards, endpoints=None,
                     auth_token_file=None, **overrides)
    return replace(spec, engine=engine)


def _execute_variant(spec: ScenarioSpec, variant: str) -> Dict[str, Any]:
    """Run one spec on one variant and return its result dictionary.

    Module-level on purpose: tests monkeypatch this hook to inject a
    deliberate divergence and prove the comparator catches it.
    """
    from repro.scenarios import run_scenario

    return run_scenario(_variant_spec(spec, variant)).to_dict()


def _diff_paths(left: Any, right: Any, prefix: str = "") -> List[str]:
    """Return the dotted paths at which two JSON-like values differ."""
    if isinstance(left, dict) and isinstance(right, dict):
        paths: List[str] = []
        for key in sorted(set(left) | set(right)):
            where = f"{prefix}.{key}" if prefix else str(key)
            if key not in left or key not in right:
                paths.append(where)
            else:
                paths.extend(_diff_paths(left[key], right[key], where))
        return paths
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return [f"{prefix}[len {len(left)} != {len(right)}]"]
        paths = []
        for index, (a, b) in enumerate(zip(left, right)):
            paths.extend(_diff_paths(a, b, f"{prefix}[{index}]"))
        return paths
    if left != right:
        return [prefix or "<root>"]
    return []


def run_differential(
    specs: Sequence[ScenarioSpec],
    *,
    variants: Sequence[str] = DEFAULT_VARIANTS,
    progress: Optional[Callable[[int, ScenarioSpec], None]] = None,
) -> FuzzReport:
    """Run every spec on every variant; collect output divergences.

    The first variant in ``variants`` is the baseline the others are
    compared against.  All variants run even after a mismatch, so one
    report pinpoints every backend that drifted, not just the first.
    """
    if len(variants) < 2:
        raise ValueError("differential execution needs at least two "
                         f"variants, got {list(variants)!r}")
    report = FuzzReport(variants=tuple(variants))
    for index, spec in enumerate(specs):
        if progress is not None:
            progress(index, spec)
        results = {name: _execute_variant(spec, name) for name in variants}
        baseline = variants[0]
        for name in variants[1:]:
            paths = _diff_paths(results[baseline], results[name])
            if paths:
                report.divergences.append(DivergenceReport(
                    spec=spec, variants=tuple(variants),
                    baseline=baseline, diverged=name, paths=paths))
        report.checked += 1
    return report


def corpus_entry(divergence: DivergenceReport, *,
                 found_by: str) -> Dict[str, Any]:
    """Serialise a divergence in the ``tests/fuzz_corpus/`` entry format."""
    return {
        "found_by": found_by,
        "reason": divergence.reason,
        "variants": list(divergence.variants),
        "spec": divergence.spec.to_dict(),
    }


def replay_corpus_entry(entry: Dict[str, Any]) -> FuzzReport:
    """Re-run a corpus entry: its spec on its recorded variant set."""
    if not isinstance(entry, dict) or "spec" not in entry:
        raise ValueError("corpus entry must be an object with a 'spec' key")
    spec = ScenarioSpec.from_dict(entry["spec"])
    variants = tuple(entry.get("variants") or DEFAULT_VARIANTS)
    return run_differential([spec], variants=variants)

"""The strong adversary controller (Section III-B).

The :class:`Adversary` owns a set of attacks and composes their malicious
insertions with the legitimate stream of a correct node, producing the biased
input stream ``sigma_i`` that the node's sampling service actually reads.
The adversary observes the legitimate stream (it is "strong") but never the
local random coins of correct nodes — in particular, it cannot know which
Count-Min cells a given identifier maps to, which is precisely why the
Section V effort bounds hold.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.adversary.attacks import (
    FloodingAttack,
    PeakAttack,
    SybilIdentifierFactory,
    TargetedAttack,
    flooding_attack,
    peak_attack,
    targeted_attack,
)
from repro.streams.stream import IdentifierStream, merge_streams
from repro.utils.rng import RandomState, ensure_rng

Attack = Union[TargetedAttack, FloodingAttack, PeakAttack]


class Adversary:
    """Composes one or more attacks against a correct node's input stream.

    Parameters
    ----------
    attacks:
        The attacks to launch.  Their malicious insertions are interleaved
        uniformly at random with the legitimate stream (the adversary may pick
        any ordering; random interleaving is the neutral choice and the one
        the paper's simulations use).
    random_state:
        Randomness used for the interleaving and for the attacks' insertion
        streams.
    """

    def __init__(self, attacks: Sequence[Attack], *,
                 random_state: RandomState = None) -> None:
        if not attacks:
            raise ValueError("an adversary needs at least one attack")
        self.attacks: List[Attack] = list(attacks)
        self._rng = ensure_rng(random_state)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def malicious_identifiers(self) -> List[int]:
        """All distinct identifiers controlled by the adversary (the ``l`` ids)."""
        identifiers = []
        seen = set()
        for attack in self.attacks:
            for identifier in attack.malicious_identifiers:
                if identifier not in seen:
                    seen.add(identifier)
                    identifiers.append(identifier)
        return identifiers

    @property
    def effort(self) -> int:
        """Number of distinct malicious identifiers — the adversary's cost."""
        return len(self.malicious_identifiers)

    # ------------------------------------------------------------------ #
    # Stream manipulation
    # ------------------------------------------------------------------ #
    def malicious_stream(self) -> IdentifierStream:
        """Return the combined stream of malicious insertions from all attacks."""
        streams = [attack.generate_insertions(random_state=self._rng)
                   for attack in self.attacks]
        if len(streams) == 1:
            return streams[0]
        return merge_streams(streams, random_state=self._rng,
                             label="malicious-insertions")

    def bias(self, legitimate_stream: IdentifierStream) -> IdentifierStream:
        """Return the biased input stream seen by the correct node.

        The malicious insertions are interleaved uniformly at random with the
        legitimate identifiers; the universe of the result is the union of the
        correct population and the malicious identifiers.
        """
        malicious = self.malicious_stream()
        biased = merge_streams(
            [legitimate_stream, malicious],
            random_state=self._rng,
            label=f"{legitimate_stream.label}+{'+'.join(a.name for a in self.attacks)}",
        )
        return biased


# ---------------------------------------------------------------------- #
# Convenience constructors for the paper's canonical adversaries
# ---------------------------------------------------------------------- #
def make_peak_adversary(correct_identifiers: Sequence[int], *,
                        peak_frequency: int = 50_000,
                        random_state: RandomState = None) -> Adversary:
    """Adversary of Figure 7(a): one identifier repeated ``peak_frequency`` times."""
    factory = SybilIdentifierFactory(correct_identifiers)
    return Adversary([peak_attack(peak_frequency, sybil_factory=factory)],
                     random_state=random_state)


def make_targeted_adversary(correct_identifiers: Sequence[int],
                            target_identifier: int, *,
                            distinct_identifiers: int,
                            repetitions: int = 1,
                            random_state: RandomState = None) -> Adversary:
    """Adversary running a targeted attack against ``target_identifier``."""
    factory = SybilIdentifierFactory(correct_identifiers)
    attack = targeted_attack(target_identifier,
                             distinct_identifiers=distinct_identifiers,
                             repetitions=repetitions, sybil_factory=factory)
    return Adversary([attack], random_state=random_state)


def make_flooding_adversary(correct_identifiers: Sequence[int], *,
                            distinct_identifiers: int,
                            repetitions: int = 1,
                            random_state: RandomState = None) -> Adversary:
    """Adversary running a flooding attack with the given identifier budget."""
    factory = SybilIdentifierFactory(correct_identifiers)
    attack = flooding_attack(distinct_identifiers=distinct_identifiers,
                             repetitions=repetitions, sybil_factory=factory)
    return Adversary([attack], random_state=random_state)


def make_combined_adversary(correct_identifiers: Sequence[int],
                            target_identifier: int, *,
                            targeted_identifiers: int,
                            flooding_identifiers: int,
                            repetitions: int = 1,
                            random_state: RandomState = None) -> Adversary:
    """Adversary of Figure 7(b): targeted and flooding attacks combined."""
    factory = SybilIdentifierFactory(correct_identifiers)
    targeted = targeted_attack(target_identifier,
                               distinct_identifiers=targeted_identifiers,
                               repetitions=repetitions, sybil_factory=factory)
    flooding = flooding_attack(distinct_identifiers=flooding_identifiers,
                               repetitions=repetitions, sybil_factory=factory)
    return Adversary([targeted, flooding], random_state=random_state)

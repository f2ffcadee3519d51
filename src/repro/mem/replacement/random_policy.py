"""Random replacement."""

from __future__ import annotations

from repro.mem.replacement.base import ReplacementPolicy


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection.

    Stateless apart from the seeded RNG, so simulations remain
    reproducible for a fixed seed.
    """

    name = "RND"

    def victim(self, set_index: int) -> int:
        return self.rng.randrange(self.ways)

"""What several experiment drivers share: the paper's policy pairs.

Everything else a driver needs -- populations, shared model builders,
memoised campaigns, the on-disk cache -- comes from the
:class:`repro.api.Session` it is handed; the size knobs
(:class:`~repro.api.scales.Scale`) live in :mod:`repro.api.scales`.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["POLICY_PAIRS"]

#: The ten ordered policy pairs of the paper's Figs. 4-5 ("X>Y" bars).
POLICY_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("LRU", "RND"), ("LRU", "FIFO"), ("LRU", "DIP"), ("LRU", "DRRIP"),
    ("RND", "FIFO"), ("RND", "DIP"), ("RND", "DRRIP"),
    ("FIFO", "DIP"), ("FIFO", "DRRIP"),
    ("DIP", "DRRIP"),
)

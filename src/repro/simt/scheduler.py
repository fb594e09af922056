"""Warp schedulers.

Each SM has one or more warp schedulers; a scheduler owns the warps whose
``warp_in_sm`` index maps to it and picks, every cycle, one ready warp to
issue from.  Two policies are provided:

* :class:`LooseRoundRobinScheduler` (LRR) — rotate through warps starting
  just after the last one that issued.
* :class:`GreedyThenOldestScheduler` (GTO) — keep issuing from the same
  warp until it stalls, then fall back to the oldest ready warp.

The scheduling policy affects how well memory latency is overlapped with
useful work, i.e. the *exposed latency* of Figure 2, which is why it is one
of the ablation axes in the benchmark suite.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.simt.warp import Warp
from repro.utils.errors import ConfigurationError


class WarpScheduler:
    """Base class for warp scheduling policies."""

    name = "base"

    def __init__(self, scheduler_id: int) -> None:
        self.scheduler_id = scheduler_id

    def select(self, ready_warps: Sequence[Warp], now: int) -> Optional[Warp]:
        """Pick one warp to issue from among ``ready_warps`` (may be empty)."""
        raise NotImplementedError

    def notify_issue(self, warp: Warp, now: int) -> None:
        """Inform the scheduler that ``warp`` issued an instruction."""


class LooseRoundRobinScheduler(WarpScheduler):
    """Rotate through ready warps, starting after the last issuer."""

    name = "lrr"

    def __init__(self, scheduler_id: int) -> None:
        super().__init__(scheduler_id)
        self._last_warp_id: Optional[int] = None

    def select(self, ready_warps: Sequence[Warp], now: int) -> Optional[Warp]:
        if not ready_warps:
            return None
        ordered = sorted(ready_warps, key=lambda warp: warp.warp_id)
        if self._last_warp_id is None:
            return ordered[0]
        for warp in ordered:
            if warp.warp_id > self._last_warp_id:
                return warp
        return ordered[0]

    def notify_issue(self, warp: Warp, now: int) -> None:
        self._last_warp_id = warp.warp_id


class GreedyThenOldestScheduler(WarpScheduler):
    """Prefer the warp that issued last; otherwise pick the oldest ready warp."""

    name = "gto"

    def __init__(self, scheduler_id: int) -> None:
        super().__init__(scheduler_id)
        self._greedy_id: Optional[int] = None

    def select(self, ready_warps: Sequence[Warp], now: int) -> Optional[Warp]:
        if not ready_warps:
            return None
        if self._greedy_id is not None:
            for warp in ready_warps:
                if warp.warp_id == self._greedy_id:
                    return warp
        return min(ready_warps, key=lambda warp: (warp.launch_order, warp.warp_id))

    def notify_issue(self, warp: Warp, now: int) -> None:
        self._greedy_id = warp.warp_id


_SCHEDULERS = {
    LooseRoundRobinScheduler.name: LooseRoundRobinScheduler,
    GreedyThenOldestScheduler.name: GreedyThenOldestScheduler,
}


def create_warp_scheduler(name: str, scheduler_id: int) -> WarpScheduler:
    """Instantiate a warp scheduler by name (``"lrr"`` or ``"gto"``)."""
    try:
        return _SCHEDULERS[name](scheduler_id)
    except KeyError as exc:
        raise ConfigurationError(f"unknown warp scheduler {name!r}") from exc


def available_warp_schedulers() -> List[str]:
    """Names of all registered warp scheduling policies."""
    return sorted(_SCHEDULERS)

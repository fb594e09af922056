"""Memory-pipeline stages and lifetime events.

The paper instruments GPGPU-Sim to "emit timestamps whenever a given memory
request moves from one stage of the memory pipeline to the next" and then
breaks each request's lifetime into eight components (Figure 1's legend).
This module defines both:

* :class:`Event` — the points in a request's life at which the simulator
  records a timestamp, and
* :class:`Stage` — the eight latency components of Figure 1 into which the
  gaps between consecutive events are classified.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import Dict, List, Tuple

import numpy as np


@unique
class Event(Enum):
    """Timestamped transition points in a memory request's lifetime."""

    ISSUE = "issue"                    # request created by the LD/ST unit
    L1_ACCESS = "l1_access"            # request accesses the L1 data cache
    ICNT_INJECT = "icnt_inject"        # request leaves the SM's miss queue
    ROP_ARRIVE = "rop_arrive"          # request arrives at the partition (ROP)
    L2Q_ARRIVE = "l2q_arrive"          # request enters the L2 request queue
    L2_DATA = "l2_data"                # L2 hit data becomes available
    DRAM_Q_ARRIVE = "dram_q_arrive"    # request enters the DRAM scheduler queue
    DRAM_SCHEDULED = "dram_scheduled"  # DRAM scheduler selects the request
    DRAM_DATA = "dram_data"            # DRAM data burst completes
    COMPLETE = "complete"              # data written back at the SM

#: Canonical ordering of events along the memory pipeline.
EVENT_ORDER: Tuple[Event, ...] = (
    Event.ISSUE,
    Event.L1_ACCESS,
    Event.ICNT_INJECT,
    Event.ROP_ARRIVE,
    Event.L2Q_ARRIVE,
    Event.L2_DATA,
    Event.DRAM_Q_ARRIVE,
    Event.DRAM_SCHEDULED,
    Event.DRAM_DATA,
    Event.COMPLETE,
)


@unique
class Stage(Enum):
    """The eight latency components used in the paper's Figure 1."""

    SM_BASE = "SM Base"
    L1_TO_ICNT = "L1toICNT"
    ICNT_TO_ROP = "ICNTtoROP"
    ROP_TO_L2Q = "ROPtoL2Q"
    L2Q_TO_DRAMQ = "L2QtoDRAMQ"
    DRAM_Q_TO_SCH = "DRAM(QtoSch)"
    DRAM_SCH_TO_A = "DRAM(SchToA)"
    FETCH_TO_SM = "Fetch2SM"


#: Ordering of stages used for stacked-breakdown reports (paper legend order).
STAGE_ORDER: Tuple[Stage, ...] = (
    Stage.SM_BASE,
    Stage.L1_TO_ICNT,
    Stage.ICNT_TO_ROP,
    Stage.ROP_TO_L2Q,
    Stage.L2Q_TO_DRAMQ,
    Stage.DRAM_Q_TO_SCH,
    Stage.DRAM_SCH_TO_A,
    Stage.FETCH_TO_SM,
)

# Each event's column in a request's timestamp row is its place in
# EVENT_ORDER, read as ``event.column`` (an attribute, so the hot paths
# that record events never hash the enum).  A row holds one cycle per
# column, -1 where the event was not recorded.
for _column, _event in enumerate(EVENT_ORDER):
    _event.column = _column
del _column, _event

#: Width of a timestamp row (one column per event).
NUM_EVENTS = len(EVENT_ORDER)

#: Which stage the gap starting at a given event belongs to.  The stage of
#: the gap "event -> next recorded event" is looked up here; gaps starting
#: at events not listed (COMPLETE) do not exist.
_GAP_STAGE: Dict[Event, Stage] = {
    Event.ISSUE: Stage.SM_BASE,
    Event.L1_ACCESS: Stage.L1_TO_ICNT,
    Event.ICNT_INJECT: Stage.ICNT_TO_ROP,
    Event.ROP_ARRIVE: Stage.ROP_TO_L2Q,
    Event.L2Q_ARRIVE: Stage.L2Q_TO_DRAMQ,
    Event.L2_DATA: Stage.FETCH_TO_SM,
    Event.DRAM_Q_ARRIVE: Stage.DRAM_Q_TO_SCH,
    Event.DRAM_SCHEDULED: Stage.DRAM_SCH_TO_A,
    Event.DRAM_DATA: Stage.FETCH_TO_SM,
}

#: ``_GAP_STAGE`` as an index table: the :data:`STAGE_ORDER` position of
#: the gap starting at each column but the last.
_GAP_STAGE_INDEX: Tuple[int, ...] = tuple(
    STAGE_ORDER.index(_GAP_STAGE[event]) for event in EVENT_ORDER[:-1]
)

_ISSUE = Event.ISSUE.column
_L1_ACCESS = Event.L1_ACCESS.column
_ICNT_INJECT = Event.ICNT_INJECT.column
_COMPLETE = Event.COMPLETE.column
_SM_BASE = STAGE_ORDER.index(Stage.SM_BASE)


def classify_rows(times):
    """Per-stage cycles of many request lifetimes at once.

    ``times`` is an ``(n, NUM_EVENTS)`` int64 array of timestamp rows
    (indexed by ``Event.column``; ``-1`` = not recorded).  Returns an
    ``(n, len(STAGE_ORDER))`` int64 array whose columns follow
    :data:`STAGE_ORDER`.  Each recorded event's gap to the next recorded
    event goes to the stage :data:`_GAP_STAGE` names, with one rule on
    top, applied as a single mask: a request that never left the SM (no
    ``ICNT_INJECT``; an L1 hit or a request merged onto an L1 MSHR
    entry) books the gap after ``L1_ACCESS`` as ``SM_BASE``, matching
    the paper's reading of Figure 1 where short-latency buckets are
    "entirely filled with SM base time".

    Raises :class:`ValueError` when a row lacks ``ISSUE`` or
    ``COMPLETE`` or its recorded times decrease.
    """
    times = np.asarray(times, dtype=np.int64).reshape(-1, NUM_EVENTS)
    if ((times[:, _ISSUE] < 0) | (times[:, _COMPLETE] < 0)).any():
        raise ValueError("lifetime must contain ISSUE and COMPLETE timestamps")
    stages = np.zeros((len(times), len(STAGE_ORDER)), dtype=np.int64)
    left_sm = times[:, _ICNT_INJECT] >= 0
    following = times[:, _COMPLETE]
    for column in range(NUM_EVENTS - 2, -1, -1):
        time = times[:, column]
        present = time >= 0
        gap = np.where(present, following - time, 0)
        if (gap < 0).any():
            row = int(np.flatnonzero(gap < 0)[0])
            raise ValueError(
                f"timestamps not monotonic: {EVENT_ORDER[column]} at "
                f"{int(time[row])} followed by a later event at "
                f"{int(following[row])}"
            )
        stage = _GAP_STAGE_INDEX[column]
        if column == _L1_ACCESS:
            stages[:, stage] += np.where(left_sm, gap, 0)
            stages[:, _SM_BASE] += np.where(left_sm, 0, gap)
        else:
            stages[:, stage] += gap
        following = np.where(present, time, following)
    return stages


def timestamp_row(timestamps: Dict[Event, int]) -> List[int]:
    """An event-keyed timestamp mapping as one row (``-1`` = missing)."""
    row = [-1] * NUM_EVENTS
    for event, cycle in timestamps.items():
        row[event.column] = cycle
    return row


def classify_lifetime(timestamps: Dict[Event, int]) -> Dict[Stage, int]:
    """Break one request lifetime into per-stage cycle counts.

    The single-request form of :func:`classify_rows`, which holds the
    rule: ``timestamps`` maps each recorded :class:`Event` to its cycle
    (``ISSUE`` and ``COMPLETE`` must be present; intermediate events may
    be missing, e.g. an L1 hit records only ISSUE, L1_ACCESS, COMPLETE),
    and the result maps every :class:`Stage` to its cycles (0 for stages
    not traversed).  A request that never left the SM books the gap
    after ``L1_ACCESS`` as ``SM_BASE``.  The Figure 1 analysis classifies
    whole columns through :func:`classify_rows` and never calls this.
    """
    return dict(zip(STAGE_ORDER,
                    classify_rows([timestamp_row(timestamps)])[0].tolist()))

"""Classification of rule/epoch combinations by observed-wait offset.

Every scheduling-rule/observation-epoch combination shifts each
customer's observed waiting time by the same amount, -1, 0 or +1 slot,
regardless of the trace.  A combo sees a customer at slots A + s0 ..
D + e0 (see :func:`dtq.timebase.span_shift`), so its observed wait is
D - A + e0 - s0 + 1 and its offset is e0 - s0 + 1.  The classifier reads
the class straight off the shift; of the five shifts the 30 combos
share, (0, -1) and (1, 0) are coherent, (1, -1) and (0, -2) sub-coherent
and (0, 0) super-coherent.  Anything outside {-1, 0, +1} indicates a
broken time base and raises.  :func:`verify_on_trace` checks the class
against every customer of a trace.  It sums the per-customer offset
histogram, at most three counts, block by block over two reused buffers,
with no customer-length temporary, and memoizes it on the trace once per
span shift, so the 30 combos cost five passes over the customers.  The
entry sits beside the averages that :func:`dtq.observer.time_averages`
memoizes; that memo relies on traces being immutable and never holds a
slot-length path.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .engine import Trace, _slot_blocks
from .observer import _seen_slots
from .timebase import EPOCHS, RULES, ObservationEpoch, SchedulingRule, render_grid, span_shift

__all__ = [
    "CoherenceClass",
    "OffsetViolation",
    "classify",
    "classification_table",
    "verify_on_trace",
    "OffsetReport",
    "GOLDEN_CLASS_GRID",
    "GOLDEN_EDGE_CENTER_OK",
    "render_classification_text",
    "classification_rows",
]


class CoherenceClass(Enum):
    """A combo's class, one member per observed-wait offset: ``label`` is
    its name, ``short`` its spelling in the grids and ``offset`` the
    observed minus actual waiting time of every customer, in slots."""

    COHERENT = ("coherent", "coh", 0)  # observed wait equals the actual wait
    SUB_COHERENT = ("sub-coherent", "sub", -1)  # observed wait is one slot short
    SUPER_COHERENT = ("super-coherent", "super", 1)  # observed wait is one slot long

    def __init__(self, label: str, short: str, offset: int):
        self.label, self.short, self.offset = label, short, offset


_BY_OFFSET = {c.offset: c for c in CoherenceClass}
_BY_SHORT = {c.short: c for c in CoherenceClass}


class OffsetViolation(RuntimeError):
    """A per-customer offset fell outside {-1, 0, +1}."""


def classify(rule: SchedulingRule, epoch: ObservationEpoch) -> CoherenceClass:
    s0, e0 = span_shift(rule, epoch)
    offset = e0 - s0 + 1
    if offset not in _BY_OFFSET:
        raise OffsetViolation(
            f"offset {offset} for ({rule.label}, {epoch.label}); expected -1, 0 or +1"
        )
    return _BY_OFFSET[offset]


def classification_table() -> dict[tuple[SchedulingRule, ObservationEpoch], CoherenceClass]:
    return {(r, e): classify(r, e) for r in RULES for e in EPOCHS}


class OffsetReport(NamedTuple):
    rule: SchedulingRule
    epoch: ObservationEpoch
    expected: int
    offset_counts: dict[int, int]
    passed: bool


def _offset_blocks(trace: Trace, s0: int, e0: int):
    """Every customer's observed minus actual wait plus one under span
    shift (s0, e0), one block of ``_SLOT_BLOCK`` customers at a time.

    Each block is a view of the same reused buffer, overwritten by the
    next, so the caller reads it before it asks for another; the two
    buffers of :func:`dtq.observer._seen_slots` are the only arrays made.
    """
    a, d = trace.arrivals, trace.departures
    bufs = None
    for i0, i1 in _slot_blocks(0, trace.n):
        if bufs is None:  # the first block is the longest
            bufs = np.empty((2, i1 - i0), dtype=np.int64)
        first, seen = bufs[:, : i1 - i0]
        offsets = _seen_slots(a[i0:i1], d[i0:i1], s0, e0, first, seen)
        offsets -= d[i0:i1]
        offsets += a[i0:i1]
        offsets += 1
        yield offsets


def verify_on_trace(trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch) -> OffsetReport:
    """Check every customer's observed-minus-actual wait against the class.

    The offset histogram depends on the combo only through its span
    shift, so it is computed once per shift and memoized on the trace;
    each report holds its own copy.  It is summed block by block over
    :func:`_offset_blocks`, with no customer-length temporary.  An offset
    outside {-1, 0, +1} raises OffsetViolation with the trace's whole
    sorted offset set, found by a second pass only then, and memoizes
    nothing.
    """
    s0, e0 = span_shift(rule, epoch)
    key = ("offsets", s0, e0)
    hist = trace._memo.get(key)
    if hist is None:
        counts = np.zeros(3, dtype=np.int64)
        for offsets in _offset_blocks(trace, s0, e0):
            if offsets.min() < 0 or offsets.max() > 2:
                found = set()
                for block in _offset_blocks(trace, s0, e0):
                    found.update(np.unique(block).tolist())
                raise OffsetViolation(
                    f"offsets {[v - 1 for v in sorted(found)]} for ({rule.label}, {epoch.label})"
                )
            counts += np.bincount(offsets, minlength=3)
        hist = trace._memo[key] = {v - 1: int(c) for v, c in enumerate(counts) if c}
    want = classify(rule, epoch).offset
    passed = hist == ({want: trace.n} if trace.n else {})
    return OffsetReport(rule, epoch, want, dict(hist), passed)


# Reference grids the computed classification must reproduce; the
# per-customer verification above cross-checks them on every test trace.
def _grid(rows: dict[SchedulingRule, str]):
    return {
        (rule, epoch): _BY_SHORT[name]
        for rule, cells in rows.items()
        for epoch, name in zip(EPOCHS, cells.split())
    }


GOLDEN_CLASS_GRID = _grid(
    {
        SchedulingRule.EAS: "sub coh sub coh coh sub",
        SchedulingRule.LAS_IA: "coh sub sub coh coh sub",
        SchedulingRule.LAS_DA: "super coh coh super super coh",
        SchedulingRule.LA_AF: "coh coh coh super super coh",
        SchedulingRule.LA_DF: "coh coh sub coh coh sub",
    }
)

# Whether counting service positions at slot edges / slot centers yields
# the actual waiting times, per rule: (edges, centers).
GOLDEN_EDGE_CENTER_OK = {
    SchedulingRule.EAS: (False, True),
    SchedulingRule.LAS_IA: (True, False),
    SchedulingRule.LAS_DA: (False, True),
    SchedulingRule.LA_AF: (True, True),
    SchedulingRule.LA_DF: (True, True),
}


def classification_rows(table) -> list[dict]:
    return [
        {"rule": r.label, "epoch": e.label, "class": table[(r, e)].label}
        for r in RULES
        for e in EPOCHS
    ]


def render_classification_text(table) -> str:
    return render_grid({k: c.short for k, c in table.items()}, 9)

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
against every customer of a trace.  It reads the per-customer observed
waits directly and memoizes their offset histogram, at most three counts,
on the trace once per span shift, so the 30 combos cost five passes over
the customers.  The entry sits beside the averages that
:func:`dtq.observer.time_averages` memoizes; that memo relies on traces
being immutable and never holds a slot-length path.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import Trace
from .observer import observed_waits
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
    COHERENT = "coherent"      # observed wait equals the actual wait
    SUB_COHERENT = "sub-coherent"    # observed wait is one slot short
    SUPER_COHERENT = "super-coherent"  # observed wait is one slot long

    @property
    def label(self) -> str:
        return self.value

    @property
    def short(self) -> str:
        return {"coherent": "coh", "sub-coherent": "sub", "super-coherent": "super"}[self.value]

    @property
    def offset(self) -> int:
        """Observed minus actual waiting time of every customer, in slots."""
        return {"coherent": 0, "sub-coherent": -1, "super-coherent": 1}[self.value]


class OffsetViolation(RuntimeError):
    """A per-customer offset fell outside {-1, 0, +1}."""


def classify(rule: SchedulingRule, epoch: ObservationEpoch) -> CoherenceClass:
    s0, e0 = span_shift(rule, epoch)
    offset = e0 - s0 + 1
    for cls in CoherenceClass:
        if cls.offset == offset:
            return cls
    raise OffsetViolation(
        f"offset {offset} for ({rule.label}, {epoch.label}); expected -1, 0 or +1"
    )


def classification_table() -> dict[tuple[SchedulingRule, ObservationEpoch], CoherenceClass]:
    return {(r, e): classify(r, e) for r in RULES for e in EPOCHS}


@dataclass(frozen=True)
class OffsetReport:
    rule: SchedulingRule
    epoch: ObservationEpoch
    expected: int
    offset_counts: dict[int, int]
    passed: bool


def verify_on_trace(trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch) -> OffsetReport:
    """Check every customer's observed-minus-actual wait against the class.

    The offset histogram depends on the combo only through its span
    shift, so it is computed once per shift and memoized on the trace;
    each report holds its own copy.
    """
    key = ("offsets", *span_shift(rule, epoch))
    hist = trace._memo.get(key)
    if hist is None:
        # observed minus actual wait, in place on observed_waits' fresh array
        offsets = observed_waits(trace, rule, epoch)
        offsets -= trace.departures
        offsets += trace.arrivals
        if trace.n and (offsets.min() < -1 or offsets.max() > 1):
            raise OffsetViolation(
                f"offsets {np.unique(offsets).tolist()} for ({rule.label}, {epoch.label})"
            )
        offsets += 1
        counts = np.bincount(offsets, minlength=3)
        hist = trace._memo[key] = {v - 1: int(c) for v, c in enumerate(counts) if c}
    want = classify(rule, epoch).offset
    passed = hist == ({want: trace.n} if trace.n else {})
    return OffsetReport(rule, epoch, want, dict(hist), passed)


# Reference grids the computed classification must reproduce; the
# per-customer verification above cross-checks them on every test trace.
_G = ("sub", "coh", "super")


def _grid(rows: dict[SchedulingRule, str]):
    out = {}
    for rule, cells in rows.items():
        names = cells.split()
        for epoch, name in zip(EPOCHS, names):
            out[(rule, epoch)] = {
                "coh": CoherenceClass.COHERENT,
                "sub": CoherenceClass.SUB_COHERENT,
                "super": CoherenceClass.SUPER_COHERENT,
            }[name]
    return out


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


def classification_rows(table=None) -> list[dict]:
    table = table or classification_table()
    return [
        {"rule": r.label, "epoch": e.label, "class": table[(r, e)].label}
        for r in RULES
        for e in EPOCHS
    ]


def render_classification_text(table=None) -> str:
    return render_grid({k: c.short for k, c in (table or classification_table()).items()}, 9)

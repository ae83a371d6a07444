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
waits directly, so it never touches the averages that
:func:`dtq.observer.time_averages` memoizes on a trace; that memo relies
on traces being immutable and never holds a slot-length path.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .engine import Trace
from .observer import observed_waits
from .timebase import EPOCHS, RULES, ObservationEpoch, SchedulingRule, span_shift

__all__ = [
    "CoherenceClass",
    "OffsetViolation",
    "classify",
    "classification_table",
    "expected_offset",
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


def expected_offset(rule: SchedulingRule, epoch: ObservationEpoch) -> int:
    return classify(rule, epoch).offset


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
    """Check every customer's observed-minus-actual wait against the class."""
    offsets = observed_waits(trace, rule, epoch) - trace.waits
    vals, counts = np.unique(offsets, return_counts=True)
    if np.any(np.abs(vals) > 1):
        raise OffsetViolation(
            f"offsets {sorted(int(v) for v in vals)} for ({rule.label}, {epoch.label})"
        )
    want = expected_offset(rule, epoch)
    hist = {int(v): int(c) for v, c in zip(vals, counts)}
    passed = hist == ({want: trace.n} if trace.n else {})
    return OffsetReport(rule, epoch, want, hist, passed)


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


_EPOCH_HEADERS = ("Random", "Outside", "Pre-Arr", "Post-Arr", "Pre-Dep", "Post-Dep")


def render_classification_text(table=None) -> str:
    table = table or classification_table()
    width = 9
    lines = ["".ljust(8) + "".join(h.ljust(width) for h in _EPOCH_HEADERS)]
    for r in RULES:
        cells = (table[(r, e)].short for e in EPOCHS)
        lines.append(r.label.ljust(8) + "".join(c.ljust(width) for c in cells))
    return "\n".join(lines)

"""dtq's records: immutable NamedTuples with fixed fields, defaults, reprs and
construction errors, and Trace the one dataclass in dtq."""
import dataclasses
import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import dtq
from dtq import birthdeath, busy, cli, coherence, engine, littles, observer
from dtq.coherence import CoherenceClass
from dtq.timebase import ObservationEpoch, SchedulingRule

_ARR = np.arange(3)
_POINT = engine.DiscreteDist.point(2)
_COH = "<CoherenceClass.COHERENT: ('coherent', 'coh', 0)>"
_EAS = repr(SchedulingRule.EAS)
_RO = repr(ObservationEpoch.RANDOM_OBSERVER)

# each of dtq's 18 records: its class, a value per field in order, and the
# repr those give
RECORDS = {
    "DiscreteDist": (
        engine.DiscreteDist, ((1, 2), (0.25, 0.75)), "DiscreteDist(values=(1, 2), probs=(0.25, 0.75))"
    ),
    "Bernoulli": (engine.Bernoulli, (0.3,), "Bernoulli(alpha=0.3)"),
    "Renewal": (engine.Renewal, (_POINT,), "Renewal(interarrival=DiscreteDist(values=(2,), probs=(1.0,)))"),
    "FinitePopulation": (engine.FinitePopulation, (5, 0.05), "FinitePopulation(n_sources=5, alpha=0.05)"),
    "Explicit": (engine.Explicit, ((1, 1, 4),), "Explicit(slots=(1, 1, 4))"),
    "Fifo": (engine.Fifo, (2, "random"), "Fifo(servers=2, assignment='random')"),
    "InfiniteServer": (engine.InfiniteServer, (), "InfiniteServer()"),
    "External": (engine.External, ((2, 3),), "External(departures=(2, 3))"),
    "BDParams": (
        birthdeath.BDParams, (abs, abs, 4),
        "BDParams(alpha_fn=<built-in function abs>, beta_fn=<built-in function abs>, n_max=4)",
    ),
    "BGeom1Params": (
        birthdeath.BGeom1Params, (0.3, 0.5, CoherenceClass.COHERENT),
        f"BGeom1Params(alpha=0.3, beta=0.5, klass={_COH})",
    ),
    "CycleStats": (
        busy.CycleStats, (_ARR, _ARR, _ARR),
        "CycleStats(starts=array([0, 1, 2]), V=array([0, 1, 2]), openers=array([0, 1, 2]))",
    ),
    "Model": (
        cli.Model, (engine.Bernoulli(0.3), _POINT, engine.Fifo(), 0.3, None),
        "Model(arrival=Bernoulli(alpha=0.3), service=DiscreteDist(values=(2,), probs=(1.0,)), "
        "discipline=Fifo(servers=1, assignment='lowest'), lam=0.3, beta=None)",
    ),
    "OffsetReport": (
        coherence.OffsetReport, (SchedulingRule.EAS, ObservationEpoch.RANDOM_OBSERVER, 1, {1: 3}, True),
        f"OffsetReport(rule={_EAS}, epoch={_RO}, expected=1, offset_counts={{1: 3}}, passed=True)",
    ),
    "CostFunction": (littles.CostFunction, (abs, "indicator"), "CostFunction(pieces=<built-in function abs>, name='indicator')"),
    "WorkloadMoments": (
        littles.WorkloadMoments, (1.0, 2.0, 0.5, 1.5, 0.75), "WorkloadMoments(ES=1.0, ES2=2.0, EWq=0.5, ESWq=1.5, EV=0.75)"
    ),
    "UtilizationReport": (littles.UtilizationReport, (0.5,), "UtilizationReport(total=0.5)"),
    "QueueEstimates": (
        observer.QueueEstimates, (0.3, 2.0, 0.6, 3.0, 0.9, _ARR, _ARR, 100, 10, None, None, 7),
        "QueueEstimates(lam=0.3, W=2.0, L=0.6, W_obs=3.0, L_obs=0.9, pi=array([0, 1, 2]), "
        "pi_obs=array([0, 1, 2]), horizon=100, warmup=10, rule=None, epoch=None, n_completed=7)",
    ),
    "Window": (
        observer.Window, (10, 90, 0.3, 2.0, _ARR, 7, 14),
        "Window(warmup=10, span=90, lam=0.3, W=2.0, completed=array([0, 1, 2]), n_completed=7, sojourn=14)",
    ),
}

# a record left out by its caller takes these values
DEFAULTS = [
    (lambda: engine.Fifo(), engine.Fifo(1, "lowest")),
    (lambda: engine.Fifo(3), engine.Fifo(3, "lowest")),
    (lambda: engine.Fifo(assignment="random"), engine.Fifo(1, "random")),
    (lambda: birthdeath.BDParams(abs, abs), birthdeath.BDParams(abs, abs, None)),
    (lambda: observer.QueueEstimates(*RECORDS["QueueEstimates"][1][:-1]),
     observer.QueueEstimates(*RECORDS["QueueEstimates"][1][:-1], 0)),
]

# the construction errors of the records that validate, text for text
INVALID = [
    (lambda: engine.DiscreteDist((), ()), "distribution needs at least one support point"),
    (lambda: engine.DiscreteDist((1,), (0.5, 0.5)), "values and probs must have equal length"),
    (lambda: engine.DiscreteDist((0, 1), (0.5, 0.5)), "support must be at least one slot"),
    (lambda: engine.DiscreteDist((2, 1), (0.5, 0.5)), "support must be strictly increasing"),
    (lambda: engine.DiscreteDist((1, 2), (1.2, -0.2)), "probabilities must be nonnegative"),
    (lambda: engine.DiscreteDist((1, 2), (float("nan"), 1.0)), "probabilities must be nonnegative"),
    (lambda: engine.DiscreteDist((1, 2), (0.5, 0.4)), "probabilities sum to 0.9, expected 1"),
    (lambda: engine.Bernoulli(1.5), "arrival probability must be in (0, 1), got 1.5"),
    (lambda: engine.Bernoulli(alpha=0.0), "arrival probability must be in (0, 1), got 0.0"),
    (lambda: engine.FinitePopulation(0, 0.1), "need at least one source"),
    (lambda: engine.FinitePopulation(2, 1.5), "arrival probability must be in (0, 1), got 1.5"),
    (lambda: engine.FinitePopulation(30, 0.05),
     "n_sources * alpha must not exceed 1 for the single-arrival dynamics"),
    (lambda: engine.Explicit((0, 1)), "explicit arrival slots must be >= 1"),
    (lambda: engine.Explicit(slots=(3, 2)), "explicit arrival slots must be nondecreasing"),
    (lambda: engine.Fifo(0), "need at least one server"),
    (lambda: engine.Fifo(assignment="rnd"), "unknown assignment policy 'rnd'"),
    (lambda: birthdeath.BGeom1Params(0.0, 0.5, CoherenceClass.COHERENT),
     "need 0 < alpha, beta < 1, got alpha=0.0, beta=0.5"),
    (lambda: birthdeath.BGeom1Params(0.5, 0.25, CoherenceClass.COHERENT), "unstable: alpha/beta = 2.0 >= 1"),
]


def _hashable(args):
    try:
        hash(args)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", list(RECORDS))
class TestRecordContract:
    def test_keyword_and_positional_construction(self, name):
        cls, args, _ = RECORDS[name]
        record = cls(*args)
        assert record == cls(**dict(zip(cls._fields, args)))
        assert [getattr(record, f) for f in cls._fields] == list(args)

    def test_fields_cannot_be_assigned(self, name):
        cls, args, _ = RECORDS[name]
        record = cls(*args)
        for field, value in zip(cls._fields, args):
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            assert getattr(record, field) is value

    def test_equal_fields_equal_records(self, name):
        cls, args, _ = RECORDS[name]
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        if _hashable(args):
            assert hash(a) == hash(b)
        else:  # a numpy array or a dict field, unhashable as before
            with pytest.raises(TypeError):
                hash(a)

    def test_repr_unchanged(self, name):
        cls, args, text = RECORDS[name]
        assert repr(cls(*args)) == text


@pytest.mark.parametrize("build, expected", DEFAULTS)
def test_defaults(build, expected):
    assert build() == expected


@pytest.mark.parametrize(
    "build, message",
    INVALID,
    ids=["dist-empty", "dist-lengths", "dist-support", "dist-order", "dist-negative", "dist-nan", "dist-sum",
         "bernoulli-1.5", "bernoulli-0", "population-0", "population-alpha", "population-load",
         "explicit-0", "explicit-order", "fifo-0", "fifo-policy", "bgeom1-alpha", "bgeom1-unstable"],
)
def test_validating_records_raise_their_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_discrete_dist_caches_its_table_per_record():
    dist = engine.DiscreteDist.geometric(0.5)
    assert dist._arrays is dist._arrays
    assert engine.DiscreteDist.geometric(0.5)._arrays is not dist._arrays


def test_trace_is_the_only_dataclass():
    # a frozen dataclass compiles its generated methods at import, which
    # every fresh process pays; records are NamedTuples instead
    found = set()
    for info in pkgutil.iter_modules(dtq.__path__):
        module = importlib.import_module(f"dtq.{info.name}")
        found |= {
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
        }
    assert found == {engine.Trace}

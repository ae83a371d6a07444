"""Discrete-time queueing laboratory.

Exact micro-time semantics for scheduling rules and observation epochs,
slot-based sample-path simulation, and verification of the classical
closed forms (Little's law and variants, birth-death distributions,
busy-period identities, the discrete mean-delay formula) against
simulated paths.
"""
from .birthdeath import BDParams, BGeom1Params, bgeom1_L, bgeom1_pi, one_or_more, product_form
from .busy import CycleStats, cycle_means_from_rates, detect_cycles, ggeo1_busy, sigma_solve
from .coherence import CoherenceClass, classification_table, classify, verify_on_trace
from .engine import (
    Bernoulli,
    DiscreteDist,
    Explicit,
    External,
    Fifo,
    FinitePopulation,
    InfiniteServer,
    Renewal,
    Trace,
    build_trace,
    gen_arrivals,
    run_discipline,
    sample_services,
)
from .littles import check_little, check_little_observed, utilization, verify_pk
from .observer import QueueEstimates, time_averages
from .timebase import ObservationEpoch, SchedulingRule

__version__ = "0.1.0"

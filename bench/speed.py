"""How fast the machine ran during a measurement, from fixed reference work.

A shared machine switches between a fast and a slow speed, about 1.7 times
apart, every second or so, and in a slow spell, which can outlast a run,
it spends more of its time slow.  CPU time slows as much as wall time.  So
a run also times a fixed piece of pure-Python work at evenly spaced points
between its jobs: the oracle's bisimulation and stuttering refinements of
four fixed models.  It shares no code with ``abspres``, so it costs the
same on every build, and over ten seconds or more its time tracks the
library's (the ratio of the two varied by 2-3 % where each alone varied by
8 %).

The run's slowdown is the mean probe time over :data:`REFERENCE_S`, a mean
because it must weigh fast and slow time as a job's mean latency does.
The end-to-end figures are scaled by it: they read as on a machine where
the reference work takes that long.  The unscaled figures and the slowdown
are printed and written to the results file beside them.
"""

from __future__ import annotations

import random
import statistics

import oracle
from workloads import random_model

#: Probes per measurement.
PROBES = 60
#: Nominal time of the reference work, its typical time on a 2-vCPU x86-64
#: Xeon VM with Python 3.11.
REFERENCE_S = 0.015


class Reference:
    """The reference work, on models built once."""

    def __init__(self):
        self.models = [oracle.model_of(random_model(random.Random(f"reference:{i}"), 16, 2))
                       for i in range(4)]

    def __call__(self) -> None:
        for m in self.models:
            oracle.bisimulation(m)
            oracle.stuttering(m)


def slowdown(probe_s: list) -> float:
    """Mean probe time over the nominal one: above 1 on a slow machine."""
    return statistics.fmean(probe_s) / REFERENCE_S

"""Closed-loop job runner with an in-process time limit per job.

One client runs the corpus's jobs one after another with no think time and
no extra threads.  A job is timed from just before its library call to just
after it returns; turning the result into plain data for the oracle happens
outside that interval.  A pass runs the jobs in the order of a fixed
schedule, which names every job at least once and short jobs more than
once.  The number of passes is fixed by the caller, never by how fast the
code runs, so two builds average each job over the same number of
samples.
"""

from __future__ import annotations

import signal
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

#: Longest a single job may run before it is recorded as a timeout.
JOB_TIMEOUT_S = 30.0
#: No job starts after this many seconds of a measurement, so a run with
#: failing or very slow jobs still exits in time.
RUN_CAP_S = 70.0


class JobTimeout(Exception):
    """Raised inside a job by the interval timer."""


@contextmanager
def time_limit(seconds: float):
    """Raise :class:`JobTimeout` in the running code after ``seconds``.

    Uses ``SIGALRM`` from ``setitimer``, so it works only in the main thread
    and needs no thread or process of its own.
    """

    def expire(signum, frame):
        raise JobTimeout(f"job exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Measurement:
    """Latencies, answers and failures of the passes of one measurement."""

    passes: int = 0
    attempted: int = 0
    setup_s: list = field(default_factory=list)  # seconds of each pass's set-up
    probe_s: list = field(default_factory=list)  # seconds of each run of the probe
    latencies: dict = field(default_factory=dict)  # job id -> [seconds per sample]
    answers: dict = field(default_factory=dict)  # job id -> summary of its first answer
    failures: list = field(default_factory=list)  # (job id, "timeout" | error text)

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.latencies.values())


def run_job(job):
    """Run one job under the time limit; returns (seconds, result, failure
    or None)."""
    timeout = JOB_TIMEOUT_S
    t0 = perf_counter()
    try:
        with time_limit(timeout):
            t0 = perf_counter()
            result = job.call()
            dur = perf_counter() - t0
    except JobTimeout:
        return timeout, None, "timeout"
    except Exception:  # a library error fails this job, not the run
        return perf_counter() - t0, None, traceback.format_exc(limit=3).strip()
    return dur, result, None


def _spread(count: int, total: int) -> set:
    """``count`` positions evenly spaced over ``total`` job slots."""
    return {(2 * k + 1) * total // (2 * count) for k in range(count)}


def measure(set_up, passes: int, setups: int = 0, tracer=None, schedule=None,
            probe=None, probes: int = 0) -> Measurement:
    """Run ``passes`` whole passes.

    ``set_up()`` returns the jobs; a pass runs ``jobs[i]`` for each ``i`` of
    ``schedule``, by default every job once.  It runs before each pass and, when
    ``setups`` asks for more set-ups than passes, also at evenly spaced
    points between jobs, so set-up is timed across the whole run and not in
    one burst.  ``probe()`` is timed ``probes`` times at evenly spaced
    points between jobs.  Jobs due after ``RUN_CAP_S`` are not run but
    recorded as failures.
    """
    out = Measurement()
    start = perf_counter()

    def timed_set_up():
        t0 = perf_counter()
        jobs = set_up()
        out.setup_s.append(perf_counter() - t0)
        return jobs

    jobs = timed_set_up()
    if schedule is None:
        schedule = range(len(jobs))
    total = passes * len(schedule)
    extra_at = _spread(max(setups - passes, 0), total)
    probe_at = _spread(probes, total)
    position = 0
    for p in range(passes):
        if p and perf_counter() - start <= RUN_CAP_S:
            jobs = timed_set_up()
        for job in map(jobs.__getitem__, schedule):
            if position in extra_at and perf_counter() - start <= RUN_CAP_S:
                timed_set_up()
            if position in probe_at:
                t0 = perf_counter()
                probe()
                out.probe_s.append(perf_counter() - t0)
            position += 1
            out.attempted += 1
            if perf_counter() - start > RUN_CAP_S:
                out.failures.append((job.id, "skipped: the run reached its time cap"))
                continue
            if tracer is not None:
                tracer.job_id = job.id
            dur, result, failure = run_job(job)
            out.latencies.setdefault(job.id, []).append(dur)
            if failure is None:
                answer = job.summarize(result)
                if out.answers.setdefault(job.id, answer) != answer:
                    failure = "answer differs from the job's first pass"
            if failure is not None:
                out.failures.append((job.id, failure))
        out.passes += 1
    return out


def summarize(m: Measurement) -> dict:
    """Throughput, median and tail from each job's mean latency over its
    samples.

    The mean, not the fastest sample, because the run's slowdown that
    ``speed.py`` measures is a mean over the run too.  Throughput counts the
    jobs that never failed against one sample of each job.  The tail is the
    highest percentile with at least ten jobs beyond it: with N jobs, the
    (N-10)th smallest value.
    """
    mean = {job: statistics.fmean(v) for job, v in m.latencies.items()}
    failed = {job for job, _ in m.failures}
    per_job = sorted(mean.values())
    n = len(per_job)
    tail_rank = max(n - 11, 0)
    return {
        "jobs_per_s": len(mean.keys() - failed) / sum(per_job),
        "p50_s": statistics.median(per_job),
        "tail_s": per_job[tail_rank],
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "jobs": n,
        "samples": sum(len(v) for v in m.latencies.values()),
        "setup_s": statistics.median(m.setup_s),
    }

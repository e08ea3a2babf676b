"""Host-speed reference: a fixed kernel timed next to the program.

On a shared virtual machine the speed of a core drifts, by up to 1.5x
on a 2-vCPU Xeon host, over spans of seconds to minutes, and the
median pass of a single-threaded workload follows it.  `sample()` times
fixed code that never touches the program: a single-threaded loop of
small numpy operations, the interpreter and small-vector mix of the
fixed-point solvers.  It runs before, between and after the CLI
invocations of every pass, outside their timing.  For a workload in
`workloads.HOST_SCALED` the run multiplies each pass time by
`REFERENCE_S / mean kernel time`, which reports it in seconds on a host
where one kernel call takes `REFERENCE_S`.  Program time does not enter
the kernel time, so a program that gets slower reads slower by the same
share.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.02
CALLS = 2  # kernel calls at each point where host speed is sampled
_LOOPS = 2000
_X = np.linspace(0.0, 1.0, 1000)


def _call():
    start = time.perf_counter()
    total = 0.0
    for _ in range(_LOOPS):
        total += float(np.sum(np.exp(-_X) * _X))
    return time.perf_counter() - start


def sample():
    """Seconds taken by each of CALLS calls of the reference kernel."""
    return [_call() for _ in range(CALLS)]


def normalize(seconds, kernel_samples):
    """`seconds` at reference speed, given kernel times measured around
    them.  Their mean, not their median, keeps the host's short stalls,
    which the program's time holds as well."""
    return seconds * REFERENCE_S / statistics.mean(kernel_samples)

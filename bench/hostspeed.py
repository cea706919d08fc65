"""The host's speed during a run, from a fixed probe that does not touch
fockmod.

The benchmark shares a small VM with a busy host.  In stretches of a few
seconds to minutes the host runs interpreted code in the VM up to about
twice as slowly, with CPU time growing as wall time does and next to no
steal time reported, so neither CPU time nor a longer run removes it.  The
probe below, about 10 ms of small numpy calls and dict traffic, slows in the
same stretches.  A run probes the host dozens of times between the calls it
times and reports

    scaled seconds = wall seconds * REF_S / mean probe seconds

A change to fockmod moves the wall time and not the probe, so it moves the
scaled time by the same share.  A slow and a fast stretch read alike to the
extent that the probe slows as much as the workload does: on the fock-small
and bog-crossed workloads, scaling cut the spread of ten-run sets to between
a fifth and a third.  Dense BLAS products slow far less than the probe, so amalg-n4 is
not scaled (workloads.py).

    python3 bench/hostspeed.py [seconds]

prints the probe's time about every half second, to watch the host.
"""

import statistics
import sys
import time

import numpy as np

# The typical probe time while the benchmark was written, on a 2-vCPU Intel
# Xeon VM with numpy on OpenBLAS.  Any fixed value would do: it only sets the
# scale, here close to wall seconds on that host.
REF_S = 0.016
REPEATS = 3

_A = np.random.default_rng(0).standard_normal((24, 24))
_K = np.random.default_rng(1).standard_normal((4, 4))


def _probe():
    """Small dense products, SVD norms and Kronecker products, and dict
    traffic, as fockmod's code on small Fock spaces does."""
    acc = 0.0
    table = {}
    for i in range(120):
        acc += float(np.linalg.norm(_A @ _A.T, 2))
        acc += float(np.kron(_K, _K).trace())
        for j in range(40):
            table[(i, j % 7)] = table.get((i, j % 7), 0) + j
    return acc + len(table)


def probe_s():
    """Median time of REPEATS probes."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """The probe times of one run."""

    def __init__(self):
        self.samples = []

    def probe(self):
        self.samples.append(probe_s())

    def mean_s(self):
        return statistics.fmean(self.samples)

    def scale(self, seconds):
        """`seconds` measured during the run, scaled to REF_S."""
        return seconds * REF_S / self.mean_s()


if __name__ == "__main__":
    end = time.perf_counter() + float(sys.argv[1] if len(sys.argv) > 1
                                      else 20)
    while time.perf_counter() < end:
        print(f"{probe_s() * 1000:.2f} ms", flush=True)
        time.sleep(0.5)

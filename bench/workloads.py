"""The benchmark's workloads.

A pass calls fockmod's own command line suite runners (fockmod.cli) on their
default instances, once per suite and CLI seed (common.run_pass), so it makes
exactly the calls `fockmod --suite <s> --seed <cli seed> [--truncation <n>]`
makes.  The runners generate their inputs with fockmod.instances from the CLI
seed; `inputs` makes the same fockmod.instances calls on their own, for
setup_s.
"""

import numpy as np

# Module attributes, not imported names, so that the traced pass sees every
# call through the wrappers it installs on these modules.
from fockmod import cli
from fockmod import instances as ins

# CLI seeds whose creation-instance sets suit fock-small: of the CLI seeds
# 0-129 whose first instances stay small, those whose four suites ran in
# 1.9-2.7 s and peaked at 54-59 MB RSS in a fresh process (2-core x86-64
# box, OpenBLAS on 2 threads).  The generator's set cost is heavy-tailed by
# seed (0.6 s to over 100 s), so fock-small runs a fixed pool: many small
# Fock spaces at a steady cost and footprint per pass.
FOCK_POOL = (25, 50, 54)
BOG_SETS = 4


class Workload:
    """A named workload.  One pass runs `suites` (at `truncation`, or the
    CLI's defaults when None) for every CLI seed in `cli_seeds(seed)`;
    `record_seeds` are the CLI seeds at which record.py checks that every
    unit (one CLI seed's checks) has the same (check name, passed) pairs.
    With `scaled`, pass times are scaled to the host's speed (hostspeed.py);
    without, they are reported as measured."""

    def __init__(self, name, suites, cli_seeds, record_seeds,
                 truncation=None, scaled=True):
        self.name = name
        self.suites = suites
        self.cli_seeds = cli_seeds
        self.record_seeds = record_seeds
        self.truncation = truncation
        self.scaled = scaled

    def settings(self, cli_seed):
        return cli.Settings(truncation=self.truncation, seed=cli_seed)

    def inputs(self, cli_seed):
        """The default instances the suites' runners generate."""
        st = self.settings(cli_seed)
        out = []
        if "amalg" in self.suites:
            out.append(ins.amalg_instances(cli_seed))
        if {"fock", "ideal", "factorization", "toeplitz"} & set(self.suites):
            out.append(ins.creation_instances(cli_seed, count=5))
        if "crossed" in self.suites:
            out.append(ins.crossed_instances(cli_seed))
        if "bog" in self.suites:
            out += [ins.multiplicity_shift_instance(),
                    ins.random_bogoliubov(st.rng()),
                    ins.flip_twisted_module()]
        return out


def _pool_order(pool):
    def cli_seeds(seed):
        rng = np.random.default_rng([seed, 7])
        return [int(s) for s in rng.permutation(pool)]
    return cli_seeds


def _derived(k):
    def cli_seeds(seed):
        rng = np.random.default_rng([seed, 11])
        return [int(s) for s in rng.integers(0, 2 ** 31, size=k)]
    return cli_seeds


_bog_seeds = _derived(BOG_SETS)

# Why these workloads:
# amalg-n4   the dense large-operator regime: full dxd complex products at
#            Fock dim 582, SVD spectral norms, the dense left_matrix builders
#            (left_rep_block, kron, block_diag_matrix) and AmalgSetup.P / .W,
#            recomputed on every access.  Every Fock-core and freeprod
#            optimisation shows here.  It stands in for the CLI default,
#            truncation 5 (dim 1,606, 112 s), too slow to repeat.  Caveat:
#            the mix shifts with N; spectral norms were about 0.6 s of 10 s
#            in a profiled run at N = 4 and about 46 s of 194 s at N = 5, the
#            latter measured while another job shared the 2 cores, which
#            inflated its times.  Its pass time is mostly BLAS products,
#            which the host's slow stretches barely slow, so it is not
#            scaled by the hostspeed probe.
# fock-small many small Fock spaces, per-call overhead: tens of thousands of
#            per-block SVD norms (AlgebraElement.norm), word / TensorStep
#            application and object construction, no large dense matrices.
#            A level-graded Fock core should gain little here; bookkeeping
#            overhead it adds shows up as a regression.  Every pass runs the
#            whole pool, so its cost does not depend on the workload seed,
#            which only orders the CLI seeds.
# bog-crossed the layers the other two barely touch: bogoliubov (entropy
#            bounds), hilbmod.gram_schmidt and module-vector arithmetic,
#            crossed products and the CP / automorphism code in cstar.  One
#            CLI seed's instance set is too short to time steadily, so a
#            pass runs the sets of BOG_SETS seeds derived from the workload
#            seed.
WORKLOADS = {
    "amalg-n4": Workload("amalg-n4", ("amalg",), lambda seed: [seed],
                         range(5), truncation=4, scaled=False),
    "fock-small": Workload("fock-small",
                           ("fock", "ideal", "factorization", "toeplitz"),
                           _pool_order(FOCK_POOL), FOCK_POOL),
    "bog-crossed": Workload("bog-crossed", ("crossed", "free", "bog"),
                            _bog_seeds,
                            [s for ws in range(5) for s in _bog_seeds(ws)]),
    # Not a benchmark workload: the amalg suite at truncation 3, for the
    # benchmark's own smoke test.
    "smoke": Workload("smoke", ("amalg",), lambda seed: [seed], [0],
                      truncation=3, scaled=False),
}

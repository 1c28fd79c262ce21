"""The benchmark's workloads.

Each workload makes its inputs with one ``vblink synth`` call whose
``--seed`` is the benchmark seed, then runs one solve command on them.
Flags are given as they are typed after ``vblink <command>``; the
inputs, ``--out`` and the synth ``--seed`` are added at run time.
"""

from dataclasses import dataclass

FIT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple
    solve: tuple  # the subcommand, then its flags
    f1_floor: float = 0.0  # lowest pairwise F1 a scored solve may give

    def flag(self, name, default=None):
        """The value of a solve flag, as an int."""
        return int(self.solve[self.solve.index(name) + 1]) if name in self.solve else default

    @property
    def workers(self):
        return self.flag("--workers", 1)

    @property
    def db_sizes(self):
        return [int(s) for s in self.synth[self.synth.index("--db-sizes") + 1].split(",")]

    @property
    def scored(self):
        """A fit writes linkage.csv, which `vblink eval` scores."""
        return self.solve[0] == "fit"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="link4k",
            why="duplicate-heavy wide-K case: K = N = 4000 makes the dense N x K "
            "responsibilities dominate time and memory, in one record block; 3 "
            "sweeps (the fit converges in 11 to 19 depending on the seed), so that "
            "several solves fit in one run",
            synth=("--k", "1000", "--db-sizes", "2000,2000", "--fields", "8",
                   "--cardinality", "10", "--distortion", "0.02"),
            solve=("fit", "--seed", str(FIT_SEED), "--workers", "1", "--max-sweeps", "3"),
            f1_floor=0.9,  # 0.950 to 0.964 over synth seeds 1-5
        ),
        Workload(
            name="tall48k",
            why="many records, narrow K, nearly duplicate-free: 6 record blocks "
            "for 2 worker threads, and per-sweep cost dominates; 20 sweeps, as a "
            "narrow-K fit from the near-uniform start takes 60 to 111 sweeps to "
            "converge depending on the seed",
            synth=("--k", "50", "--db-sizes", "24000,24000", "--fields", "10",
                   "--cardinality", "10", "--alpha", "0.3"),
            solve=("fit", "--k", "50", "--seed", str(FIT_SEED), "--workers", "2",
                   "--max-sweeps", "20"),
        ),
        Workload(
            name="oracle12",
            why="3**12 = 531441 assignments, about half the enumeration budget: "
            "the oracle does the work and the engine almost none",
            synth=("--k", "4", "--db-sizes", "6,6", "--fields", "6",
                   "--cardinality", "4", "--distortion", "0.1"),
            solve=("oracle-check", "--k", "3", "--seed", str(FIT_SEED)),
        ),
    )
}

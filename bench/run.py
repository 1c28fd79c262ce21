"""vblink benchmark: time to solution through the CLI, per workload.

    python3 bench/run.py --workload link4k --seed 1 --seconds 36 --trace 0

The checkout is the directory above ``bench/``: the package is taken from
its ``src`` directory, and scratch files go to its ``.bench_run``.

``--trace 0`` runs rounds of ``vblink synth`` and the workload's solve
command as fresh subprocesses, one at a time, while another round fits in
``--seconds`` (at least one), and reports the end-to-end metrics: set-up
time (synth), solve time and the solve's peak RSS (taken from ``os.wait4``
for that child alone), each the median over the rounds.  A run of
``speed_ref.py`` before and after every round gauges the machine's speed
at that moment, and the two times are reported at a fixed speed (see
``Run.end_to_end``): a shared host's speed drifts by up to 2x over
minutes, which no number of repeats within a run can average out.  The
unscaled wall times are printed as well.

``--trace 1`` runs the same commands in this process with every traced
function wrapped (see ``tracer.py``) and reports the per-layer metrics,
plus one untraced solve to measure the tracing overhead.

Every command's outputs are checked; a failed command or check counts in
``failed``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn; ``--describe`` prints the
machine and the exact command lines as JSON.
"""

import os

# One BLAS/OpenMP thread everywhere, so the only extra threads are --workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import filecmp
import importlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SPEED_REF = Path(__file__).resolve().with_name("speed_ref.py")

# speed_ref.py's nominal wall time: the end-to-end times are reported as if
# the reference had taken exactly this long in their run.
REF_SECONDS = 1.0
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # every child is killed once the run has lasted this long
ELBO_SLACK = 1e-9  # allowed relative ELBO decrease between sweeps
GAP_SLACK = 1e-9
EVIDENCE_RTOL = 1e-9

# (module the caller looks the function up in, attribute, span, keep last call)
TRACED = (
    ("vblink.cli", "main", "cli.main", False),
    ("vblink.cli", "load_databases", "corpus.load", True),
    ("vblink.cli", "write_databases", "corpus.write", False),
    ("vblink.cli", "write_schema_file", "corpus.write", False),
    ("vblink.cli", "sample_dataset", "genmodel.sample", False),
    ("vblink.cli", "write_ground_truth", "genmodel.write_truth", False),
    ("vblink.cli", "fit", "engine.fit", True),
    ("vblink.cli", "save_state", "engine.save_state", False),
    ("vblink.engine", "init_state", "engine.init", False),
    ("vblink.engine", "update_phi", "engine.phi", False),
    ("vblink.engine", "update_lambda", "engine.lambda", False),
    ("vblink.engine", "elbo", "engine.elbo", False),
    ("vblink.engine", "digamma", "numerics.digamma", False),
    ("vblink.engine", "log_sum_exp", "numerics.log_sum_exp", False),
    ("vblink.oracle", "log_sum_exp", "numerics.log_sum_exp", False),
    ("vblink.cli", "map_linkage", "evaluate.map_linkage", False),
    ("vblink.cli", "write_linkage", "evaluate.write_linkage", False),
    ("vblink.cli", "read_linkage", "evaluate.read", False),
    ("vblink.cli", "read_ground_truth", "evaluate.read", False),
    ("vblink.cli", "pairwise_metrics", "evaluate.pairwise_metrics", False),
    ("vblink.cli", "exact_posterior", "oracle.exact_posterior", True),
)


def nproc():
    return len(os.sched_getaffinity(0))


def synth_args(w, seed, out):
    return ["synth", *w.synth, "--seed", str(seed), "--out", str(out)]


def solve_args(w, data, out, workers=None):
    """The solve command on ``data``; ``--workers`` never exceeds nproc."""
    flags = list(w.solve)
    if "--workers" in flags:
        i = flags.index("--workers") + 1
        flags[i] = str(workers or min(int(flags[i]), nproc()))
    dbs = [str(data / f"db{d}.csv") for d in range(1, len(w.db_sizes) + 1)]
    return [flags[0], *dbs, "--schema", str(data / "schema.txt"), *flags[1:],
            "--out", str(out)]


def eval_args(data, solved, out):
    return ["eval", str(solved / "linkage.csv"), str(data / "truth.csv"), "--out", str(out)]


class Run:
    """One workload at one seed: its scratch directory, the children it
    starts, and the tally of attempted and failed commands and checks.
    Commands run in the scratch directory and name files relative to it, so
    their outputs do not depend on where the checkout is."""

    def __init__(self, workload, seed):
        self.w = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.problems = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )

    # -- commands ---------------------------------------------------------

    def child(self, argv, what, expected=(0,)):
        """Run a Python child to completion; returns (exit code, wall seconds,
        peak RSS in MB), with the RSS of this child only."""
        self.attempted += 1
        log = self.dir / f"{what}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code not in expected:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"{what} exited {code}: {' | '.join(tail)}")
        return code, wall, usage.ru_maxrss * 1024 / 1e6

    def vblink(self, args, what, expected=(0,)):
        return self.child([sys.executable, "-m", "vblink.cli", *args], what, expected)

    @property
    def solve_codes(self):
        """Exit codes a solve may give: 4 (sweep limit reached) too under --max-sweeps."""
        return (0, 4) if self.w.flag("--max-sweeps") else (0,)

    def solve(self, data, out, workers=None):
        code, wall, peak = self.vblink(solve_args(self.w, data, out, workers),
                                       out.name, self.solve_codes)
        return code in self.solve_codes, code, wall, peak

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.problems.append(message)
        return ok

    @property
    def failed(self):
        return len(self.problems)

    # -- output checks ----------------------------------------------------

    def check_solve(self, out, code):
        """Check the outputs of the solve in ``out``; returns (sweeps, final ELBO)."""
        out = self.dir / out
        if self.w.solve[0] == "oracle-check":
            return None, self.check_oracle(out)
        elbos = read_trace(out / "trace.csv")
        cap = self.w.flag("--max-sweeps", math.inf)
        self.check(len(elbos) == cap if code == 4 else len(elbos) <= cap,
                   f"{out.name}: exit {code} after {len(elbos)} sweeps")
        drops = [i + 2 for i, (a, b) in enumerate(zip(elbos, elbos[1:]))
                 if b < a - ELBO_SLACK * abs(a)]
        self.check(elbos and not drops, f"{out.name}: ELBO falls at sweeps {drops}")
        rows, records = line_count(out / "linkage.csv") - 1, sum(self.w.db_sizes)
        self.check(rows == records,
                   f"{out.name}: linkage.csv has {rows} rows for {records} records")
        return len(elbos), elbos[-1] if elbos else None

    def check_oracle(self, out):
        report = json.loads((out / "oracle_report.json").read_text())
        self.check(report["gap"] >= -GAP_SLACK, f"{out.name}: gap {report['gap']} < 0")
        exact = report["exact_log_evidence"]
        want = self.reference_evidence
        self.check(abs(exact - want) <= EVIDENCE_RTOL * abs(want),
                   f"{out.name}: exact_log_evidence {exact!r}, reference {want!r}")
        return report["final_elbo"]

    def check_score(self, out):
        f1 = json.loads((self.dir / out / "score.json").read_text())["pairwise_f1"]
        self.check(f1 >= self.w.f1_floor, f"pairwise F1 {f1} is below {self.w.f1_floor}")
        return f1

    def check_same(self, a, b, what):
        """Byte-identical directories, manifest.json aside (it names paths)."""
        a, b = self.dir / a, self.dir / b
        names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
        same = names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
        same = same and all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)
        return self.check(same, f"{what}: {a.name} and {b.name} differ")

    @property
    def reference_evidence(self):
        if not hasattr(self, "_evidence"):
            data = self.dir / "data0"
            self._evidence = reference.log_evidence(
                reference.read_records(sorted(data.glob("db*.csv"))),
                reference.read_cardinalities(data / "schema.txt"),
                self.w.flag("--k"),
                alpha=0.1,
            )
        return self._evidence

    # -- the two kinds of run ---------------------------------------------

    def synth(self, i):
        """Synth into data{i}; a rerun (i > 0) is checked against data0 and
        removed.  Returns the wall seconds, or None if synth failed."""
        data = f"data{i}"
        code, wall, _ = self.vblink(synth_args(self.w, self.seed, data), f"synth{i}")
        if code != 0:
            return None
        if i:
            self.check_same("data0", data, "synth rerun")
            shutil.rmtree(self.dir / data)
        return wall

    def end_to_end(self, seconds):
        """Runs of the speed reference bracket each synth-and-solve round:
        ref, synth, solve, ref, synth, solve, ..., ref.  Each round's synth
        and solve wall times are divided by the mean of the two references
        around it and multiplied by ``REF_SECONDS``: times at a fixed machine
        speed.  The reported value is the median over the rounds."""
        self.warm_up()
        if self.synth(0) is None:
            return {}
        data, out = Path("data0"), Path("solve")
        setup, solve, rss = [], [], []
        raw = {"setup wall": [], "solve wall": []}
        elbo = None
        started = time.perf_counter()
        refs = [self.speed_ref()]
        last = 0.0  # wall seconds of the last round and its reference
        # Start another round only if it should end within the run's seconds.
        while refs[-1] and (not solve or time.perf_counter() - started + last <= seconds):
            round_start = time.perf_counter()
            synth_wall = self.synth(len(refs))
            shutil.rmtree(self.dir / out, ignore_errors=True)
            ok, code, wall, peak = self.solve(data, out)
            if synth_wall is None or not ok:
                break
            _, elbo = self.check_solve(out, code)
            refs.append(self.speed_ref())
            raw["setup wall"].append(synth_wall)
            raw["solve wall"].append(wall)
            scale = REF_SECONDS / ((refs[-2] + refs[-1]) / 2)
            setup.append(synth_wall * scale)
            solve.append(wall * scale)
            rss.append(peak)
            last = time.perf_counter() - round_start
        quality = {"elbo_final": elbo}
        if self.w.scored and solve:
            code, _, _ = self.vblink(eval_args(data, out, Path("score")), "eval")
            if code == 0:
                quality["pairwise_f1"] = self.check_score("score")
        for name, values in (*raw.items(), ("speed ref", refs)):
            print(f"  {name:<14} {fmt(values)} s   median of {len(values)}, unscaled: "
                  + " ".join(f"{t:.3f}" for t in values))
        samples = {"setup_s": (setup, "s"), "solve_s": (solve, "s"),
                   "peak_rss_mb": (rss, "MB")}
        for name, (values, unit) in samples.items():
            print(f"  {name:<14} {fmt(values)} {unit:<3} median of {len(values)}")
        for name, value in quality.items():
            print(f"  {name:<14} {value!r:>12}     from the last solve")
        print(f"  {'error_rate':<14} {self.failed / self.attempted:12.4f}     "
              f"{self.failed} of {self.attempted} commands and checks failed")
        return {name: {"value": statistics.median(values), "unit": unit}
                for name, (values, unit) in samples.items() if values}

    def speed_ref(self):
        """Wall seconds of one run of speed_ref.py; 0 if it failed."""
        code, wall, _ = self.child([sys.executable, str(SPEED_REF)], "speed-ref")
        return wall if code == 0 else 0.0

    def warm_up(self):
        """Compile the package's bytecode, and load the files the speed
        reference reads, before anything is timed."""
        self.child([sys.executable, "-c", "import vblink.cli"], "warm-up")
        self.speed_ref()

    def import_times(self):
        code = ("import time; t = time.perf_counter(); import vblink.cli; "
                "print(repr(time.perf_counter() - t))")
        times = []
        for i in range(IMPORT_REPEATS):
            if self.child([sys.executable, "-c", code], f"import{i}")[0] == 0:
                times.append(float((self.dir / f"import{i}.log").read_text()))
        return times

    def traced(self):
        self.warm_up()
        import_s = statistics.median(self.import_times() or [0.0])
        self.synth(0)
        data, plain = Path("data0"), Path("solve")
        ok, code, solve_s, _ = self.solve(data, plain)
        if ok:
            self.check_solve(plain, code)

        load_package()
        phases = {}

        def traced_main(phase, argv):
            tracer = Tracer()
            for module, attr, span, keep in TRACED:
                tracer.wrap(module, attr, span, keep)
            phases[phase] = tracer
            self.attempted += 1
            with open(self.dir / f"traced-{phase}.log", "w") as log, \
                    contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                cwd = os.getcwd()
                os.chdir(self.dir)
                start = time.perf_counter()
                try:
                    code = importlib.import_module("vblink.cli").main(argv)
                finally:
                    tracer.remove()
                    os.chdir(cwd)
            elapsed = time.perf_counter() - start
            if code not in (self.solve_codes if phase == "solve" else (0,)):
                self.problems.append(f"traced {phase} exited {code}")
            return elapsed, code

        tdata, tsolve, tscore = Path("tdata"), Path("tsolve"), Path("tscore")
        traced_main("synth", synth_args(self.w, self.seed, tdata))
        self.check_same(data, tdata, "traced synth")
        traced_solve_s, code = traced_main("solve", solve_args(self.w, tdata, tsolve))
        sweeps_on_disk, _ = self.check_solve(tsolve, code)
        self.check_same(plain, tsolve, "traced solve")
        f1 = 0.0
        if self.w.scored:
            traced_main("eval", eval_args(tdata, tsolve, tscore))
            f1 = self.check_score(tscore)
        if self.w.workers > 1:
            one = Path("solve_w1")
            if self.solve(data, one, workers=1)[0]:
                self.check(filecmp.cmp(self.dir / plain / "linkage.csv",
                                       self.dir / one / "linkage.csv", shallow=False),
                           "linkage.csv differs between --workers 1 and more")

        metrics, absent = layer_metrics(phases, self.dir / tsolve)
        if sweeps_on_disk is not None and metrics["engine.sweeps"][0]:
            self.check(sweeps_on_disk == metrics["engine.sweeps"][0],
                       "trace.csv rows differ from the fit's sweep count")
        metrics.update({
            "cli.import_s": (import_s, "s"),
            "cli.bytes_written": (dir_bytes(self.dir / tsolve), "bytes"),
            "evaluate.pairwise_f1": (f1, "ratio"),
            "bench.trace_overhead_s": (traced_solve_s - (solve_s - import_s), "s"),
        })
        if absent:
            print(f"  absent, reported as 0: {', '.join(sorted(set(absent)))}")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:<28} {value!r:>24} {unit}")
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}


def layer_metrics(phases, solved):
    """Per-layer metrics from the traced synth, solve and eval phases;
    returns them with the list of traced names the package no longer has."""
    synth, solve = phases["synth"], phases["solve"]
    evaluate = phases.get("eval", Tracer())
    absent = synth.absent + solve.absent
    t = solve.total

    def kept(span):
        args, _, result = solve.kept.get(span, ((), {}, None))
        return args, result

    def value(compute, name):
        try:
            return compute()
        except (AttributeError, TypeError, IndexError, ValueError):
            absent.append(name)
            return 0

    fit_args, fit_result = kept("engine.fit")
    loaded = kept("corpus.load")[1]
    sweeps = value(lambda: fit_result[1].sweeps_run, "FitReport.sweeps_run")
    elbo_final = value(lambda: fit_result[1].elbo_trace[-1], "FitReport.elbo_trace")
    records = value(lambda: loaded.total_records, "Corpus.total_records")
    unique = value(lambda: len({tuple(r) for r in loaded.values.tolist()}), "Corpus.values")
    k = value(lambda: fit_args[1].entity_count, "HyperParams.entity_count")
    block = value(lambda: importlib.import_module("vblink.engine").BLOCK_RECORDS,
                  "vblink.engine.BLOCK_RECORDS")
    oracle_args = kept("oracle.exact_posterior")[0]
    assignments = (oracle_args[1].entity_count ** oracle_args[0].total_records
                   if oracle_args else 0)
    phi, lam, elbo = (t(s, parent="engine.fit") for s in ("engine.phi", "engine.lambda",
                                                        "engine.elbo"))
    exact_s = t("oracle.exact_posterior")
    return {
        "cli.self_s": (solve.self_time("cli.main"), "s"),
        "corpus.load_s": (t("corpus.load"), "s"),
        "corpus.write_s": (synth.total("corpus.write"), "s"),
        "corpus.records": (records, "count"),
        "corpus.dup_share": (1 - unique / records if records else 0, "ratio"),
        "genmodel.sample_s": (synth.total("genmodel.sample"), "s"),
        "genmodel.write_truth_s": (synth.total("genmodel.write_truth"), "s"),
        "engine.init_s": (t("engine.init"), "s"),
        "engine.phi_s": (phi, "s"),
        "engine.lambda_s": (lam, "s"),
        "engine.elbo_s": (elbo, "s"),
        "engine.sweep_s": ((phi + lam + elbo) / sweeps if sweeps else 0, "s"),
        "engine.sweeps": (sweeps, "count"),
        "engine.fit_self_s": (solve.self_time("engine.fit"), "s"),
        "engine.save_state_s": (t("engine.save_state"), "s"),
        "engine.state_bytes": (file_bytes(solved / "state.npz"), "bytes"),
        "engine.blocks": (math.ceil(records / block) if block else 0, "count"),
        "engine.phi_mb": (8 * records * k / 1e6, "MB"),
        "engine.elbo_final": (elbo_final, "nats"),
        "numerics.digamma_s": (t("numerics.digamma"), "s"),
        "numerics.digamma_calls": (solve.calls["numerics.digamma"], "count"),
        "numerics.log_sum_exp_s": (t("numerics.log_sum_exp"), "s"),
        "numerics.log_sum_exp_calls": (solve.calls["numerics.log_sum_exp"], "count"),
        "evaluate.map_linkage_s": (t("evaluate.map_linkage"), "s"),
        "evaluate.write_linkage_s": (t("evaluate.write_linkage"), "s"),
        "evaluate.read_s": (evaluate.total("evaluate.read"), "s"),
        "evaluate.pairwise_metrics_s": (evaluate.total("evaluate.pairwise_metrics"), "s"),
        "oracle.exact_posterior_s": (exact_s, "s"),
        "oracle.assignments": (assignments, "count"),
        "oracle.assignments_per_s": (assignments / exact_s if exact_s else 0, "1/s"),
    }, absent


def load_package():
    """Import vblink from this checkout's src, and no other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("vblink.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"vblink was imported from {cli.__file__}, not from {SRC}")


def read_trace(path):
    with open(path, encoding="utf-8") as fh:
        return [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]


def line_count(path):
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def file_bytes(path):
    return path.stat().st_size if path.exists() else 0


def dir_bytes(path):
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def fmt(values):
    return f"{statistics.median(values):12.4f}" if values else f"{'-':>12}"


def versions():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def describe():
    """The machine, and each workload's reason and exact command lines."""
    data, out, score = Path("<data>"), Path("<out>"), Path("<score>")
    record = {"machine": versions(), "synth_seed": "the benchmark's --seed (default 1)",
              "workloads": {}}
    for w in WORKLOADS.values():
        commands = [synth_args(w, "<seed>", data), solve_args(w, data, out)]
        if w.scored:
            commands.append(eval_args(data, out, score))
        if w.workers > 1:
            commands.append(solve_args(w, data, Path("<out_w1>"), workers=1))
        record["workloads"][w.name] = {
            "why": w.why,
            "commands": [" ".join(["vblink", *map(str, c)]) for c in commands],
        }
    return record


def run_workload(workload, seed, seconds, trace):
    print(f"{workload.name}: seed {seed}, trace {trace}, {versions()}")
    run = Run(workload, seed)
    metrics = {}
    try:
        metrics = run.traced() if trace else run.end_to_end(seconds)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        run.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems:
        print(f"  FAILED {problem}")
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "vblink" / "cli.py").is_file():
        print(f"error: no vblink package under {SRC}", file=sys.stderr)
        return 2
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, found = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: value for key, value in found.items()})
    try:
        WORK.rmdir()
    except OSError:
        pass
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

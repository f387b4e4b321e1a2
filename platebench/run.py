"""Closed-loop benchmark of platelab: one caller, next job when the last returns.

Usage, from the root of a checkout:

    python3 platebench/run.py --workload disk-verify --seed 1 --seconds 12 --trace 0
    python3 platebench/run.py --smoke

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, in which every job runs twice, once traced and once not, so
that ``trace.overhead_frac`` compares the two. ``--smoke`` runs each
workload once at a tiny grid and checks that every metric is emitted
with its unit, that the output checks run and catch bad outputs, and
that the traced run writes its spans.

The package is imported from ``src/`` of the checkout, never from
elsewhere. Run records, golden records and spans go to ``.platebench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".platebench")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREAD_CAP = 1  # <= nproc; one thread keeps repeated runs steady
REFERENCE_REPS = 3  # reference timings at set-up; the last one precedes the first job
# cold set-ups timed per untraced run: this process's own and six in
# fresh interpreters
SETUP_LAUNCHES = 7
# Host-speed reference: seconds the reference kernel takes on a host of
# nominal speed (its median on the 2-core Xeon this was tuned on).
REFERENCE_NOMINAL_S = 0.15
WORKLOADS = ("disk-verify", "square-uncut", "annulus-sweep")


def cap_threads():
    """Cap BLAS/OpenMP pools; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    return {var: THREAD_CAP for var in THREAD_VARS}


def import_program():
    """Import platelab from this checkout's ``src/``, or exit with status 1."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "platelab", "__init__.py")):
        sys.exit("error: no platelab sources under %s" % src)
    sys.path.insert(0, src)
    import platelab

    if not os.path.abspath(platelab.__file__).startswith(src + os.sep):
        sys.exit("error: platelab was imported from %s" % platelab.__file__)


def environment(caps):
    import importlib.util
    import platform

    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_caps": caps,
    }


def code_fingerprint():
    """Hash of the package sources: golden records are compared per code."""
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "platelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


class GoldenStore:
    """Per-job golden records of one code version, kept across runs.

    A record that differs from an earlier one for the same job and code
    (theta to 17 digits, termination, iteration and solve counts) is a
    benchmark fault: the program is not deterministic.
    """

    def __init__(self, path, code):
        self.path = path
        self.code = code
        self.records = {}
        self.new = {}
        if os.path.exists(path):
            with open(path) as fh:
                for line in fh:
                    entry = json.loads(line)
                    if entry["code"] == code:
                        self.records.setdefault(entry["key"], {}).update(entry["record"])

    def compare(self, key, record):
        """Returns the fields that differ from the stored record."""
        known = self.records.setdefault(key, {})
        diff = sorted(k for k in record if k in known and known[k] != record[k])
        added = {k: v for k, v in record.items() if k not in known}
        if added:
            known.update(added)
            self.new.setdefault(key, {}).update(added)
        return diff

    def save(self):
        if not self.new:
            return
        with open(self.path, "a") as fh:
            for key, record in self.new.items():
                fh.write(json.dumps({"code": self.code, "key": key, "record": record}) + "\n")
        self.new = {}


@contextlib.contextmanager
def work_dir():
    """A scratch directory of this process under ``.platebench/``."""
    path = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)


def cold_setup(workload, seed, workdir):
    """The set-up before the first timed job, from a cold start: import of
    platelab (and numpy/scipy with it), input generation and the warm-up
    job. Returns its time, the probe, the input cycles and the warm-up
    outcome."""
    t0 = time.perf_counter()
    import_program()
    import jobs
    import probe as probing

    probe = probing.Probe()
    cycles = jobs.job_cycles(workload, seed)
    first = next(cycles)
    warm = jobs.run_job(jobs.warmup_job(workload), probe, workdir, False)
    return time.perf_counter() - t0, probe, itertools.chain([first], cycles), warm


def fresh_setup(workload, seed):
    """``cold_setup`` in a fresh interpreter; returns its time and warm-up."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cold-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def reference_s():
    """Time a fixed numpy/scipy kernel that uses no platelab code.

    The mix (sparse LU factor and solves, sup-norm scaling, a CSR matvec by
    ``reduceat``, a stable argsort) resembles what the jobs spend time on.
    On a shared host its time follows the host's speed, which drifts by
    up to 40 % over an hour; dividing by it keeps the reported times
    comparable between runs made at different times.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 90
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsr()
    t0 = time.perf_counter()
    lu = spla.splu(a.tocsc())
    x = np.ones(n * n)
    for _ in range(40):
        x = lu.solve(x)
        x /= np.max(np.abs(x))
        np.add.reduceat(a.data * x[a.indices], a.indptr[:-1])
        np.argsort(-x, kind="stable")
    return time.perf_counter() - t0


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Set up, run the closed loop, check outputs; returns the run summary."""
    os.makedirs(OUT, exist_ok=True)
    faults = []
    outcomes = []

    with work_dir() as workdir:
        # set-up: this process's own cold set-up, timed; more samples of it
        # come from fresh interpreters during the closed loop
        setup_s, probe, cycles, warm = cold_setup(workload, seed, workdir)
        import jobs
        import probe as probing

        golden = GoldenStore(os.path.join(OUT, "golden.jsonl"), code_fingerprint())

        def check_golden(key, record, tag):
            diff = golden.compare(key, record)
            if diff:
                faults.append("golden record of %s changed (%s): %s" % (tag, ", ".join(diff), key))

        def record(outcome, tag):
            outcomes.append(outcome)
            check_golden(outcome.job.key, outcome.golden, tag)

        setups = [setup_s]
        launches = 0 if trace else 1 if smoke else SETUP_LAUNCHES - 1
        cycle = 1 if smoke else jobs.CYCLE[workload]

        def fresh_setups(due):
            while len(setups) - 1 < min(due, launches):
                fresh = fresh_setup(workload, seed)
                setups.append(fresh["setup_s"])
                faults.extend("fresh set-up: %s" % f for f in fresh["failures"])
                check_golden(fresh["key"], fresh["golden"], "fresh warm-up")

        try:
            record(warm, "warm-up")
            references = [reference_s() for _ in range(REFERENCE_REPS)]
            if smoke:
                cycles = iter(lambda: [jobs.warmup_job(workload)], None)

            # Closed loop over whole input cycles, until the measured job time
            # (both twins in a traced run) reaches ``seconds``.
            plain, traced = [], []
            busy = 0.0
            k = 0
            done = False
            while not done:
                for job in next(cycles):
                    if trace:
                        order = (False, True) if k % 2 == 0 else (True, False)
                        twins = {}
                        for t in order:
                            twins[t] = jobs.run_job(job, probe, workdir, t)
                            if t:
                                twins[t].golden["solves"] = probe.job_count("poisson.solve_dirichlet")
                            record(twins[t], "traced" if t else "untraced")
                        plain.append(twins[False])
                        traced.append(twins[True])
                        busy += twins[False].elapsed + twins[True].elapsed
                    else:
                        outcome = jobs.run_job(job, probe, workdir, False)
                        record(outcome, "job")
                        plain.append(outcome)
                        busy += outcome.elapsed
                        references.append(reference_s())
                        # set-up samples spread evenly over the first cycle,
                        # so that they see the host's drift within the run
                        fresh_setups((k + 1) * launches // cycle)
                    k += 1
                done = busy >= seconds
            fresh_setups(launches)
        finally:
            golden.save()

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.verdict.failures)
    times = [o.elapsed for o in plain]
    summary = {
        "outcomes": outcomes,
        "faults": faults,
        "attempted": attempted,
        "failed": failed,
        "jobs": len(traced if trace else plain),
        "spans": probe.spans,
        "setups": setups,
    }
    # over the measured jobs; the warm-up job's coarse grid would dominate
    residuals = [o.residual for o in plain + traced if o.residual == o.residual]
    residual_max = ("1", max(residuals) if residuals else float("nan"))
    if trace:
        overhead = statistics.median(o.elapsed for o in traced) / statistics.median(times) - 1.0
        summary["metrics"] = probing.layer_metrics(probe.spans, len(traced), overhead)
        summary["metrics"]["eig_residual.max"] = residual_max
        return summary
    import numpy as np

    # Job times are in seconds of a nominal-speed host: each job is scaled
    # by the reference times taken just before and just after it, as the
    # host's speed drifts within a run too. setup_s, mostly import and
    # file time, which the reference kernel does not follow, is wall-clock.
    refs = references[REFERENCE_REPS - 1:]
    scaled = [2.0 * REFERENCE_NOMINAL_S * t / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
    speed = REFERENCE_NOMINAL_S / statistics.median(references)
    p90 = float(np.quantile(scaled, 0.9))
    summary["p90_jobs_above"] = sum(1 for t in scaled if t > p90)
    summary["metrics"] = {
        "job_s.p50": ("s", statistics.median(scaled)),
        "jobs_per_s": ("1/s", len(scaled) / sum(scaled)),
        "setup_s": ("s", statistics.median(setups)),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "ok_frac": ("1", (attempted - failed) / attempted),
    }
    # printed and recorded, not bounded: a run of 8-16 jobs leaves one or
    # two above its p90, and the residual swings 20-fold with the mass
    summary["references"] = references
    summary["unbounded"] = {
        "failed_frac": ("1", failed / attempted),
        "job_s.p90": ("s", p90),
        "eig_residual.max": residual_max,
        "host_speed": ("1", speed),
        "wall.job_s.p50": ("s", statistics.median(times)),
        "wall.jobs_per_s": ("1/s", len(times) / sum(times)),
    }
    return summary


def write_spans(path, spans):
    with open(path, "w") as fh:
        for sid, (name, t0, t1, parent, job, attrs) in enumerate(spans):
            entry = {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "job": job}
            if attrs:
                entry["attrs"] = attrs
            fh.write(json.dumps(entry) + "\n")


def result_line(summary):
    correct = not summary["faults"] and summary["failed"] == 0
    return {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in summary["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of the benchmark")
    parser.add_argument("--cold-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    caps = cap_threads()
    if args.smoke:
        return smoke(caps)
    if args.workload is None:
        parser.error("--workload is required")
    if args.cold_setup:
        # one set-up sample for a run's setup_s, in this fresh interpreter
        with work_dir() as workdir:
            setup_s, _, _, warm = cold_setup(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": setup_s, "failures": warm.verdict.failures,
                          "key": warm.job.key, "golden": warm.golden}))
        return 0

    summary = run_workload(args.workload, args.seed, max(args.seconds, 0.0), bool(args.trace))
    env = environment(caps)
    result = result_line(summary)
    if args.trace:
        write_spans(os.path.join(OUT, "spans-%s.jsonl" % args.workload), summary["spans"])
    for o in summary["outcomes"]:
        for failure in o.verdict.failures:
            print("FAILED %s: %s" % (o.job.key, failure), file=sys.stderr)
    for fault in summary["faults"]:
        print("BENCHMARK FAULT: %s" % fault, file=sys.stderr)
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "code": code_fingerprint(), "env": env,
            "jobs": summary["jobs"], "p90_jobs_above": summary.get("p90_jobs_above"),
            "reference_s": summary.get("references"), "setup_s": summary["setups"],
            "result": result,
            "per_job": [{"key": o.job.key, "elapsed": o.elapsed, "residual": o.residual,
                         "failures": o.verdict.failures} for o in summary["outcomes"]],
        }) + "\n")

    print(json.dumps({"env": env}))
    print("%s: %d jobs measured, %d attempted, %d failed" % (
        args.workload, summary["jobs"], summary["attempted"], summary["failed"]))
    if "p90_jobs_above" in summary:
        print("job_s.p90 leaves %d jobs above it" % summary["p90_jobs_above"])
    for name, (unit, value) in {**summary["metrics"], **summary.get("unbounded", {})}.items():
        print("%-36s %.6g %s" % (name, value, unit))
    print(json.dumps(result))
    return 0


def smoke(caps):
    """Run each workload once, small, untraced and traced; check the metric
    names, the output checks and the span file. Exit 1 on any problem."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (False, True):
            summary = run_workload(w["name"], 0, 0.0, trace, smoke=True)
            got = {k: u for k, (u, _) in summary["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s trace=%d metrics %s, expected %s" % (
                    w["name"], trace, sorted(got.items()), sorted(wanted[trace].items())))
            for o in summary["outcomes"]:
                problems += ["%s: %s" % (w["name"], f) for f in o.verdict.failures]
            problems += summary["faults"]
            ran = set().union(*(o.verdict.ran for o in summary["outcomes"]))
            need = {"exit", "termination", "mass", "positivity"}
            if w["name"] != "square-uncut":
                need.add("radial-theta")
            if w["name"] == "disk-verify":
                need |= {"verify-complete", "verify-product", "verify-structure"}
            if not need <= ran:
                problems.append("%s: checks %s did not run" % (w["name"], sorted(need - ran)))
            if trace:
                path = os.path.join(OUT, "spans-smoke-%s.jsonl" % w["name"])
                write_spans(path, summary["spans"])
                with open(path) as fh:
                    names = {json.loads(line)["name"] for line in fh}
                if "poisson.solve_dirichlet" not in names:
                    problems.append("%s: traced run wrote spans %s" % (w["name"], sorted(names)))
    problems += negative_checks()
    print(json.dumps({"env": environment(caps)}))
    for p in problems:
        print("SMOKE PROBLEM: %s" % p)
    print("smoke %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


def negative_checks():
    """The output checks must flag bad outputs, and only those."""
    import dataclasses

    import numpy as np

    import jobs
    import platelab

    problems = []
    spec = platelab.unit_square()
    pair, rep = platelab.optimize(spec, 17, 1.0, 2.0, 1.5)
    op = platelab.assemble_laplacian(pair.grid)
    good = jobs.Verdict()
    jobs.check_pair(good, pair, rep, op, 1.5)
    if good.failures:
        problems.append("good pair flagged: %s" % good.failures)
    u = pair.u.values.copy()
    u[0] = -u[0]
    bad_pair = dataclasses.replace(pair, u=platelab.ScalarField(pair.grid, u))
    bad = jobs.Verdict()
    jobs.check_pair(bad, bad_pair, dataclasses.replace(rep, termination="max-outer"), op, 1.5 + 1e-9)
    if sorted(f.split(":")[0] for f in bad.failures) != ["mass", "positivity", "termination"]:
        problems.append("bad pair not flagged: %s" % bad.failures)
    text = "PASS symmetry: x\nFAIL product: x\n" + "".join(
        "PASS %s: x\n" % c for c in ("monotonicity", "moving-plane", "rigidity", "structure"))
    v = jobs.Verdict()
    jobs.check_verify_output(v, 2, text)
    if [f.split(":")[0] for f in v.failures] != ["verify-product"]:
        problems.append("verify output not flagged: %s" % v.failures)
    v = jobs.Verdict()
    jobs.check_verify_output(v, 2, text.replace("PASS symmetry", "FAIL symmetry").replace(
        "FAIL product", "PASS product"))
    if v.failures:
        problems.append("symmetry failure gated: %s" % v.failures)
    v = jobs.Verdict()
    jobs.check_radial(v, 1.02 * 50.0, 50.0)
    if not v.failures or not np.isfinite(jobs.eig_residual(pair, op)):
        problems.append("radial gate or residual not working")
    return problems


if __name__ == "__main__":
    sys.exit(main())

"""Workload inputs, the timed job of each workload, and its output checks.

Inputs come only from the run's seed, in shuffled cycles of ``CYCLE``
jobs. The disk workload stratifies the mass fraction over [0.2, 0.8],
one uniform draw per stratum; the square and annulus workloads run fixed
job sets in a seeded order (see ``SQUARE_MASS_FRACTIONS``). An untraced
run measures whole cycles, so every run holds the same mix of cheap and
costly jobs, which keeps the per-run figures close from seed to seed.

A job counts as failed when it raises, ends other than ``rho-fixed`` or
``theta-converged``, misses the mass by more than 1e-12 M, returns u <= 0
anywhere, differs from the radial solver's theta by more than 1 % on the
disk or on an annulus with inner radius <= 0.2, or fails a ``verify``
check other than ``symmetry`` (an arbitrary mass leaves a ~1e-5
mass-quantization asymmetry, so that gate is a shape test, not a health
test).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import platelab
from platelab import cli

H_LOW, H_HIGH = 1.0, 2.0
GOOD_TERMINATIONS = ("rho-fixed", "theta-converged")
MASS_REL_TOL = 1e-12
RADIAL_REL_TOL = 0.01  # criterion 11's gate on 2-D against radial theta
RADIAL_GATE_INNER = 0.2  # annuli up to this inner radius must match the radial theta
RADIAL_NR = 1024
UNGATED_VERIFY = ("symmetry",)
SWEEP_MASS_FRACTION = 0.5  # the CLI default of sweep-annulus
CYCLE = {"disk-verify": 8, "square-uncut": 9, "annulus-sweep": 16}
# Job cost on the square and the annulus is erratic in the drawn
# parameter (iteration counts jump between neighbouring masses, radii and
# restart seeds), so seeded draws moved the per-run median by 16-35 %
# between seeds. These two workloads run fixed job sets in a seeded
# order instead: the sixteen rows of the acceptance sweep, and two
# squares to each rectangle. A square job takes two or three outer
# steps (about 2.8 s or 4 s); the rectangles and one two-step square sit
# below five three-step squares, so the median job is the fastest of
# those five and not a job at the edge between the two modes.
SQUARE_MASS_FRACTIONS = (
    ("square", 1.0, (0.25, 0.35, 0.4, 0.45, 0.55, 0.65)),
    ("rectangle", 0.5, (0.3, 0.5, 0.7)),
)
SWEEP_RADII = tuple(float(a) for a in np.linspace(0.05, 0.85, 16))

# Problem sizes of the measured jobs (the ones the workloads are defined
# at) and of the fixed warm-up / smoke job.
FULL = {
    "disk-verify": {"grid": 257},
    "square-uncut": {"grid": 129},
    "annulus-sweep": {"grid": 97, "nr": 1024, "restarts": 2},
}
SMALL = {
    "disk-verify": {"grid": 33, "mass": math.pi * 1.5},
    "square-uncut": {"grid": 33, "shape": "square", "mass": 1.5},
    "annulus-sweep": {"grid": 41, "nr": 128, "restarts": 2, "inner": 0.12},
}


@dataclass(frozen=True)
class Job:
    workload: str
    params: dict

    @property
    def key(self):
        return self.workload + " " + json.dumps(self.params, sort_keys=True)


@dataclass
class Verdict:
    """Names of the checks that ran and the failures they found."""

    ran: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def check(self, name, ok, detail=""):
        self.ran.append(name)
        if not ok:
            self.failures.append("%s: %s" % (name, detail))
        return ok


@dataclass
class Outcome:
    job: Job
    elapsed: float
    verdict: Verdict
    residual: float
    golden: dict


def job_cycles(workload, seed):
    """Endless seeded stream of input cycles (lists of measured jobs)."""
    rng = np.random.default_rng(seed)
    size = FULL[workload]
    k = CYCLE[workload]
    while True:
        if workload == "disk-verify":
            params = [dict(size, mass=float(math.pi * _density(f)))
                      for f in _strata(rng, 0.2, 0.8, k)]
        elif workload == "square-uncut":
            params = [dict(size, shape=shape, mass=float(area * _density(f)))
                      for shape, area, fracs in SQUARE_MASS_FRACTIONS for f in fracs]
        else:
            params = [dict(size, inner=a) for a in SWEEP_RADII]
        yield [Job(workload, params[i]) for i in rng.permutation(k)]


def warmup_job(workload):
    """The fixed small job run during set-up and by the smoke mode."""
    return Job(workload, dict(SMALL[workload]))


def _strata(rng, lo, hi, k):
    return lo + (hi - lo) * (np.arange(k) + rng.uniform(size=k)) / k


def _density(fraction):
    return H_LOW + fraction * (H_HIGH - H_LOW)


def run_job(job, probe, workdir, trace):
    """Run one job under ``probe``; time only the program's calls."""
    runner = {
        "disk-verify": _disk_verify,
        "square-uncut": _square_uncut,
        "annulus-sweep": _annulus_sweep,
    }[job.workload]
    return runner(job, probe, workdir, trace)


@contextlib.contextmanager
def _quiet():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


def _cli(probe, argv):
    return probe.call("cli.main", cli.main, argv)


def _disk_verify(job, probe, workdir, trace):
    p = job.params
    report = os.path.join(workdir, "report.json")
    fields = os.path.join(workdir, "fields.csv")
    solve = ["solve", "--domain", "disk", "--h", repr(H_LOW), "--H", repr(H_HIGH),
             "--mass", repr(p["mass"]), "--grid", str(p["grid"]),
             "--out", report, "--fields", fields]
    verify = ["verify", "--report", report, "--fields", fields]
    with probe.job(trace) as cap, _quiet() as (out, err):
        t0 = time.perf_counter()
        rc_solve = _cli(probe, solve)
        rc_verify = _cli(probe, verify)
        elapsed = time.perf_counter() - t0

    v = Verdict()
    v.check("exit", rc_solve == 0, "solve exit %d: %s" % (rc_solve, err.getvalue().strip()))
    if "optimize" not in cap:
        return Outcome(job, elapsed, v, math.nan, {})
    pair, rep = cap["optimize"]
    residual = check_pair(v, pair, rep, cap["op"], p["mass"])
    with open(report) as fh:
        written = json.load(fh)
    v.check("report", written["theta"] == pair.theta
            and written["termination"] == rep.termination, "report disagrees with the solve")
    verdicts = check_verify_output(v, rc_verify, out.getvalue())
    radial = platelab.radial_optimize("disk", (1.0,), H_LOW, H_HIGH, p["mass"], n_r=RADIAL_NR)
    check_radial(v, pair.theta, radial.theta)
    golden = _golden(pair, rep, verify=verdicts)
    return Outcome(job, elapsed, v, residual, golden)


def _square_uncut(job, probe, workdir, trace):
    p = job.params
    spec = platelab.unit_square() if p["shape"] == "square" else platelab.rectangle(1.0, 0.5)
    v = Verdict()
    with probe.job(trace) as cap:
        t0 = time.perf_counter()
        try:
            pair, rep = probe.call(
                "optimizer.optimize", platelab.optimize, spec, p["grid"], H_LOW, H_HIGH, p["mass"]
            )
        except Exception as exc:  # a failed job is counted, not fatal
            pair = None
            v.check("exit", False, "%s: %s" % (type(exc).__name__, exc))
        elapsed = time.perf_counter() - t0
    if pair is None:
        return Outcome(job, elapsed, v, math.nan, {})
    v.check("exit", True)
    residual = check_pair(v, pair, rep, cap["op"], p["mass"])
    return Outcome(job, elapsed, v, residual, _golden(pair, rep))


def _annulus_sweep(job, probe, workdir, trace):
    p = job.params
    a = p["inner"]
    out_csv = os.path.join(workdir, "sweep.csv")
    argv = ["sweep-annulus", "--inner-from", repr(a), "--inner-to", repr(a), "--steps", "1",
            "--grid", str(p["grid"]), "--nr", str(p["nr"]), "--restarts", str(p["restarts"]),
            "--out", out_csv]
    with probe.job(trace) as cap, _quiet() as (_, err):
        t0 = time.perf_counter()
        rc = _cli(probe, argv)
        elapsed = time.perf_counter() - t0

    v = Verdict()
    v.check("exit", rc == 0, "sweep exit %d: %s" % (rc, err.getvalue().strip()))
    if rc != 0 or "optimize" not in cap:
        return Outcome(job, elapsed, v, math.nan, {})
    pair, rep = cap["optimize"]
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = rows[0]
    v.check("csv", len(rows) == 1 and float(row["theta_2d"]) == pair.theta
            and float(row["theta_radial"]) == cap["radial"].theta
            and row["termination"] == rep.termination, "CSV row disagrees with the solve")
    area = math.pi * (1.0 - a * a)
    mass = H_LOW * area + SWEEP_MASS_FRACTION * (H_HIGH - H_LOW) * area
    residual = check_pair(v, pair, rep, cap["op"], mass)
    if a <= RADIAL_GATE_INNER:
        check_radial(v, pair.theta, cap["radial"].theta)
    golden = _golden(pair, rep, theta_radial="%.17g" % cap["radial"].theta,
                     rotation_asymmetry=row["rotation_asymmetry"])
    return Outcome(job, elapsed, v, residual, golden)


def check_pair(v, pair, report, op, mass):
    """Termination, mass and positivity checks; returns the eigen-residual."""
    v.check("termination", report.termination in GOOD_TERMINATIONS, report.termination)
    err = abs(float(np.sum(pair.rho.values)) * pair.grid.cell_area - mass)
    v.check("mass", err <= MASS_REL_TOL * mass, "mass error %.3e of %.17g" % (err, mass))
    bad = int(np.count_nonzero(pair.u.values <= 0.0))
    v.check("positivity", bad == 0, "u <= 0 at %d nodes" % bad)
    return eig_residual(pair, op)


def eig_residual(pair, op):
    """``||theta A^-2 (rho u) - u|| / ||u||`` of a returned 2-D pair."""
    f = platelab.ScalarField(pair.grid, pair.rho.values * pair.u.values)
    w, _ = platelab.solve_navier(op, f)
    u = pair.u.values
    return float(np.linalg.norm(pair.theta * w.values - u) / np.linalg.norm(u))


def check_radial(v, theta_2d, theta_radial):
    rel = abs(theta_2d - theta_radial) / theta_radial
    v.check("radial-theta", rel <= RADIAL_REL_TOL, "2-D theta %.3e from radial" % rel)


_VERIFY_LINE = re.compile(r"^(PASS|FAIL) ([a-z-]+): ")


def check_verify_output(v, rc, text):
    """Every ``verify`` check reported, all but the ungated ones passing."""
    verdicts = {}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            verdicts[m.group(2)] = m.group(1)
    v.check("verify-complete", sorted(verdicts) == sorted(cli.VALID_CHECKS),
            "reported %s" % sorted(verdicts))
    for name in cli.VALID_CHECKS:
        if name not in UNGATED_VERIFY:
            v.check("verify-" + name, verdicts.get(name) == "PASS", verdicts.get(name, "missing"))
    all_pass = all(x == "PASS" for x in verdicts.values())
    v.check("verify-exit", rc == (0 if all_pass else 2), "exit %d" % rc)
    return verdicts


def _golden(pair, report, **extra):
    """Deterministic per-job record: any change between runs of one code is a fault."""
    record = {
        "theta": "%.17g" % pair.theta,
        "termination": report.termination,
        "outer_iterations": report.outer_iterations,
        "eigen_iterations": int(sum(report.inner_iterations)),
    }
    record.update(extra)
    return record

"""suite-all: `srgft check --suite all --seed S` through `srgft.cli.main`.

Default grid, degree 48, one job: the headline time to a verdict.  About
90% of it is exact quotient evaluation; building the close-to-convex and
subordination members is its set-up.  An operation is one check task.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

from common import PassResult

NAME = "suite-all"


class SuiteAll:
    def __init__(self, seed: int, out_dir, mods):
        self.seed = seed
        self.report_path = out_dir / "report.json"
        self.first_report: bytes | None = None

    def run_pass(self, mods, spans, clock):
        since = len(spans.records)
        suites = mods.checks.SUITES
        for name, build in list(suites.items()):
            suites[name] = _timed_build(spans, clock, name, build)
        argv = ["check", "--suite", "all", "--seed", str(self.seed),
                "--out", str(self.report_path)]
        code = mods.cli.main(argv)
        end = perf_counter()
        clock.tick()
        wall = clock.seconds(mods.import_start, end)
        tasks = [clock.seconds(a, b) for a, b in spans.intervals("checks.task", since)]
        setup = clock.seconds(mods.import_start, mods.import_end) + \
            sum(clock.seconds(a, b) for a, b in spans.intervals("checks.build", since))
        return PassResult(setup, wall, tasks), lambda: self._verify(code, len(tasks))

    def _verify(self, code, tasks):
        errors: list[str] = []
        if code != 0:
            errors.append(f"srgft check exited {code}")
        data = self.report_path.read_bytes()
        if self.first_report is None:
            self.first_report = data
        elif data != self.first_report:
            errors.append("report bytes differ between passes of one run")
        reports = json.loads(data)
        if len(reports) != tasks:
            errors.append(f"{len(reports)} reports for {tasks} tasks")
        failed = [r for r in reports if not r["passed"]]
        errors += [f"report failed: {r['check']} on {r['function']}" for r in failed]
        errors += _oracle_errors(reports)
        return sum(r["samples"] for r in reports), len(failed), errors


def _timed_build(spans, clock, name, build):
    """Time a suite's task building and each of its tasks, probing the
    host clock before each."""
    def timed(cfg):
        clock.tick()
        return [_timed_task(spans, clock, name, task)
                for task in spans.run("checks.build", name, build, cfg)]
    return timed


def _timed_task(spans, clock, name, task):
    def timed():
        clock.tick()
        return spans.run("checks.task", name, task)
    return timed


def _find(reports, check, function):
    for r in reports:
        if r["check"] == check and r["function"] == function:
            return r
    return None


def _oracle_errors(reports) -> list[str]:
    """Closed-form values the reports must carry, whatever the seed."""
    errors = []

    cex = _find(reports, "schwarz-pick-counterexample", "mobius(1/2i)")
    if cex is None:
        errors.append("schwarz-pick-counterexample report missing")
    else:
        p = cex["params"]
        d = [Fraction(c) for c in p["derivative"]]
        d_sq = sum(c * c for c in d)
        bound = Fraction(p["classical_bound"])
        if not (Fraction(p["derivative_modulus_sq"]) == d_sq == Fraction(50832, 50625)
                and bound == Fraction(68, 75) and d_sq > bound * bound):
            errors.append("schwarz-pick counterexample values changed")

    # p(q) = (1 + q i)(1 - q i)^(-*) peaks at q = -r i with (1 + r) / (1 - r)
    ext = _find(reports, "caratheodory-bounds", "caratheodory-extremal(i)")
    if ext is None:
        errors.append("caratheodory extremal report missing")
    else:
        for r, m in ext["params"]["max_abs_by_radius"]:
            exact = (1 + r) / (1 - r)
            if abs(m - exact) > 1e-9 * exact:
                errors.append(f"caratheodory extremal max |p| at r={r}: {m} != {exact}")

    # q (1 - q)^(-*) at q = -r: Re f + 1/2 = (1 - r) / (2 (1 + r))
    cov = _find(reports, "convex-covering", "convex-reference+strip-reference")
    if cov is None:
        errors.append("convex-covering report missing")
    else:
        for r, margin in cov["params"]["half_plane_margins"]:
            exact = (1 - r) / (2 * (1 + r))
            if abs(margin - exact) > 1e-12:
                errors.append(f"half-plane margin at r={r}: {margin} != {exact}")

    hay = _find(reports, "hayman", "koebe(1)")
    if hay is None:
        errors.append("hayman report for koebe(1) missing")
    elif any(abs(phi - 1.0) > 1e-9 for phi in hay["params"]["phi"]):
        errors.append(f"koebe hayman phi drifts from 1: {hay['params']['phi']}")
    return errors

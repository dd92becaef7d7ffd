"""Command-line front end.

Subcommands:

* ``check``       run theorem-check suites, write a JSON report array,
                  exit 0 only if every check passed
* ``gen``         generate a certified class member and write it as JSON
                  (series + verdict, plus an exact quotient form when one
                  exists)
* ``eval``        evaluate a series file at a quaternion literal; prints
                  the value and the slice derivative, one literal per line
* ``slice-image`` sample a series on one complex slice and write an
                  (input, output) point cloud as CSV

Exit codes: 0 success, 1 check failure or domain error, 2 usage error.
All randomness flows from ``--seed`` (fallback: the SRGFT_SEED
environment variable), so identical flags give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

from .classes import (DEFAULT_GRID, FunctionUnderTest, SamplingGrid,
                      caratheodory_mixture_form, certify_small_coeff,
                      generate_caratheodory, generate_starlike_small_coeff,
                      is_caratheodory, is_close_to_convex, is_starlike, koebe,
                      koebe_quotient, rogosinski_extremal,
                      rogosinski_extremal_form)
from .checks import SUITES, SuiteConfig, close_to_convex_member, run_suites
from .errors import DomainError, PreconditionError, QuaternionParseError
from .quat import ImaginaryUnit, format_quaternion, parse_quaternion
from .series import (DEFAULT_DEGREE, ExactForm, SliceSeries, StarQuotient,
                     slice_derivative)

SEED_ENV = "SRGFT_SEED"
USAGE_EXIT = 2
FAILURE_EXIT = 1


@dataclass
class RunConfig:
    degree: int = DEFAULT_DEGREE
    tolerance: float = 1e-9
    seed: int = 7
    mode: str = "exact"
    grid: SamplingGrid = DEFAULT_GRID
    random_count: int = 5
    out: str | None = None

    def validate(self) -> None:
        if self.degree < 8:
            raise DomainError("degree must be at least 8")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be positive")
        if self.mode not in ("exact", "float"):
            raise DomainError("mode must be exact or float")
        if self.random_count < 0:
            raise DomainError("random count must not be negative")


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    return 7


def _build_grid(args) -> SamplingGrid:
    radii = None
    if args.grid_radii:
        radii = tuple(float(tok) for tok in args.grid_radii.split(","))
    kwargs = {}
    if radii:
        kwargs["radii"] = radii
    if args.grid_units:
        kwargs["unit_count"] = int(args.grid_units)
    if args.grid_angles:
        kwargs["angle_count"] = int(args.grid_angles)
    return SamplingGrid.default(**kwargs)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        degree=args.degree,
        tolerance=args.tol,
        seed=_resolve_seed(args.seed),
        mode=args.mode,
        grid=_build_grid(args),
        random_count=getattr(args, "random", 5),
        out=args.out,
    )
    cfg.validate()
    return cfg


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    try:
        cfg = _config_from_args(args)
    except (DomainError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        sys.stderr.write(f"unknown suite {args.suite!r}; known: "
                         f"{', '.join(['all'] + list(SUITES))}\n")
        return USAGE_EXIT
    suite_cfg = SuiteConfig(degree=cfg.degree, tol=cfg.tolerance, seed=cfg.seed,
                            random_count=cfg.random_count, grid=cfg.grid)
    reports = run_suites(names, suite_cfg)
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2)
    _emit(payload + "\n", cfg.out)
    failed = [r for r in reports if not r.passed]
    if failed:
        for r in failed:
            sys.stderr.write(f"FAIL {r.check_id} on {r.function_id} "
                             f"(worst margin {r.worst_margin:.3e})\n")
        return FAILURE_EXIT
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _quotient_block(form: ExactForm) -> dict:
    (quot,) = form.terms
    return {
        "num": quot.num.to_json_dict(),
        "den": quot.den.to_json_dict(),
        "shift": form.shift,
    }


def _gen_payload(args, cfg: RunConfig) -> dict:
    exact = cfg.mode == "exact"
    if args.family == "sstar":
        series = generate_starlike_small_coeff(cfg.seed, cfg.degree, exact=True)
        verdict = certify_small_coeff(series)
        if not exact:
            series = series.to_float()
        return {"series": series.to_json_dict(), "quotient": None,
                "verdict": verdict.to_json_dict()}
    if args.family == "caratheodory":
        k = args.k or 3
        series = generate_caratheodory(cfg.seed, cfg.degree, k, exact=exact)
        fut = FunctionUnderTest("caratheodory", series,
                                caratheodory_mixture_form(cfg.seed, k))
        verdict = is_caratheodory(fut, cfg.grid)
        return {"series": series.to_json_dict(), "quotient": None,
                "verdict": verdict.to_json_dict()}
    if args.family == "koebe":
        u = parse_quaternion(args.u or "1")
        if cfg.mode == "float":
            u = u.to_float()
        series = koebe(u, cfg.degree)
        form = ExactForm((koebe_quotient(u),))
        verdict = is_starlike(FunctionUnderTest("koebe", series, form), cfg.grid)
        return {"series": series.to_json_dict(),
                "quotient": _quotient_block(form),
                "verdict": verdict.to_json_dict()}
    if args.family == "rogosinski":
        b = parse_quaternion(args.b or "1/2i")
        p = parse_quaternion(args.p or "1")
        if cfg.mode == "float":
            b, p = b.to_float(), p.to_float()
        series = rogosinski_extremal(b, p, cfg.degree)
        form = rogosinski_extremal_form(b, p)
        worst = max(abs(form.value(q)) for q in cfg.grid.points)
        verdict = {
            "class": "ball-self-map", "member": worst < 1.0,
            "certificate": "sampled", "margin": 1.0 - worst, "witness": None,
        }
        return {"series": series.to_json_dict(),
                "quotient": _quotient_block(form),
                "verdict": verdict}
    if args.family == "class-c":
        fut = close_to_convex_member(cfg.seed, cfg.degree)
        h = generate_starlike_small_coeff(1000003 * cfg.seed + 1, cfg.degree)
        verdict = is_close_to_convex(fut, h, cfg.grid)
        series = fut.series if exact else fut.series.to_float()
        return {"series": series.to_json_dict(), "quotient": None,
                "verdict": verdict.to_json_dict()}
    raise DomainError(f"unknown family {args.family!r}")


def cmd_gen(args) -> int:
    try:
        cfg = _config_from_args(args)
        payload = _gen_payload(args, cfg)
    except (QuaternionParseError, DomainError, PreconditionError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _load_series_file(path: str) -> tuple[SliceSeries, ExactForm | None]:
    with open(path) as handle:
        data = json.load(handle)
    if "series" not in data:
        return SliceSeries.from_json_dict(data), None
    block = data.get("quotient")
    form = None
    if block:
        quot = StarQuotient(SliceSeries.from_json_dict(block["num"]),
                            SliceSeries.from_json_dict(block["den"]))
        form = ExactForm((quot,), shift=int(block.get("shift", 0)))
    return SliceSeries.from_json_dict(data["series"]), form


def cmd_eval(args) -> int:
    try:
        series, form = _load_series_file(args.series_file)
        q = parse_quaternion(args.at)
        value = series.eval(q)  # also validates that q is inside the ball
        if form is None:
            derivative = slice_derivative(series).eval(q)
        else:
            value, derivative = form.value_and_derivative(q)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAILURE_EXIT
    sys.stdout.write(format_quaternion(value) + "\n")
    sys.stdout.write(format_quaternion(derivative) + "\n")
    return 0


# ---------------------------------------------------------------------------
# slice-image
# ---------------------------------------------------------------------------


_NAMED_UNITS = {
    "i": ImaginaryUnit(1, 0, 0),
    "j": ImaginaryUnit(0, 1, 0),
    "k": ImaginaryUnit(0, 0, 1),
}


def _parse_unit(token: str) -> ImaginaryUnit:
    if token in _NAMED_UNITS:
        return _NAMED_UNITS[token]
    q = parse_quaternion(token).to_float()
    if abs(float(q.w)) > 1e-12:
        raise DomainError("slice axis must be purely imaginary")
    return ImaginaryUnit.from_vector(q.x, q.y, q.z)


def cmd_slice_image(args) -> int:
    try:
        series, form = _load_series_file(args.series_file)
        unit = _parse_unit(args.unit)
    except (OSError, ValueError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAILURE_EXIT
    radii = [0.98 * (i + 1) / 24 for i in range(24)]
    angles = [2.0 * math.pi * j / 48 for j in range(48)]
    evaluate = series.to_float().eval if form is None else form.value
    rows = []
    for r in radii:
        for theta in angles:
            q = unit.circle_point(theta, r)
            value = evaluate(q)
            re_in = r * math.cos(theta)
            im_in = r * math.sin(theta)
            im_out = (float(value.x) * float(unit.x) + float(value.y) * float(unit.y)
                      + float(value.z) * float(unit.z))
            rows.append((re_in, im_in, float(value.w), im_out))
    out = args.out or "slice_image.csv"
    with open(out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["re_in", "i_in", "re_out", "i_out"])
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                        help="series truncation degree (default 48, minimum 8)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="pointwise tolerance (default 1e-9)")
    parser.add_argument("--mode", choices=("exact", "float"), default="exact",
                        help="scalar mode for generated material")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (fallback: ${SEED_ENV}, then 7)")
    parser.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--grid-radii", type=str, default=None,
                        help="comma-separated grid radii in (0,1)")
    parser.add_argument("--grid-units", type=int, default=None,
                        help="number of slice axes (default 3: i, j, k)")
    parser.add_argument("--grid-angles", type=int, default=None,
                        help="angles per circle (default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgft",
        description="Slice regular function calculus and theorem-check harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run theorem-check suites")
    p_check.add_argument("--suite", type=str, default="all",
                         help=f"suite name or 'all'; known: {', '.join(SUITES)}")
    p_check.add_argument("--random", type=int, default=5,
                         help="number of generated members per suite (default 5)")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a certified class member")
    p_gen.add_argument("family",
                       choices=("sstar", "caratheodory", "koebe", "rogosinski", "class-c"))
    p_gen.add_argument("--u", type=str, default=None, help="unit direction literal")
    p_gen.add_argument("--b", type=str, default=None, help="derivative-at-0 literal")
    p_gen.add_argument("--p", type=str, default=None, help="free parameter literal")
    p_gen.add_argument("--k", type=int, default=None, help="mixture size")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_eval = sub.add_parser("eval", help="evaluate a series file at a point")
    p_eval.add_argument("series_file", type=str)
    p_eval.add_argument("--at", type=str, required=True,
                        help="quaternion literal inside the unit ball")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_img = sub.add_parser("slice-image", help="sample one slice into a CSV cloud")
    p_img.add_argument("series_file", type=str)
    p_img.add_argument("--unit", type=str, default="i",
                       help="slice axis: i, j, k or a purely imaginary literal")
    _add_common(p_img)
    p_img.set_defaults(func=cmd_slice_image)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())

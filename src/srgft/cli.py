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
import json
import math
import os
import sys

from .checks import (POINT_TOL, SUITES, SuiteConfig, caratheodory_member,
                     close_to_convex_member, close_to_convex_reference,
                     koebe_function, rogosinski_function, run_suites,
                     starlike_member)
from .classes import (DEFAULT_ANGLE_COUNT, DEFAULT_RADII, ClassVerdict,
                      FunctionUnderTest, SamplingGrid, certify_small_coeff,
                      is_caratheodory, is_close_to_convex, is_self_map, is_starlike)
from .errors import DomainError, PreconditionError, QuaternionParseError
from .quat import ImaginaryUnit, Quaternion, format_quaternion, parse_quaternion
from .series import DEFAULT_DEGREE, SliceSeries, StarQuotient, slice_derivative

SEED_ENV = "SRGFT_SEED"
USAGE_EXIT = 2
FAILURE_EXIT = 1


def radii(text: str) -> tuple[float, ...]:
    """argparse type of ``--grid-radii``: comma-separated floats."""
    return tuple(float(tok) for tok in text.split(","))


def _config_from_args(args, **settings) -> SuiteConfig:
    grid = SamplingGrid.default(args.grid_radii, args.grid_units, args.grid_angles)
    return SuiteConfig(degree=args.degree, seed=args.seed, grid=grid, **settings)


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
        cfg = _config_from_args(args, tol=args.tol, random_count=args.random)
    except DomainError as exc:
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
    reports = run_suites(names, cfg)
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2)
    _emit(payload + "\n", args.out)
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


def _gen_member(args, cfg: SuiteConfig) -> tuple[FunctionUnderTest, ClassVerdict]:
    """The requested family member and its class verdict."""
    if args.family == "sstar":
        fut = starlike_member(cfg.seed, cfg.degree)
        return fut, certify_small_coeff(fut.series)
    if args.family == "caratheodory":
        fut = caratheodory_member(cfg.seed, cfg.degree, args.k)
        return fut, is_caratheodory(fut, cfg.grid)
    if args.family == "koebe":
        u = parse_quaternion(args.u)
        fut = koebe_function(u if args.mode == "exact" else u.to_float(), cfg.degree)
        return fut, is_starlike(fut, cfg.grid)
    if args.family == "rogosinski":
        b, p = parse_quaternion(args.b), parse_quaternion(args.p)
        if args.mode == "float":
            b, p = b.to_float(), p.to_float()
        fut = rogosinski_function(b, p, cfg.degree)
        return fut, is_self_map(fut, cfg.grid)
    if args.family == "class-c":
        fut = close_to_convex_member(cfg.seed, cfg.degree)
        h = close_to_convex_reference(cfg.seed, cfg.degree)
        return fut, is_close_to_convex(fut, h, cfg.grid)
    raise DomainError(f"unknown family {args.family!r}")


# A file carries one quotient block, num over den.  Caratheodory and
# class-c files (like sstar ones) carry the window alone until the
# slice-files oracles in perfbench check each file against the form it
# carries (ROADMAP item 2): a mixture's form is a quotient sum, and a
# class-c f' is one whose left factor h / q is folded into num.
_FAMILIES_WITH_QUOTIENT = ("koebe", "rogosinski")


def _gen_payload(args, cfg: SuiteConfig) -> dict:
    fut, verdict = _gen_member(args, cfg)
    series = fut.series if args.mode == "exact" else fut.series.to_float()
    quotient = None
    if args.family in _FAMILIES_WITH_QUOTIENT:
        quotient = {"num": fut.form.num.to_json_dict(), "den": fut.form.den.to_json_dict(),
                    "shift": 0}
    return {"series": series.to_json_dict(), "quotient": quotient,
            "verdict": verdict.to_json_dict()}


def cmd_gen(args) -> int:
    try:
        payload = _gen_payload(args, _config_from_args(args))
    except (QuaternionParseError, DomainError, PreconditionError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _load_series_file(path: str) -> tuple[SliceSeries, StarQuotient | None]:
    """The window and, when the file has a quotient block, its quotient;
    a block's "shift" s (older files wrote q^s apart) multiplies num by q^s."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "series" not in data:
        return SliceSeries.from_json_dict(data), None
    block = data.get("quotient")
    form = None
    if block is not None:
        if not isinstance(block, dict) or type(block.get("shift", 0)) is not int:
            raise ValueError('"quotient" must be an object with an integer "shift"')
        num = SliceSeries.from_json_dict(block.get("num"))
        form = StarQuotient(num.shift(block.get("shift", 0)),
                            SliceSeries.from_json_dict(block.get("den")))
    return SliceSeries.from_json_dict(data["series"]), form


def cmd_eval(args) -> int:
    try:
        series, form = _load_series_file(args.series_file)
        q = parse_quaternion(args.at)
        if form is None:
            value, derivative = series.eval(q), slice_derivative(series).eval(q)
        else:
            value, derivative = form.eval(q), form.derivative().eval(q)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAILURE_EXIT
    sys.stdout.write(format_quaternion(value) + "\n")
    sys.stdout.write(format_quaternion(derivative) + "\n")
    return 0


# ---------------------------------------------------------------------------
# slice-image
# ---------------------------------------------------------------------------


def _parse_unit(token: str) -> ImaginaryUnit:
    q = parse_quaternion(token).to_float()
    # relative to the imaginary norm, which hypot forms without overflow or underflow
    if abs(q.w) > 1e-12 * math.hypot(q.x, q.y, q.z):
        raise DomainError("slice axis must be purely imaginary")
    return ImaginaryUnit.from_vector(q.x, q.y, q.z)


def cmd_slice_image(args) -> int:
    try:
        series, form = _load_series_file(args.series_file)
        unit = _parse_unit(args.unit)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAILURE_EXIT
    radii = [0.98 * (i + 1) / 24 for i in range(24)]
    angles = [2.0 * math.pi * j / 48 for j in range(48)]
    # the point r cos(theta) + r sin(theta) I of `ImaginaryUnit.circle_point`
    points = [(r * math.cos(theta), r * math.sin(theta)) for r in radii for theta in angles]
    ux, uy, uz = unit.x, unit.y, unit.z
    if form is None:
        images = series.slice_values((ux, uy, uz), points)
    else:
        values = form.values([Quaternion(x, y * ux, y * uy, y * uz) for x, y in points])
        images = [(float(v.w), v.x * ux + v.y * uy + v.z * uz) for v in values]
    # the bytes of csv.writer's excel dialect, written in one piece: a float's
    # repr holds no comma, quote or line break, so no field is ever quoted
    lines = [f"{x!r},{y!r},{a!r},{b!r}\r\n" for (x, y), (a, b) in zip(points, images)]
    with open(args.out, "w", newline="") as handle:
        handle.write("re_in,i_in,re_out,i_out\r\n" + "".join(lines))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The settings ``check`` and ``gen`` both read."""
    parser.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                        help="series truncation degree, at least 8 (default %(default)s)")
    parser.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, "7"),
                        help=f"RNG seed (default ${SEED_ENV}, else 7)")
    parser.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--grid-radii", type=radii, default=DEFAULT_RADII,
                        help="comma-separated grid radii in (0,1) (default %(default)s)")
    parser.add_argument("--grid-units", type=int, default=3,
                        help="number of slice axes, i, j, k first (default %(default)s)")
    parser.add_argument("--grid-angles", type=int, default=DEFAULT_ANGLE_COUNT,
                        help="angles per circle (default %(default)s)")


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
                         help="number of generated members per suite (default %(default)s)")
    p_check.add_argument("--tol", type=float, default=POINT_TOL,
                         help="pointwise tolerance (default %(default)s)")
    _add_run_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a certified class member")
    p_gen.add_argument("family",
                       choices=("sstar", "caratheodory", "koebe", "rogosinski", "class-c"))
    p_gen.add_argument("--u", type=str, default="1",
                       help="koebe: unit direction literal (default %(default)s)")
    p_gen.add_argument("--b", type=str, default="1/2i",
                       help="rogosinski: derivative-at-0 literal (default %(default)s)")
    p_gen.add_argument("--p", type=str, default="1",
                       help="rogosinski: free parameter literal (default %(default)s)")
    p_gen.add_argument("--k", type=int, default=3,
                       help="caratheodory: mixture size (default %(default)s)")
    p_gen.add_argument("--mode", choices=("exact", "float"), default="exact",
                       help="scalar mode of the written series (default %(default)s)")
    _add_run_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_eval = sub.add_parser("eval", help="evaluate a series file at a point")
    p_eval.add_argument("series_file", type=str)
    p_eval.add_argument("--at", type=str, required=True,
                        help="quaternion literal inside the unit ball")
    p_eval.set_defaults(func=cmd_eval)

    p_img = sub.add_parser("slice-image", help="sample one slice into a CSV cloud")
    p_img.add_argument("series_file", type=str)
    p_img.add_argument("--unit", type=str, default="i",
                       help="slice axis: i, j, k or a purely imaginary literal "
                            "(default %(default)s)")
    p_img.add_argument("--out", type=str, default="slice_image.csv",
                       help="CSV path (default %(default)s)")
    p_img.set_defaults(func=cmd_slice_image)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PreconditionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())

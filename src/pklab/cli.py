"""pk-lab: build catalog triples and run verification suites.

Examples:

    pk-lab run --family real-liouville --preset einstein-lambda1 --checks all --json out.json
    pk-lab run --family dim-d2-2 --checks flatness
    pk-lab run --family real-liouville --param "rho=x1^2" --param "sigma=2*x2" --checks parakahler,benenti
    pk-lab demo-einstein --json demo.json

Exit codes: 0 all checks passed, 1 at least one check failed,
2 configuration error, 3 constructor (feasibility) failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import catalog
from .catalog import FeasibilityError
from .curves import export_curve_csv, t_planarity_residual
from .exprs import compile_profile
from .fields import DegenerateMetricError
from .geometry import DOMAIN_ERRORS
from .suites import CHECK_NAMES, check_request, demo_einstein, geodesic_paths, run_suite


class ConfigError(ValueError):
    pass


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"box needs 4 intervals 'lo:hi,...', got {text!r}")
    box = []
    for part in parts:
        try:
            lo, hi = (float(x) for x in part.split(":"))
            if not -math.inf < lo < hi < math.inf:
                raise ValueError
        except ValueError:
            raise ConfigError(f"bad interval {part!r}: needs finite numbers lo < hi") from None
        box.append((lo, hi))
    return tuple(box)


def _parse_kv(pairs: list[str], what: str) -> dict[str, str]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"{what} {item!r} is not NAME=VALUE")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _check_outputs(*paths: str) -> None:
    """Raise ConfigError for an output path that cannot be a file in an
    existing directory, before any check runs and its report is lost."""
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write {path!r}: directory {folder!r} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: it is a directory")


def _build_triple(args) -> tuple:
    """Returns (triple, config echo dict)."""
    family = args.family
    if family not in catalog.FAMILIES:
        raise ConfigError(
            f"unknown family {family!r}; known: {', '.join(sorted(catalog.FAMILIES))}"
        )
    config = {
        "family": family,
        "preset": args.preset or "",
        "params": {},
        "box": "",
        "checks": list(args.check_list),
        "points": args.points,
        "seed": args.seed,
        "tolerances": dict(args.tolerances),
    }
    if args.preset:
        if args.param or args.box:
            raise ConfigError("--preset cannot be combined with --param/--box")
        if args.preset not in catalog.PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; known: {', '.join(sorted(catalog.PRESETS))}"
            )
        pfam, _ = catalog.PRESETS[args.preset]
        if pfam != family:
            raise ConfigError(f"preset {args.preset!r} belongs to family {pfam!r}")
        return catalog.preset_triple(args.preset), config

    params = _parse_kv(args.param, "--param")
    config["params"] = dict(sorted(params.items()))
    spec = catalog.FAMILIES[family].params
    kwargs = {}
    for name, value in params.items():
        if name not in spec:
            raise ConfigError(
                f"family {family!r} has no parameter {name!r} (known: {', '.join(spec)})"
            )
        kind = spec[name]
        try:  # ExprError is a ValueError
            if kind in (int, float):
                kwargs[name] = kind(value)
                if not math.isfinite(kwargs[name]):
                    raise ValueError(f"{value!r} is not finite")
            else:
                kwargs[kind[0]] = compile_profile(value, kind[1])
        except ValueError as e:
            raise ConfigError(f"param {name}: {e}") from None
    if args.box:
        kwargs["box"] = _parse_box(args.box)
        config["box"] = args.box
    return catalog.default_triple(family, **kwargs), config


def _cmd_run(args) -> int:
    if args.checks.strip() == "all":
        names = list(CHECK_NAMES)
    else:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
    args.check_list = names
    args.tolerances = {}
    for name, val in _parse_kv(args.tol, "--tol").items():
        try:
            args.tolerances[name] = float(val)
        except ValueError:
            raise ConfigError(f"tolerance override {name}={val} is not a number") from None
    try:
        check_request(names, args.tolerances)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    _check_outputs(args.json, args.csv)

    triple, config = _build_triple(args)
    t0 = time.time()
    report = run_suite(
        triple, names, n_points=args.points, seed=args.seed, tolerances=args.tolerances
    )
    report.label = config["family"] + (f":{config['preset']}" if config["preset"] else "")
    report.config = config
    runtime = time.time() - t0

    if args.csv:
        _export_geodesic_csv(triple, args.csv, args.seed)
    print(report.format_human(runtime=runtime))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    return 0 if report.all_passed else 1


def _export_geodesic_csv(triple, path, seed: int) -> None:
    """Write the first companion geodesic of the run's geodesic check, with
    its planarity residuals where they can be measured."""
    curve = geodesic_paths(triple, seed)[0]
    try:
        (residuals,) = t_planarity_residual(triple.g, triple.t, [curve])
    except DOMAIN_ERRORS as e:  # the geodesic results have failed with it
        print(f"--csv: no planarity residuals ({type(e).__name__}: {e})", file=sys.stderr)
        residuals = None
    export_curve_csv(curve, path, residuals=residuals)


def _cmd_demo(args) -> int:
    _check_outputs(args.json)
    t0 = time.time()
    report = demo_einstein(n_points=args.points, seed=args.seed)
    report.config = {"demo": "einstein-family", "points": args.points, "seed": args.seed}
    runtime = time.time() - t0
    print(report.format_human(runtime=runtime))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    return 0 if report.all_passed else 1


def _at_least(low: int):
    """argparse type: an integer >= low (argparse exits 2 otherwise)."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pk-lab",
        description="Numerical verification lab for para-Kahler surface triples "
        "and their projective equivalence identities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="build a catalog triple and run checks")
    run.add_argument("--family", required=True, help="normal-form family name")
    run.add_argument("--preset", default="", help="named parameter preset")
    run.add_argument("--param", action="append", default=[], metavar="NAME=EXPR",
                     help="profile expression or constant (repeatable)")
    run.add_argument("--box", default="", metavar="LO:HI,LO:HI,LO:HI,LO:HI",
                     help="coordinate box")
    run.add_argument("--checks", default="all",
                     help=f"comma list or 'all' ({', '.join(CHECK_NAMES)})")
    run.add_argument("--points", type=_at_least(1), default=20, help="sample points per check")
    run.add_argument("--seed", type=_at_least(0), default=0, help="sampling seed")
    run.add_argument("--tol", action="append", default=[], metavar="NAME=VAL",
                     help="tolerance override for a result name (repeatable)")
    run.add_argument("--json", default="", help="write the JSON report here")
    run.add_argument("--csv", default="", help="write one companion geodesic as CSV")
    run.set_defaults(fn=_cmd_run)

    demo = sub.add_parser("demo-einstein",
                          help="sweep the two-parameter Einstein family of the separable preset")
    demo.add_argument("--points", type=_at_least(1), default=20)
    demo.add_argument("--seed", type=_at_least(0), default=0)
    demo.add_argument("--json", default="")
    demo.set_defaults(fn=_cmd_demo)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FeasibilityError as e:
        print(f"constructor rejected: {e}", file=sys.stderr)
        return 3
    except DegenerateMetricError as e:
        print(f"degenerate metric: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

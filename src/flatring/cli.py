"""Command-line interface: eigen | coords | green | verify | dirichlet.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(including malformed points and unreadable files), 3 numerical
non-convergence (ConvergenceError, BracketError), 141 (128 + SIGPIPE) when
a reader closes stdout early, with nothing on stderr.  Errors print one
"error: ..." line on stderr.  When --format json is given explicitly, exits
2 and 3 also print {"error": {"type": ..., "message": ..., "exit_code": ...}}
on stdout; without it stdout stays empty on error.  Usage errors that
argparse itself reports (unknown options, bad choices) exit 2 before the
format is known and print no JSON.  All output goes to stdout as JSON
(default) or CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

import numpy as np

from . import __version__
from .coords import CartesianPoint, FlatRingPoint, Variant, cartesian_to_flatring, flatring_to_cartesian
from .dirichlet import BoundaryData, FlatRingDomain, coefficients, solve_interior, solve_point_source
from .elliptic import Modulus
from .errors import ConvergenceError, DomainError
from .harmonics import (
    HarmonicIndex,
    HarmonicKind,
    Truncation,
    green_expansion,
    internal_harmonic,
    toroidal_green_expansion,
)
from .lame import basis_for, check_shell_depth, family_of_superscript, shell_depth
from .verify import SUITES, run_suites


def _json(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for the dicts (str keys), lists, tuples,
    str, int, float, bool and None that commands print; json encodes an indent in Python."""
    out = []
    _write_json(obj, "\n", out)
    return "".join(out)


# exact types: a subclass member (np.float64, a NamedTuple) takes the member-by-member path
_SCALARS = frozenset((float, int, str, bool, type(None)))


@functools.cache
def _flat_encoder(inner: str):
    """json's C encoder with no indent and the item separator of one depth: a scalar, or
    a container of scalars on the lines that json.dumps(indent=2) gives its members."""
    return c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii, None, ": ",
                          "," + inner, False, False, True)


def _write_json(o, indent: str, out: list) -> None:
    # module level, not nested in _json: a nested recursive writer is a
    # reference cycle that holds every call's text until the collector runs
    members = o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ()
    inner = indent + "  "
    if _SCALARS.issuperset(map(type, members)):  # a scalar, or every member one: one pass
        text = "".join(_flat_encoder(inner)(o, 0))
        out.append(text[0] + inner + text[1:-1] + indent + text[-1] if members else text)
    elif isinstance(o, dict):
        for i, (k, v) in enumerate(o.items()):
            out.append(("," if i else "{") + inner + encode_basestring_ascii(k) + ": ")
            _write_json(v, inner, out)
        out.append(indent + "}")
    else:
        for i, v in enumerate(o):
            out.append(("," if i else "[") + inner)
            _write_json(v, inner, out)
        out.append(indent + "]")


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(_json(rows))
    elif rows:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _parse_point(text: str) -> CartesianPoint:
    parts = text.split(",")
    try:
        coords = [float(p) for p in parts]
    except ValueError:
        coords = []
    if len(coords) != 3 or not all(map(math.isfinite, coords)):
        raise DomainError(f"point must be 'x,y,z' with three finite numbers, got {text!r}")
    return CartesianPoint(*coords)


def _parse_range(text: str) -> range:
    try:
        bounds = [int(part) for part in text.split(":")]
    except ValueError:
        bounds = []
    if not 1 <= len(bounds) <= 2:
        raise DomainError(f"range must be 'a:b' or 'n' with integers, got {text!r}")
    if bounds[-1] < bounds[0]:
        raise DomainError(f"range {text!r} is reversed: b must be >= a")
    return range(bounds[0], bounds[-1] + 1)  # not a list: the depth check may refuse it


def cmd_eigen(args) -> int:
    m = Modulus.from_k(args.k)
    kind = "c" if args.family.lower() in ("ec", "c") else "s"
    sups = _parse_range(args.n_range)
    check_shell_depth(shell_depth(*family_of_superscript(kind, sups[-1])))
    rows = []
    specs = [family_of_superscript(kind, n) for n in sups]
    b, cols = basis_for(specs, args.nu, m)
    for sup, (_, n), j in zip(sups, specs, cols):
        lo, hi = b.bracket[0, j].tolist()
        rows.append({
            "family": "Ec" if kind == "c" else "Es",
            "nu": args.nu,
            "superscript": sup,
            "eigenvalue": float(b.h[0, j]),
            "bracket_lo": lo,
            "bracket_hi": hi,
            "zeros_in_0K": n,
        })
    _emit(rows, args.format)
    return 0


def _figure_lines(m: Modulus, n_samples: int) -> list[dict]:
    if n_samples < 1:
        raise DomainError(f"--samples must be >= 1, got {n_samples!r}")
    k_big, kp = m.quarter_K, m.quarter_Kp
    t_line = np.linspace(1e-3 * kp, kp * (1.0 - 1e-3), n_samples)
    s_line = np.linspace(-2.0 * k_big * (1.0 - 1e-4), 2.0 * k_big * (1.0 - 1e-4), n_samples)
    curves = [("s", s_mult * k_big, s_mult * k_big, t_line)
              for s_mult in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5)]
    curves += [("t", t_mult * kp, s_line, t_mult * kp) for t_mult in (0.3, 0.5, 0.7)]
    rows = []
    for kind, value, s, t in curves:
        c = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=0.0, modulus=m))
        rows.append({"kind": kind, "value": value, "points": np.column_stack([c.x, c.z]).tolist()})
    return rows


def cmd_coords(args) -> int:
    m = Modulus.from_k(args.k)
    variant = Variant[f"V{args.variant}"]
    if args.mode == "forward":
        p = FlatRingPoint(s=args.s, t=args.t, phi=args.phi, modulus=m, variant=variant)
        c = flatring_to_cartesian(p)
        _emit([{"x": c.x, "y": c.y, "z": c.z}], args.format)
    elif args.mode == "inverse":
        q = _parse_point(args.point)
        p = cartesian_to_flatring(q, m, variant)
        _emit([{"s": p.s, "t": p.t, "phi": p.phi}], args.format)
    else:  # lines
        rows = _figure_lines(m, args.samples)
        if args.format == "csv":
            rows = [{"curve": i, "kind": row["kind"], "value": row["value"], "x": x, "z": z}
                    for i, row in enumerate(rows) for x, z in row["points"]]
        _emit(rows, args.format)
    return 0


def cmd_green(args) -> int:
    r = _parse_point(args.point)
    rs = _parse_point(args.point_star)
    tr = Truncation(args.m_max, args.n_max)
    # the expansion refuses r = r* (OrderingError) before the distance is taken
    if args.toroidal:
        val, tail, shells = toroidal_green_expansion(r, rs, tr)
    else:
        val, tail, shells = green_expansion(r, rs, tr, Modulus.from_k(args.k))
    direct = 1.0 / math.dist(r, rs)
    report = {
        "value": val,
        "direct": direct,
        "relative_error": abs(val - direct) / direct,
        "tail_estimate": tail,
        "shells": [{"n": i, "magnitude": abs(s)} for i, s in enumerate(shells)],
    }
    if args.format == "json":
        print(_json(report))
    else:
        _emit(report["shells"], "csv")
        print(f"# value={val!r} direct={direct!r} rel={report['relative_error']!r}")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, seed=args.seed, tol_scale=args.tol)
    _emit(checks, args.format)
    return 0 if all(c["pass"] for c in checks) else 1


def _read_boundary_grid(path: str):
    """CSV with header s,phi,g of finite numbers on a full tensor grid, each
    node once; the returned sampler takes (s, phi) arrays."""
    from scipy.interpolate import RegularGridInterpolator

    rows, seen = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["s", "phi", "g"]:
            raise DomainError(f"{path}:1: expected header 's,phi,g'")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
            except (ValueError, IndexError) as exc:
                raise DomainError(f"{path}:{lineno}: malformed row {row!r}") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise DomainError(f"{path}:{lineno}: non-finite value in row {row!r}")
            node = rows[-1][:2]
            if seen.setdefault(node, lineno) != lineno:
                raise DomainError(f"{path}:{lineno}: node (s, phi) = {node!r} repeats line "
                                  f"{seen[node]}")
    if not rows:
        raise DomainError(f"{path}: no grid rows after the header")
    table = np.array(rows).reshape(-1, 3)
    s_vals, si = np.unique(table[:, 0], return_inverse=True)
    p_vals, pi = np.unique(table[:, 1], return_inverse=True)
    grid = np.full((s_vals.size, p_vals.size), np.nan)
    grid[si, pi] = table[:, 2]
    if np.any(np.isnan(grid)):
        raise DomainError(f"{path}: grid is not a full (s, phi) tensor product")
    interp = RegularGridInterpolator((s_vals, p_vals), grid,
                                     bounds_error=False, fill_value=None)
    return lambda s, phi: interp((s, phi))


def cmd_dirichlet(args) -> int:
    if not 0.0 < args.t0 < 1.0:
        raise DomainError(f"--t0 = {args.t0!r} outside (0, 1); it is in units of K'")
    m = Modulus.from_k(args.k)
    kp = m.quarter_Kp
    dom = FlatRingDomain(t0=args.t0 * kp, modulus=m)
    tr = Truncation(args.m_max, args.n_max)
    for flag, value in (("--n-probes", args.n_probes), ("--seed", args.seed)):
        if value < 0:
            raise DomainError(f"{flag} must be >= 0, got {value!r}")

    r_star = None
    if args.boundary == "point-source":
        r_star = _parse_point(args.source) if args.source else flatring_to_cartesian(
            FlatRingPoint(s=1.2 * m.quarter_K, t=0.8 * kp, phi=-0.7, modulus=m))
        coeffs = solve_point_source(dom, r_star, tr, n_s=args.n_s, n_phi=args.n_phi)
    elif args.boundary == "single-mode":
        idx = HarmonicIndex(m=1, n=2, kind=HarmonicKind.GC)
        coeffs = coefficients(dom, BoundaryData.from_function(
            dom, lambda q: internal_harmonic(idx, q, m).real, n_s=args.n_s, n_phi=args.n_phi), tr)
    else:
        g = (lambda s, phi: 1.0) if args.boundary == "constant" else _read_boundary_grid(args.boundary)
        coeffs = coefficients(dom, BoundaryData(g=g, n_s=args.n_s, n_phi=args.n_phi), tr)

    if args.probes:
        probes = [_parse_point(chunk) for chunk in args.probes.split(";")]
    else:
        # t in [0.05K', 0.6 t0]; below t0 = K'/12 that is empty, so [0.3 t0, 0.6 t0],
        # and never past the interior margin
        t_hi = min(0.6 * dom.t0, dom.t_inner)
        if args.n_probes and t_hi <= 0.0:
            raise DomainError(f"--t0 = {args.t0!r} leaves no room for random probes inside "
                              f"the interior margin; give --probes")
        t_lo = 0.05 * kp if 0.05 * kp <= t_hi else 0.5 * t_hi
        s_hi = 2 * m.quarter_K - 0.2
        s, t, phi = np.random.default_rng(args.seed).uniform(
            [-s_hi, t_lo, -math.pi], [s_hi, t_hi, math.pi], (args.n_probes, 3)).T
        mapped = flatring_to_cartesian(FlatRingPoint(s=s, t=t, phi=phi, modulus=m))
        probes = [CartesianPoint(*q) for q in np.column_stack(mapped).tolist()]
    rows = []
    for q, value in zip(probes, solve_interior(dom, coeffs, probes)):
        row = {"x": q.x, "y": q.y, "z": q.z, "value": float(value)}
        if r_star is not None:
            row["direct"] = 1.0 / math.dist(q, r_star)
        rows.append(row)
    _emit(rows, args.format)
    print(f"# parseval_residual={float(coeffs.parseval_residual)!r}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatring",
        description="Flat-ring cyclide coordinates, Lame functions, and "
                    "fundamental-solution expansions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", help="simply-periodic Lame eigenvalues")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--family", choices=["Ec", "Es", "ec", "es"], default="Ec")
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--n-range", default="0:4", help="superscript range a:b")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("coords", help="coordinate conversions and figure data")
    p.add_argument("mode", choices=["forward", "inverse", "lines"])
    p.add_argument("--k", type=float, default=1.0 / math.sqrt(2.0),
                   help="modulus; the default corresponds to a = 2")
    p.add_argument("--variant", type=int, choices=[1, 2, 3], default=1)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--point", default="0.5,0.0,0.3", help="x,y,z for inverse")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("green", help="fundamental-solution expansion report")
    p.add_argument("--k", type=float, default=0.5,
                   help="modulus of the flat-ring expansion; --toroidal ignores it")
    p.add_argument("--point",
                   default="0.72011603046361605,0.22275799214738415,0.15279435659577331",
                   help="inner point x,y,z (default: flat-ring (0.7K, 0.2K', 0.3) at k=0.5)")
    p.add_argument("--point-star",
                   default="0.71857320729349505,-0.39255833227947451,0.79566810056964099",
                   help="outer point x,y,z (default: flat-ring (1.1K, 0.6K', -0.5) at k=0.5)")
    p.add_argument("--m-max", type=int, default=20)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--toroidal", action="store_true",
                   help="use the toroidal-harmonic expansion instead")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1.0,
                   help="scale factor applied to every tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dirichlet", help="interior Dirichlet solve")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--t0", type=float, default=0.4, help="surface parameter in units of K'")
    p.add_argument("--boundary", default="point-source",
                   help="point-source | constant | single-mode | path to CSV grid")
    p.add_argument("--source", default=None, help="x,y,z of the point source")
    p.add_argument("--probes", default=None, help="semicolon-separated x,y,z list")
    p.add_argument("--n-probes", type=int, default=5)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--n-s", type=int, default=64)
    p.add_argument("--n-phi", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dirichlet)
    for p in sub.choices.values():
        p.add_argument("--format", choices=["json", "csv"], default=None,
                       help="output format (default json); an explicit json also "
                            "reports errors as a JSON object on stdout")
    return parser


_PARSER = build_parser()  # built once per process: ~45 add_argument calls


def _fail(exc: Exception, code: int, json_requested: bool) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if json_requested:
        print(_json({"error": {"type": type(exc).__name__, "message": str(exc),
                               "exit_code": code}}))
    return code


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    json_requested = args.format == "json"
    args.format = args.format or "json"
    try:
        return args.func(args)
    except BrokenPipeError:  # stdout closed early: the last flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DomainError, OSError) as exc:
        return _fail(exc, 2, json_requested)
    except ConvergenceError as exc:
        return _fail(exc, 3, json_requested)


if __name__ == "__main__":
    sys.exit(main())

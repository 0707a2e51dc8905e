"""Command-line front end.

Subcommands: ``precompute`` builds the on-disk K-matrix store, ``compute``
samples a phase-space function onto an equiangular grid, ``deriv`` samples
its analytic angular derivatives, ``bench`` runs the scaling harness.

Caches live under a root directory (``--cache`` or the SPINPHASE_CACHE
environment variable), one subdirectory per (d, s) pair.

``TABLE_ROUTES`` names the routes that build a Fourier table: method c
builds the K matrices on the fly, method d reads them from the cache.  A
route added there is offered by ``compute --method``, ``deriv --method`` and
``bench --methods`` alike.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .angular import SpinDimension
from .fourier import derivative_coefficients, fourier_coefficients_method_c
from .gridfile import GridFileError, load_matrix, write_grid, write_grid_csv
from .kcache import (CacheError, cache_directory, fourier_coefficients_method_d, open_cache,
                     precompute_cache)
from .parity import build_parity, rounding_bound, validate_s
from .sampling import (PhaseSpaceGrid, default_grid_size, direct_grid, method_b_grid,
                       sample_fft, window_extract)
from . import states

KIND_TO_S = {"wigner": 0.0, "husimi": -1.0, "glauber": 1.0}
# The --param keys each state family takes.
STATE_PARAMS = {"ghz": (), "dicke": ("m",), "squeezed": ("xi",),
                "coherent": ("theta0", "phi0"), "mixed": (), "random": ("seed",)}
ENV_CACHE = "SPINPHASE_CACHE"
# compute and deriv warn on stderr when rounding may reach this share of a grid's peak.
IMPRECISE_SHARE = 1e-6


class CliError(Exception):
    pass


def _add_s_arguments(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--s", type=float, default=None,
                       help="phase-space order parameter in [-1, 1] (default 0)")
    group.add_argument("--kind", choices=sorted(KIND_TO_S),
                       help="named alias: wigner (s=0), husimi (s=-1), glauber (s=+1)")


def _resolve_s(args) -> float:
    if args.kind is not None:
        return KIND_TO_S[args.kind]
    return 0.0 if args.s is None else args.s


def _given_root(args):
    """The cache root from --cache or the environment, or None."""
    return args.cache or os.environ.get(ENV_CACHE)


def _cache_root(root) -> Path:
    if root is None:
        raise CliError("no cache location: pass --cache or set " + ENV_CACHE)
    return Path(root)


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _build_state(args, dim: SpinDimension) -> tuple[np.ndarray, str]:
    if args.input is not None:
        if args.param:
            raise CliError("--param does not apply to --input")
        rho = load_matrix(args.input, dim.d)
        if rho.shape[0] != dim.d:
            raise CliError(f"input matrix is {rho.shape[0]}x{rho.shape[0]}, "
                           f"but --dim {dim.d} was requested")
        return rho, f"matrix:{args.input}"
    params = _parse_params(args.param)
    name = args.state
    unknown = sorted(set(params) - set(STATE_PARAMS[name]))
    if unknown:
        accepted = ", ".join(STATE_PARAMS[name]) or "none"
        raise CliError(f"--state {name} does not take --param {', '.join(unknown)} "
                       f"(accepted keys: {accepted})")
    if name == "ghz":
        return states.ghz(dim), "ghz"
    if name == "dicke":
        if "m" not in params:
            raise CliError("dicke needs --param m=<half-integer>")
        m = float(params["m"])
        return states.dicke(dim, m), f"dicke(m={m})"
    if name == "squeezed":
        xi = float(params.get("xi", 0.0))
        return states.squeezed(dim, xi), f"squeezed(xi={xi})"
    if name == "coherent":
        theta0 = float(params.get("theta0", 0.0))
        phi0 = float(params.get("phi0", 0.0))
        return states.coherent(dim, theta0, phi0), f"coherent({theta0},{phi0})"
    if name == "mixed":
        return states.maximally_mixed(dim), "mixed"
    if "seed" not in params:  # name == "random", the last of the choices
        raise CliError("random needs --param seed=<int>")
    seed = int(params["seed"])
    return states.random_density(dim, seed), f"random(seed={seed})"


def _route_c(dim, s, cache_root):
    parity = build_parity(dim, s)
    return lambda rho: fourier_coefficients_method_c(rho, parity)


def _route_d(dim, s, cache_root):
    validate_s(s)
    directory = cache_directory(_cache_root(cache_root), dim.d, s)
    try:
        cache = open_cache(directory, dim.d, s)
    except CacheError as exc:
        raise CliError(f"cannot use cached method: {exc}") from exc
    return lambda rho: fourier_coefficients_method_d(rho, cache)


# Each entry takes (dim, s, cache_root or None), does the per-(d, s) work once
# and returns rho -> FourierTable.  The names above are looked up when a route
# runs, so a patched module attribute is the one that is called.
TABLE_ROUTES = {"c": _route_c, "d": _route_d}


def _check_output(args) -> None:
    """Reject output options that cannot go together before any work is done."""
    if args.format == "bin" and args.out is None:
        raise CliError("binary output needs --out")
    if args.format == "bin" and (args.window_theta_max is not None or args.window_phi):
        raise CliError("windows are only available with --format csv")


def _emit_grid(args, grid: PhaseSpaceGrid, description: str, out=None) -> None:
    out = out if out is not None else args.out
    if args.format == "bin":
        write_grid(out, grid, description)
        print(f"wrote {out} (d={grid.dim.d}, s={grid.s}, n={grid.n}, "
              f"method={grid.method})")
        return
    rows = grid
    if args.window_theta_max is not None or args.window_phi:
        theta_max = args.window_theta_max if args.window_theta_max is not None else np.pi
        phi_range = tuple(args.window_phi) if args.window_phi else None
        rows = window_extract(grid, theta_max, phi_range)
    if out is None:
        write_grid_csv(sys.stdout, rows)
        return
    with open(out, "w") as stream:
        write_grid_csv(stream, rows)
    print(f"wrote {out}")


def _warn_if_imprecise(bound: float, grids) -> None:
    """One stderr line when ``bound`` exceeds IMPRECISE_SHARE of the peak of any of ``grids``."""
    peaks = [float(np.abs(grid.values).max()) for grid in grids]
    share = max((bound / peak for peak in peaks if peak > 0), default=0.0)
    if share > IMPRECISE_SHARE:
        print(f"warning: rounding may reach {share:.1e} of the grid's peak "
              "(eps ||rho||_F ||M_s||_F); values may be inaccurate", file=sys.stderr)


def cmd_precompute(args) -> int:
    dim = SpinDimension.from_d(args.dim)
    s = _resolve_s(args)
    directory = (Path(args.out) if args.out
                 else cache_directory(_cache_root(_given_root(args)), dim.d, s))
    cache = precompute_cache(dim, s, directory)
    k_bytes = cache.k_payload_bytes()
    print(f"{cache.last_action} cache in {cache.directory}")
    print(f"K-record payload: {k_bytes} bytes ({k_bytes / 1e3:.1f} kB)")
    print(f"companion payload: {cache.companion_payload_bytes()} bytes")
    return 0


def cmd_compute(args) -> int:
    _check_output(args)
    dim = SpinDimension.from_d(args.dim)
    s = _resolve_s(args)
    rho, description = _build_state(args, dim)
    n = args.n if args.n is not None else default_grid_size(dim)
    if args.method in TABLE_ROUTES:
        table = TABLE_ROUTES[args.method](dim, s, _given_root(args))(rho)
        grid = sample_fft(table, n, method=args.method)
    elif args.method == "b":
        grid = method_b_grid(rho, s, n)
    else:
        grid = direct_grid(rho, build_parity(dim, s), n)
    _warn_if_imprecise(rounding_bound(rho, dim, s), [grid])
    _emit_grid(args, grid, description)
    return 0


def cmd_deriv(args) -> int:
    _check_output(args)
    dim = SpinDimension.from_d(args.dim)
    s = _resolve_s(args)
    rho, description = _build_state(args, dim)
    n = args.n if args.n is not None else default_grid_size(dim)
    table = TABLE_ROUTES[args.method](dim, s, _given_root(args))(rho)
    variables = ["theta", "phi"] if args.variable == "grad" else [args.variable]
    grids = [sample_fft(derivative_coefficients(table, variable), n, method=f"deriv-{variable}")
             for variable in variables]
    # Bernstein's inequality: differentiating a series of degree 2J scales
    # its largest error by at most 2J.
    _warn_if_imprecise(dim.two_j * rounding_bound(rho, dim, s), grids)
    for variable, grid in zip(variables, grids):
        out = args.out
        if out is not None and len(variables) > 1:
            path = Path(out)
            out = str(path.with_name(f"{path.stem}.d{variable}{path.suffix}"))
        _emit_grid(args, grid, f"d/d{variable} of {description}", out=out)
    return 0


def cmd_bench(args) -> int:
    from .bench import run_bench  # loads statistics and tracemalloc only for this command

    dims = [int(tok) for tok in args.dims.split(",") if tok]
    methods = [tok.strip() for tok in args.methods.split(",") if tok]
    report = run_bench(dims, methods, repetitions=args.reps, s=_resolve_s(args),
                       cache_root=_given_root(args))
    if args.out:
        with open(args.out, "w") as fh:
            report.to_csv(fh)
        print(f"wrote {args.out}")
    else:
        report.to_csv(sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphase",
        description="Spherical phase-space functions of spin-J states")
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("precompute", help="build or verify a K-matrix cache")
    pre.add_argument("--dim", type=int, required=True, help="Hilbert dimension d = 2J+1")
    _add_s_arguments(pre)
    pre.add_argument("--out", help="exact cache directory (default: under cache root)")
    pre.add_argument("--cache", help="cache root directory")
    pre.set_defaults(func=cmd_precompute)

    helps = {"compute": "sample a phase-space function onto a grid",
             "deriv": "sample analytic angular derivatives onto a grid"}
    for name, func in (("compute", cmd_compute), ("deriv", cmd_deriv)):
        cmd = sub.add_parser(name, help=helps[name])
        src = cmd.add_mutually_exclusive_group(required=True)
        src.add_argument("--state", choices=list(STATE_PARAMS))
        src.add_argument("--input", help="density-matrix file (.bin container or .csv)")
        cmd.add_argument("--param", action="append", metavar="KEY=VALUE",
                         help="state parameter (m=, xi=, theta0=, phi0=, seed=)")
        cmd.add_argument("--dim", type=int, required=True)
        _add_s_arguments(cmd)
        cmd.add_argument("--n", type=int, default=None,
                         help="grid size (even, >= 4J+2; default max(512, next pow2))")
        oracles = ["b", "direct"] if name == "compute" else []
        cmd.add_argument("--method", default="c", choices=[*TABLE_ROUTES, *oracles])
        cmd.add_argument("--cache", help="cache root (for --method d)")
        cmd.add_argument("--format", choices=["bin", "csv"], default="csv")
        cmd.add_argument("--out", help="output path (csv defaults to stdout)")
        cmd.add_argument("--window-theta-max", type=float, default=None,
                         help="keep only rows with theta <= bound (csv only)")
        cmd.add_argument("--window-phi", type=float, nargs=2, metavar=("LO", "HI"),
                         help="keep only columns with LO <= phi <= HI (csv only)")
        if name == "deriv":
            cmd.add_argument("--variable", choices=["theta", "phi", "grad"],
                             required=True)
        cmd.set_defaults(func=func)

    ben = sub.add_parser("bench", help="run the scaling benchmark harness")
    ben.add_argument("--dims", required=True, help="comma-separated dimensions")
    ben.add_argument("--methods", default=",".join(TABLE_ROUTES),
                     help=f"comma-separated subset of {','.join(['b', *TABLE_ROUTES])}")
    ben.add_argument("--reps", type=int, default=3)
    _add_s_arguments(ben)
    ben.add_argument("--cache", help="cache root (for method d rows)")
    ben.add_argument("--out", help="write the CSV report here instead of stdout")
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``), which is normal use.
        # Point stdout at devnull so the flush at interpreter exit cannot
        # raise a second BrokenPipeError (recipe from the ``signal`` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (CliError, CacheError, GridFileError, MemoryError, OverflowError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

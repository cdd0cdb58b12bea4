"""Command-line front door.

Each subcommand is one entry of COMMANDS: its options and the library
operation it runs.  The parser, the dispatch and the command list of
`nlslab --help` are generated from that table.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import bench as _bench
from . import combinatorics as _comb
from . import fl1d as _fl
from . import hierarchy as _hier
from . import report as _report
from . import solver as _solver
from . import torus as _torus

__all__ = ["main", "dispatch"]

HALVING_WINDOW = (3.2, 4.8)

DESCRIPTION = """Command-line front door.

Every subcommand maps to exactly one library operation:

%s

Exit codes: 0 success, 2 a verification/acceptance window failed,
1 a usage error or a library error.
"""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class Opt(NamedTuple):
    flag: str  # "--name", or a bare name for a positional argument
    type: type | None  # None keeps the string
    default: object
    help: str
    required: bool = False


class Command(NamedTuple):
    name: str  # "group subcommand", or a group that has no subcommands
    help: str
    target: str  # the library operation it runs, as --help lists it
    options: tuple
    run: Callable  # run(args) -> an ExperimentReport or text lines to emit, or an exit code


def _manifest_path(out):
    """<out minus a .csv suffix>.manifest.json, next to the report."""
    return (out[:-4] if out.endswith(".csv") else out) + ".manifest.json"


def _emit(result, argv, out):
    """Print a result, or write it to --out with the manifest that `rerun`
    replays.  The result is an ExperimentReport or a list of text lines."""
    report = isinstance(result, _bench.ExperimentReport)
    if out is None:
        if report:
            rows = [",".join(_report.format_value(v) for v in row) for row in result.rows]
            result = rows + ["# slope = %r" % result.slope]
        print("\n".join(result))
        return
    if report:
        _report.write_report(result, out)
    else:
        _report.write_atomic(out, "\n".join(result) + "\n")
    _report.write_manifest(_manifest_path(out), argv, out)
    print("wrote %s" % out)


# ---------------------------------------------------------------------------
# what the commands run

def _blocks(args):
    """Dyadic blocks nmin, 2 nmin, ... up to nmax, once the sweep options
    are checked."""
    if args.nmin < 1:
        raise UsageError("--nmin must be >= 1, not %d" % args.nmin)
    if args.nmax < args.nmin:
        raise UsageError("--nmax %d is below --nmin %d" % (args.nmax, args.nmin))
    if args.trials < 0:
        raise UsageError("--trials must be >= 0, not %d" % args.trials)
    out = []
    n = args.nmin
    while n <= args.nmax:
        out.append(n)
        n *= 2
    return out


def _halved_times(args):
    if args.levels < 1:
        raise UsageError("--levels must be >= 1, not %d" % args.levels)
    return [1.0 / 2 ** i for i in range(args.levels)]


def _halving_check(name, residuals):
    ok = True
    for a, b in zip(residuals, residuals[1:]):
        ratio = a / b
        inside = HALVING_WINDOW[0] <= ratio <= HALVING_WINDOW[1]
        ok = ok and inside
        print("%s: %.6e -> %.6e  ratio %.4f  [%s]" % (
            name, a, b, ratio, "ok" if inside else "FAIL"))
    return ok


def _verify(name, measure, exact=lambda traj, args: ([], True),
            budget=lambda args, m: None, runs=2):
    """The run of a halving check: measure(traj, args) of one seeded solution
    up to T at the steps dt, dt/2, ... (runs of them) must fall by a ratio in
    HALVING_WINDOW at each halving, and exact(coarse traj, args) -> (lines,
    ok), a check on an exact solution, must pass.  T, dt and budget(args, m)
    at each run's last stored time index m are checked before any solve."""
    def run(args):
        steps = [args.dt / 2 ** i for i in range(runs)]
        for dt in steps:
            budget(args, len(_solver._time_grid(args.T, dt)) - 1)
        d = getattr(args, "d", 1)
        geom = _torus.TorusGeometry(d, (1.0,) * d, (args.grid,) * d)
        phi0 = _torus.random_shell_field(geom, args.block, args.seed)
        coarse = _solver.solve_nls(phi0, args.T, args.dt)
        values = [measure(coarse, args)] + [
            measure(_solver.solve_nls(phi0, args.T, dt), args) for dt in steps[1:]]
        if getattr(args, "dump", None):
            _report.write_trajectory(coarse, args.dump)
            print("wrote %s" % args.dump)
        lines, ok = exact(coarse, args)
        for line in lines:
            print(line)
        ok = _halving_check(name % vars(args), values) and ok
        return 0 if ok else 2
    return run


def _mass_drift(traj, args):
    m0 = _solver.mass(traj.states[0])
    drift = max(abs(_solver.mass(st) - m0) for st in traj.states) / m0
    return ["relative mass drift %.3e" % drift], drift < 1e-11


def _plane_wave(traj, args):
    pw = _solver.plane_wave_trajectory(traj.geometry, (1,) * args.d, args.T, args.dt)
    res = _hier.hierarchy_duhamel_residual(pw, args.k)
    # the residual is rounding of a weighted trace norm, ||S^{-zeta} phi||^{2k} ~ vol^k
    mass = _torus.sobolev_norm(pw.states[0], -_hier.default_zeta(args.d)) ** (2 * args.k)
    rel = res / mass
    return ["plane-wave residual %.3e" % res,
            "plane-wave weighted mass %.3e  residual/mass %.3e" % (mass, rel)], rel < 1e-13


def _gauged_plane_wave(traj, args):
    wave = _torus.mode_field(traj.geometry, (1,))
    defect = np.abs(_fl.renormalized_nonlinearity(wave).coeffs + wave.coeffs).max()
    return ["renormalized nonlinearity on e^{ix}: defect %.3e" % defect], defect < 1e-14


def _verify_lemma25(args):
    if args.m < 1:
        raise UsageError("--m must be >= 1, not %d" % args.m)
    if args.m > _comb.PRODUCT_IDENTITY_MAX_M:
        raise UsageError("--m must be <= %d, not %d" % (_comb.PRODUCT_IDENTITY_MAX_M, args.m))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for m in range(1, args.m + 1):
        F = list(rng.normal(size=m) + 1j * rng.normal(size=m))
        coefs = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
        G = [(lambda tau, a=coefs[i]: a[0] + a[1] * tau + a[2] * tau ** 2
              + a[3] * tau ** 3) for i in range(m)]
        err = _comb.verify_product_identity(m, F, G, 0.8)
        worst = max(worst, err)
        print("m=%d defect %.3e" % (m, err))
    return 0 if worst < args.tol else 2


def _params_table(args):
    dim_arg = str(args.d)
    if ".." in dim_arg:
        lo, hi = dim_arg.split("..")
        dims = range(int(lo), int(hi) + 1)
    else:
        dims = [int(dim_arg)]
    if not dims:
        raise UsageError("--d range %s is empty" % dim_arg)
    lines = ["d,zeta0,alpha0,epsilon,s0,q0,epsilon_open"]
    for d in dims:
        pars = _bench.admissible_parameters(d)
        lines.append("%d,%s,%s,%s,%s,%s,%s" % (
            d, pars.zeta0, pars.alpha0, pars.epsilon, pars.s0,
            pars.q0, pars.epsilon_open))
    return lines


def _rerun(args):
    doc = _report.read_manifest(args.manifest)
    stored = doc["out"]
    rerun_args = build_parser().parse_args(doc["argv"])
    if _OUT not in rerun_args.command.options:
        raise ValueError("manifest %s: `%s` writes no report to compare"
                         % (args.manifest, rerun_args.command.name))
    with open(stored, "rb") as fh:
        before = fh.read()
    # the fresh run goes next to the original, whichever way argv spelled
    # --out: _run, unlike dispatch, prefixes no NLSLAB_OUTDIR
    fresh = rerun_args.out = stored + ".rerun"
    try:
        _run(rerun_args, doc["argv"])
        with open(fresh, "rb") as fh:
            after = fh.read()
        fresh_doc = _report.read_manifest(_manifest_path(fresh))
    finally:
        for path in (fresh, _manifest_path(fresh)):
            if os.path.exists(path):
                os.remove(path)
    if before == after:
        print("byte-identical: %s" % stored)
        return 0
    print("MISMATCH against %s" % stored)
    print("stored with %s; re-run with %s" % tuple(", ".join(
        "%s %s" % (name, d.get("versions", {}).get(name, "unrecorded"))
        for name in ("nlslab", "numpy", "python")) for d in (doc, fresh_doc)))
    return 2


# ---------------------------------------------------------------------------
# the command table

_SEED = Opt("--seed", int, 0, "random seed")
_OUT = Opt("--out", None, None, "write the report to this path, with a manifest next to it")


def _sweep(d, nmin, nmax, trials):
    """The options of a sweep over dyadic blocks, with its defaults."""
    return (Opt("--d", int, d, "torus dimension"),
            Opt("--nmin", int, nmin, "smallest block N"),
            Opt("--nmax", int, nmax, "largest block N; N doubles from nmin"),
            Opt("--trials", int, trials, "random trials per block"),
            _SEED, _OUT)


def _modulation(b):
    """The options of a sweep of the modulation norm over T = 1, 1/2, ..."""
    return (Opt("--r", float, 2.0, "exponent r of X^{s,b}_r"),
            Opt("--b", float, b, "modulation exponent b"),
            Opt("--s", float, 0.0, "Sobolev exponent s"),
            Opt("--mode", int, 3, "Fourier mode of the data"),
            Opt("--levels", int, 4, "number of halvings of T"),
            _OUT)


def _evolution(grid, T, dt):
    """The options of a halving check on a seeded solution, with its defaults."""
    return (Opt("--grid", int, grid, "grid points per axis"),
            Opt("--T", float, T, "final time"),
            Opt("--dt", float, dt, "coarsest time step; finer runs halve it"),
            Opt("--block", int, 2, "dyadic block of the random initial data"),
            _SEED)


_K = Opt("--k", int, None, "k of M_{k,r}", required=True)
_R = Opt("--r", int, None, "r of M_{k,r}", required=True)

GROUPS = {
    "bench": "slope/boundedness sweeps",
    "verify": "residual/identity checks",
    "combinatorics": "collision-map enumeration",
    "params": "admissible exponents",
}

COMMANDS = (
    Command("bench strichartz", "free-evolution space-time bound per block",
            "bench.bench_strichartz",
            (Opt("--p", float, 6.0, "space-time Lebesgue exponent"),) + _sweep(2, 4, 64, 50),
            lambda a: _bench.bench_strichartz(a.d, a.p, _blocks(a), a.trials, a.seed)),
    Command("bench bernstein", "smoothed-block L^p -> L^q bound", "bench.bench_bernstein",
            (Opt("--p", float, 2.0, "exponent of the data norm"),
             Opt("--q", float, math.inf, "exponent of the block norm")) + _sweep(2, 4, 32, 16),
            lambda a: _bench.bench_bernstein(a.p, a.q, _blocks(a), a.trials, a.seed, d=a.d)),
    Command("bench trilinear", "trilinear free-evolution bound, equal blocks",
            "bench.bench_trilinear",
            (Opt("--eta", float, 0.25, "smoothing exponent"),
             Opt("--zeta", float, None, "dual exponent; zeta0 + 0.05 when unset"),
             Opt("--T", float, 1.0, "length of the time interval")) + _sweep(2, 2, 32, 6),
            lambda a: _bench.bench_trilinear(a.d, a.eta, a.zeta, _blocks(a), a.trials, a.seed,
                                             T=a.T)),
    Command("bench cubic-product", "triple product in the dual Besov norm",
            "bench.bench_cubic_product",
            (Opt("--alpha", float, None, "Sobolev exponent; alpha0 + 0.1 when unset"),)
            + _sweep(2, 2, 16, 6),
            lambda a: _bench.bench_cubic_product(a.d, a.alpha, _blocks(a), a.trials, a.seed)),
    Command("bench sobolev-product", "bilinear/trilinear Sobolev products",
            "bench.bench_sobolev_product",
            (Opt("--rho1", float, 0.6, "exponent of the first factor"),
             Opt("--rho2", float, 0.8, "exponent of the second factor"),
             Opt("--delta", float, 0.1, "loss in the exponents"),
             Opt("--rho-tri", float, None, "exponent of the trilinear rows; none when unset"))
            + _sweep(2, 2, 16, 6),
            lambda a: _bench.bench_sobolev_product(a.d, a.rho1, a.rho2, a.delta, _blocks(a),
                                                   a.trials, a.seed, rho_tri=a.rho_tri)),
    Command("bench sobolev-embedding", "L^p vs H^s with the dual rows",
            "bench.bench_sobolev_embedding",
            (Opt("--p", float, 4.0, "Lebesgue exponent"),
             Opt("--s", float, 0.6, "Sobolev exponent")) + _sweep(2, 2, 16, 16),
            lambda a: _bench.bench_sobolev_embedding(a.d, a.p, a.s, _blocks(a), a.trials, a.seed)),
    Command("bench xsb-homogeneous", "cutoff free wave in the modulation norm vs T",
            "fl1d.bench_linear_homogeneous", _modulation(0.25),
            lambda a: _fl.bench_linear_homogeneous(a.r, a.b, _halved_times(a),
                                                   mode=a.mode, s=a.s)),
    Command("bench xsb-inhomogeneous", "Duhamel map gain in the modulation norm vs T",
            "fl1d.bench_linear_inhomogeneous",
            (Opt("--beta", float, 0.0, "modulation exponent of the forcing norm"),)
            + _modulation(0.6),
            lambda a: _fl.bench_linear_inhomogeneous(a.r, a.b, a.beta, _halved_times(a),
                                                     mode=a.mode, s=a.s)),
    Command("verify duhamel", "mild-equation residual halving for the solver",
            "solver.duhamel_residual (halving check)",
            (Opt("--d", int, 2, "torus dimension"),
             Opt("--dump", None, None, "write the coarse trajectory to this path"))
            + _evolution(32, 0.5, 4e-3),
            _verify("duhamel", lambda traj, a: _solver.duhamel_residual(traj), _mass_drift,
                    runs=3)),
    Command("verify hierarchy", "factorized-hierarchy residual halving",
            "hierarchy.hierarchy_duhamel_residual",
            (Opt("--d", int, 1, "torus dimension"), Opt("--k", int, 1, "order k"))
            + _evolution(32, 0.5, 4e-3),
            _verify("hierarchy k=%(k)d",
                    lambda traj, a: _hier.hierarchy_duhamel_residual(traj, a.k), _plane_wave,
                    lambda a, m: _hier.check_defect_budget(a.k, m))),
    Command("verify lemma25", "product-expansion identity with random cubic data",
            "combinatorics.verify_product_identity",
            (Opt("--m", int, 4, "largest number of factors, 1 to %d"
                 % _comb.PRODUCT_IDENTITY_MAX_M), _SEED,
             Opt("--tol", float, 1e-10, "largest accepted defect")),
            _verify_lemma25),
    Command("verify gauge", "renormalized mild equation after the mass gauge",
            "fl1d.renormalized_duhamel_residual", _evolution(64, 0.2, 4e-3),
            _verify("gauge", lambda traj, a: _fl.renormalized_duhamel_residual(traj),
                    _gauged_plane_wave)),
    Command("verify expansion", "iterated hierarchy expansion consistency",
            "combinatorics.expansion_consistency",
            (Opt("--k", int, 1, "order k"), Opt("--r", int, 2, "expansion depth r, 1 or 2"))
            + _evolution(32, 0.2, 0.025),
            _verify("expansion r=%(r)d",
                    lambda traj, a: _comb.expansion_consistency(traj, a.k, a.r),
                    budget=lambda a, m: _comb.check_expansion_budget(a.k, a.r, m))),
    Command("combinatorics enumerate", "one map per line: 'k r : values'",
            "combinatorics.enumerate_collision_maps", (_K, _R, _OUT),
            lambda a: [str(s) for s in _comb.enumerate_collision_maps(a.k, a.r)]),
    Command("combinatorics count", "closed-form cardinality", "combinatorics.collision_map_count",
            (_K, _R), lambda a: [str(_comb.collision_map_count(a.k, a.r))]),
    Command("params table", "exact rational exponent table per dimension",
            "bench.admissible_parameters",
            (Opt("--d", None, "2..6", "dimension or range like 2..6"), _OUT), _params_table),
    Command("rerun", "re-execute a stored manifest, compare bodies",
            "re-dispatch a stored manifest",
            (Opt("manifest", None, None, "manifest of the run to repeat"),), _rerun),
)


def build_parser():
    listing = "\n".join("    %-25s -> %s" % (c.name, c.target) for c in COMMANDS)
    p = _Parser(prog="nlslab", description=DESCRIPTION % listing,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="group", required=True)
    groups = {}
    for c in COMMANDS:
        group, _, name = c.name.partition(" ")
        if name:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest="cmd", required=True)
            parent = groups[group]
        else:
            parent, name = sub, group
        cp = parent.add_parser(name, help=c.help,
                               formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for o in c.options:
            kw = {"required": True} if o.required else {"default": o.default}
            cp.add_argument(o.flag, type=o.type, help=o.help, **kw)
        cp.set_defaults(command=c)
    return p


def _run(args, argv):
    result = args.command.run(args)
    if isinstance(result, int):
        return result
    _emit(result, argv, getattr(args, "out", None))
    return 0


def dispatch(argv):
    """Run argv, with NLSLAB_OUTDIR prefixed to relative --out and --dump paths."""
    args = build_parser().parse_args(argv)
    outdir = os.environ.get("NLSLAB_OUTDIR")
    for name in ("out", "dump"):
        path = getattr(args, name, None)
        if outdir and path and not os.path.isabs(path):
            setattr(args, name, os.path.join(outdir, path))
    return _run(args, argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        return dispatch(list(argv))
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

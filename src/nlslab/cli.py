"""Command-line front door.

Every subcommand maps to exactly one library operation:

    bench strichartz          -> bench.bench_strichartz
    bench bernstein           -> bench.bench_bernstein
    bench trilinear           -> bench.bench_trilinear
    bench cubic-product       -> bench.bench_cubic_product
    bench sobolev-product     -> bench.bench_sobolev_product
    bench sobolev-embedding   -> bench.bench_sobolev_embedding
    bench xsb-homogeneous     -> fl1d.bench_linear_homogeneous
    bench xsb-inhomogeneous   -> fl1d.bench_linear_inhomogeneous
    verify duhamel            -> solver.duhamel_residual (halving check)
    verify hierarchy          -> hierarchy.hierarchy_duhamel_residual
    verify lemma25            -> combinatorics.verify_product_identity
    verify gauge              -> fl1d.renormalized_duhamel_residual
    verify expansion          -> combinatorics.expansion_consistency
    combinatorics enumerate   -> combinatorics.enumerate_collision_maps
    combinatorics count       -> combinatorics.collision_map_count
    params table              -> bench.admissible_parameters
    rerun                     -> re-dispatch a stored manifest

Exit codes: 0 success, 2 a verification/acceptance window failed,
1 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_path(path):
    if path is None:
        return None
    outdir = os.environ.get("NLSLAB_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _manifest_path(out):
    """<out minus a .csv suffix>.manifest.json, next to the report."""
    return (out[:-4] if out.endswith(".csv") else out) + ".manifest.json"


def _emit(rep, args, argv, fit):
    out = _out_path(args.out)
    if out is None:
        for row in rep.rows:
            print(",".join(_report.format_value(v) for v in row))
        print("# slope = %r" % rep.slope)
        return
    rep.footer.setdefault("fit", fit)
    _report.write_report(rep, out)
    _report.write_manifest(_manifest_path(out), argv, out)
    print("wrote %s" % out)


def _dyadic_list(nmin, nmax):
    out = []
    n = nmin
    while n <= nmax:
        out.append(n)
        n *= 2
    return out


def _halved_list(levels, start=1.0):
    return [start / 2 ** i for i in range(levels)]


def build_parser():
    p = _Parser(prog="nlslab", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="group", required=True)

    bench = sub.add_parser("bench", help="slope/boundedness sweeps").add_subparsers(
        dest="cmd", required=True)

    b = bench.add_parser("strichartz", help="free-evolution space-time bound per block")
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--p", type=float, default=6.0)
    b.add_argument("--nmin", type=int, default=4)
    b.add_argument("--nmax", type=int, default=64)
    b.add_argument("--trials", type=int, default=50)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")

    b = bench.add_parser("bernstein", help="smoothed-block L^p -> L^q bound")
    b.add_argument("--p", type=float, default=2.0)
    b.add_argument("--q", type=float, default=math.inf)
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--nmin", type=int, default=4)
    b.add_argument("--nmax", type=int, default=32)
    b.add_argument("--trials", type=int, default=16)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")

    b = bench.add_parser("trilinear", help="trilinear free-evolution bound, equal blocks")
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--eta", type=float, default=0.25)
    b.add_argument("--zeta", type=float, default=None)
    b.add_argument("--nmin", type=int, default=2)
    b.add_argument("--nmax", type=int, default=32)
    b.add_argument("--trials", type=int, default=6)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--T", type=float, default=1.0)
    b.add_argument("--out")

    b = bench.add_parser("cubic-product", help="triple product in the dual Besov norm")
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--alpha", type=float, default=None)
    b.add_argument("--nmin", type=int, default=2)
    b.add_argument("--nmax", type=int, default=16)
    b.add_argument("--trials", type=int, default=6)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")

    b = bench.add_parser("sobolev-product", help="bilinear/trilinear Sobolev products")
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--rho1", type=float, default=0.6)
    b.add_argument("--rho2", type=float, default=0.8)
    b.add_argument("--delta", type=float, default=0.1)
    b.add_argument("--rho-tri", type=float, default=None)
    b.add_argument("--nmin", type=int, default=2)
    b.add_argument("--nmax", type=int, default=16)
    b.add_argument("--trials", type=int, default=6)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")

    b = bench.add_parser("sobolev-embedding", help="L^p vs H^s with the dual rows")
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--p", type=float, default=4.0)
    b.add_argument("--s", type=float, default=0.6)
    b.add_argument("--nmin", type=int, default=2)
    b.add_argument("--nmax", type=int, default=16)
    b.add_argument("--trials", type=int, default=16)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")

    b = bench.add_parser("xsb-homogeneous", help="cutoff free wave in the modulation norm vs T")
    b.add_argument("--r", type=float, default=2.0)
    b.add_argument("--b", type=float, default=0.25)
    b.add_argument("--s", type=float, default=0.0)
    b.add_argument("--mode", type=int, default=3)
    b.add_argument("--levels", type=int, default=4)
    b.add_argument("--out")

    b = bench.add_parser("xsb-inhomogeneous", help="Duhamel map gain in the modulation norm vs T")
    b.add_argument("--r", type=float, default=2.0)
    b.add_argument("--b", type=float, default=0.6)
    b.add_argument("--beta", type=float, default=0.0)
    b.add_argument("--s", type=float, default=0.0)
    b.add_argument("--mode", type=int, default=3)
    b.add_argument("--levels", type=int, default=4)
    b.add_argument("--out")

    verify = sub.add_parser("verify", help="residual/identity checks").add_subparsers(
        dest="cmd", required=True)

    v = verify.add_parser("duhamel", help="mild-equation residual halving for the solver")
    v.add_argument("--d", type=int, default=2)
    v.add_argument("--grid", type=int, default=32)
    v.add_argument("--T", type=float, default=0.5)
    v.add_argument("--dt", type=float, default=4e-3)
    v.add_argument("--block", type=int, default=2)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--dump", help="write the coarse trajectory to this path")

    v = verify.add_parser("hierarchy", help="factorized-hierarchy residual halving")
    v.add_argument("--d", type=int, default=1)
    v.add_argument("--grid", type=int, default=32)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--T", type=float, default=0.5)
    v.add_argument("--dt", type=float, default=4e-3)
    v.add_argument("--block", type=int, default=2)
    v.add_argument("--seed", type=int, default=0)

    v = verify.add_parser("lemma25", help="product-expansion identity with random cubic data")
    v.add_argument("--m", type=int, default=4)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-10)

    v = verify.add_parser("gauge", help="renormalized mild equation after the mass gauge")
    v.add_argument("--grid", type=int, default=64)
    v.add_argument("--T", type=float, default=0.2)
    v.add_argument("--dt", type=float, default=4e-3)
    v.add_argument("--block", type=int, default=2)
    v.add_argument("--seed", type=int, default=0)

    v = verify.add_parser("expansion", help="iterated hierarchy expansion consistency")
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--r", type=int, default=2)
    v.add_argument("--grid", type=int, default=32)
    v.add_argument("--T", type=float, default=0.2)
    v.add_argument("--dt", type=float, default=0.025)
    v.add_argument("--block", type=int, default=2)
    v.add_argument("--seed", type=int, default=0)

    comb = sub.add_parser("combinatorics", help="collision-map enumeration").add_subparsers(
        dest="cmd", required=True)
    c = comb.add_parser("enumerate", help="one map per line: 'k r : values'")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--out")
    c = comb.add_parser("count", help="closed-form cardinality")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--r", type=int, required=True)

    params = sub.add_parser("params", help="admissible exponents").add_subparsers(
        dest="cmd", required=True)
    c = params.add_parser("table", help="exact rational exponent table per dimension")
    c.add_argument("--d", default="2..6", help="dimension or range like 2..6")
    c.add_argument("--out")

    r = sub.add_parser("rerun", help="re-execute a stored manifest, compare bodies")
    r.add_argument("manifest")

    return p


def _halving_check(name, residuals):
    ok = True
    for a, b in zip(residuals, residuals[1:]):
        ratio = a / b
        inside = HALVING_WINDOW[0] <= ratio <= HALVING_WINDOW[1]
        ok = ok and inside
        print("%s: %.6e -> %.6e  ratio %.4f  [%s]" % (
            name, a, b, ratio, "ok" if inside else "FAIL"))
    return ok


def _random_initial(d, grid, block, seed):
    geom = _torus.TorusGeometry(d, (1.0,) * d, (grid,) * d)
    return geom, _torus.random_shell_field(geom, block, seed)


def dispatch(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    g, cmd = args.group, getattr(args, "cmd", None)

    if g == "bench":
        if cmd == "strichartz":
            rep = _bench.bench_strichartz(args.d, args.p,
                                          _dyadic_list(args.nmin, args.nmax),
                                          args.trials, args.seed)
        elif cmd == "bernstein":
            rep = _bench.bench_bernstein(args.p, args.q,
                                         _dyadic_list(args.nmin, args.nmax),
                                         args.trials, args.seed, d=args.d)
        elif cmd == "trilinear":
            zeta = args.zeta
            if zeta is None:
                zeta = float(_bench.admissible_parameters(args.d).zeta0) + 0.05
            triples = [(N, N, N) for N in _dyadic_list(args.nmin, args.nmax)]
            rep = _bench.bench_trilinear(args.d, args.eta, zeta, triples,
                                         args.trials, args.seed, T=args.T)
        elif cmd == "cubic-product":
            alpha = args.alpha
            if alpha is None:
                alpha = float(_bench.admissible_parameters(args.d).alpha0) + 0.1
            rep = _bench.bench_cubic_product(args.d, alpha,
                                            _dyadic_list(args.nmin, args.nmax),
                                            args.trials, args.seed)
        elif cmd == "sobolev-product":
            pairs = [(N, N) for N in _dyadic_list(args.nmin, args.nmax)]
            rep = _bench.bench_sobolev_product(args.d, args.rho1, args.rho2,
                                              args.delta, pairs, args.trials,
                                              args.seed, rho_tri=args.rho_tri)
        elif cmd == "sobolev-embedding":
            rep = _bench.bench_sobolev_embedding(args.d, args.p, args.s,
                                                 _dyadic_list(args.nmin, args.nmax),
                                                 args.trials, args.seed)
        elif cmd == "xsb-homogeneous":
            rep = _fl.bench_linear_homogeneous(args.r, args.b,
                                              _halved_list(args.levels),
                                              mode=args.mode, s=args.s)
        elif cmd == "xsb-inhomogeneous":
            rep = _fl.bench_linear_inhomogeneous(args.r, args.b, args.beta,
                                                 _halved_list(args.levels),
                                                 mode=args.mode, s=args.s)
        else:
            raise UsageError("unknown bench %r" % cmd)
        fit = "direct" if cmd.startswith("xsb") else "block"
        _emit(rep, args, ["bench", cmd] + argv[2:], fit)
        return 0

    if g == "verify":
        if cmd == "duhamel":
            geom, phi0 = _random_initial(args.d, args.grid, args.block, args.seed)
            residuals, trajs = [], []
            for dt in (args.dt, args.dt / 2, args.dt / 4):
                traj = _solver.solve_nls(phi0, args.T, dt)
                trajs.append(traj)
                residuals.append(_solver.duhamel_residual(traj))
            drift = max(abs(_solver.mass(st) - _solver.mass(phi0))
                        for st in trajs[0].states) / _solver.mass(phi0)
            print("relative mass drift %.3e" % drift)
            if args.dump:
                _report.write_trajectory(trajs[0], _out_path(args.dump))
                print("wrote %s" % _out_path(args.dump))
            ok = _halving_check("duhamel", residuals) and drift < 1e-11
            return 0 if ok else 2
        if cmd == "hierarchy":
            geom, phi0 = _random_initial(args.d, args.grid, args.block, args.seed)
            residuals = []
            for dt in (args.dt, args.dt / 2):
                traj = _solver.solve_nls(phi0, args.T, dt)
                residuals.append(_hier.hierarchy_duhamel_residual(traj, args.k))
            pw = _solver.plane_wave_trajectory(geom, (1,) * args.d, args.T, args.dt)
            pw_res = _hier.hierarchy_duhamel_residual(pw, args.k)
            print("plane-wave residual %.3e" % pw_res)
            ok = _halving_check("hierarchy k=%d" % args.k, residuals) and pw_res < 1e-9
            return 0 if ok else 2
        if cmd == "lemma25":
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
        if cmd == "gauge":
            geom, phi0 = _random_initial(1, args.grid, args.block, args.seed)
            residuals = []
            for dt in (args.dt, args.dt / 2):
                traj = _solver.solve_nls(phi0, args.T, dt)
                residuals.append(_fl.renormalized_duhamel_residual(traj))
            pw = _fl.renormalized_nonlinearity(_torus.mode_field(geom, (1,)))
            exact = np.abs(pw.coeffs + _torus.mode_field(geom, (1,)).coeffs).max()
            print("renormalized nonlinearity on e^{ix}: defect %.3e" % exact)
            ok = _halving_check("gauge", residuals) and exact < 1e-14
            return 0 if ok else 2
        if cmd == "expansion":
            geom, phi0 = _random_initial(1, args.grid, args.block, args.seed)
            vals = []
            for dt in (args.dt, args.dt / 2):
                traj = _solver.solve_nls(phi0, args.T, dt)
                vals.append(_comb.expansion_consistency(traj, args.k, args.r))
            print("expansion r=%d: %.4e -> %.4e  (ratio %.3f)" % (
                args.r, vals[0], vals[1], vals[0] / vals[1]))
            return 0 if vals[1] < vals[0] and vals[0] / vals[1] > 2.0 else 2
        raise UsageError("unknown verify %r" % cmd)

    if g == "combinatorics":
        if cmd == "enumerate":
            lines = [str(s) for s in _comb.enumerate_collision_maps(args.k, args.r)]
            out = _out_path(args.out)
            if out:
                with open(out, "w", newline="\n") as fh:
                    fh.write("\n".join(lines) + "\n")
                print("wrote %s" % out)
            else:
                print("\n".join(lines))
            return 0
        if cmd == "count":
            print(_comb.collision_map_count(args.k, args.r))
            return 0
        raise UsageError("unknown combinatorics %r" % cmd)

    if g == "params":
        if cmd == "table":
            dim_arg = str(args.d)
            if ".." in dim_arg:
                lo, hi = dim_arg.split("..")
                dims = range(int(lo), int(hi) + 1)
            else:
                dims = [int(dim_arg)]
            header = "d,zeta0,alpha0,epsilon,s0,q0,epsilon_open"
            lines = [header]
            for d in dims:
                pars = _bench.admissible_parameters(d)
                lines.append("%d,%s,%s,%s,%s,%s,%s" % (
                    d, pars.zeta0, pars.alpha0, pars.epsilon, pars.s0,
                    pars.q0, pars.epsilon_open))
            out = _out_path(args.out)
            if out:
                with open(out, "w", newline="\n") as fh:
                    fh.write("\n".join(lines) + "\n")
                _report.write_manifest(_manifest_path(out), ["params", "table"] + argv[2:], out)
                print("wrote %s" % out)
            else:
                print("\n".join(lines))
            return 0
        raise UsageError("unknown params %r" % cmd)

    if g == "rerun":
        doc = _report.read_manifest(args.manifest)
        stored = doc["out"]
        with open(stored, "rb") as fh:
            before = fh.read()
        rerun_argv = list(doc["argv"])
        # redirect the fresh run next to the original
        fresh = stored + ".rerun"
        for i, a in enumerate(rerun_argv):
            if a == "--out" and i + 1 < len(rerun_argv):
                rerun_argv[i + 1] = fresh
        saved_outdir = os.environ.pop("NLSLAB_OUTDIR", None)
        try:
            code = dispatch(rerun_argv)
        finally:
            if saved_outdir is not None:
                os.environ["NLSLAB_OUTDIR"] = saved_outdir
        if code != 0:
            return code
        with open(fresh, "rb") as fh:
            after = fh.read()
        os.remove(fresh)
        if os.path.exists(_manifest_path(fresh)):
            os.remove(_manifest_path(fresh))
        if before == after:
            print("byte-identical: %s" % stored)
            return 0
        print("MISMATCH against %s" % stored)
        return 2

    raise UsageError("unknown command group %r" % g)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        return dispatch(list(argv))
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

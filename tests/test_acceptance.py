"""Acceptance gate: thirteen end-to-end checks with stated tolerances.

Each test prints exactly one line "criterion NN (<label>): PASS|FAIL ..."
(visible with pytest -s, and in the failure report otherwise) and then
asserts the stated window.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from nlslab.bench import (
    admissible_parameters,
    bench_bernstein,
    bench_strichartz,
    bench_trilinear,
)
import nlslab
from nlslab.cli import main
from nlslab.combinatorics import (
    collision_map_count,
    enumerate_collision_maps,
    verify_product_identity,
)
from nlslab.fl1d import (
    bench_linear_homogeneous,
    bench_linear_inhomogeneous,
    renormalized_duhamel_residual,
    renormalized_nonlinearity,
)
from nlslab.hierarchy import (
    hierarchy_duhamel_residual,
    tensor_power,
    trace_norms,
)
from nlslab.solver import (
    duhamel_residual,
    mass,
    plane_wave_trajectory,
    solve_nls,
)
from nlslab.torus import (
    SpectralField,
    TorusGeometry,
    dyadic_blocks,
    dyadic_project,
    inner_product,
    mode_field,
    random_shell_field,
    smooth_dyadic_project,
    sobolev_norm,
    zero_field,
)

HALVING = (3.2, 4.8)


def _report(num, label, ok, detail, t0, limit):
    elapsed = time.time() - t0
    line = "criterion %02d (%s): %s  [%s; %.1fs < %gs]" % (
        num, label, "PASS" if ok and elapsed < limit else "FAIL", detail, elapsed, limit
    )
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_01_parameter_table():
    t0 = time.time()
    expect_s0 = {2: Fraction(7, 12), 3: Fraction(4, 5), 4: Fraction(1),
                 5: Fraction(3, 2), 6: Fraction(2)}
    ok = True
    for d in range(2, 7):
        p = admissible_parameters(d)
        ok = ok and p.s0 == expect_s0[d]
        ok = ok and Fraction(d) / p.q0 - Fraction(d, 2) == p.zeta0
        if d >= 4:
            ok = ok and p.s0 == Fraction(d, 2) - 1
    _report(1, "parameter table d=2..6 exact rationals", ok,
            "s0 = " + ", ".join("%d:%s" % (d, expect_s0[d]) for d in range(2, 7)),
            t0, 1.0)


def test_criterion_02_projection_algebra():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(0)
    for geom in (TorusGeometry(1, (1.0,), (64,)),
                 TorusGeometry(2, (1.0, 0.8), (32, 32)),
                 TorusGeometry(3, (1.0, 1.0, 1.3), (16, 16, 16))):
        c = rng.standard_normal(geom.grid) + 1j * rng.standard_normal(geom.grid)
        f = SpectralField(geom, c)
        blocks = dyadic_blocks(geom)
        total = zero_field(geom)
        for N in blocks:
            pf = dyadic_project(f, N)
            total = total + pf
            worst = max(worst, np.abs(dyadic_project(pf, N).coeffs - pf.coeffs).max())
            worst = max(worst, np.abs(smooth_dyadic_project(pf, N).coeffs - pf.coeffs).max())
        worst = max(worst, np.abs(total.coeffs - f.coeffs).max())
        worst = max(worst, abs(inner_product(dyadic_project(f, blocks[0]),
                                             dyadic_project(f, blocks[1]))))
    _report(2, "projection algebra d=1,2,3", worst < 1e-12,
            "worst defect %.2e < 1e-12" % worst, t0, 10.0)


def test_criterion_03_mild_solution_halving():
    t0 = time.time()
    geom = TorusGeometry(2, (1.0, 1.0), (32, 32))
    phi0 = random_shell_field(geom, 2, 0)
    res, drift = [], 0.0
    for dt in (4e-3, 2e-3, 1e-3):
        traj = solve_nls(phi0, 0.5, dt)
        res.append(duhamel_residual(traj))
        drift = max(drift, max(abs(mass(st) - mass(phi0)) for st in traj.states)
                    / mass(phi0))
    ratios = [res[i] / res[i + 1] for i in range(2)]
    ok = all(HALVING[0] <= r <= HALVING[1] for r in ratios) and drift < 1e-11
    _report(3, "mild-solution residual halving on the square torus", ok,
            "ratios %.3f, %.3f in [3.2, 4.8]; mass drift %.1e < 1e-11"
            % (ratios[0], ratios[1], drift), t0, 120.0)


def test_criterion_04_hierarchy_residual():
    t0 = time.time()
    geom = TorusGeometry(1, (1.0,), (32,))
    phi0 = random_shell_field(geom, 2, 0)
    trajs = [solve_nls(phi0, 0.5, dt) for dt in (4e-3, 2e-3)]
    ratios = []
    for k in (1, 2):
        res = [hierarchy_duhamel_residual(traj, k) for traj in trajs]
        ratios.append(res[0] / res[1])
    pw = hierarchy_duhamel_residual(plane_wave_trajectory(geom, (1,), 0.5, 4e-3), 1)
    ok = all(HALVING[0] <= r <= HALVING[1] for r in ratios) and pw < 1e-9
    _report(4, "hierarchy residual k=1,2 halving + exact plane wave", ok,
            "ratios %.3f, %.3f in [3.2, 4.8]; plane wave %.1e < 1e-9"
            % (ratios[0], ratios[1], pw), t0, 300.0)


def test_criterion_05_trace_identity():
    t0 = time.time()
    geom = TorusGeometry(1, (1.0,), (16,))
    rng = np.random.default_rng(1)
    c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    phi = SpectralField(geom, c)
    worst = 0.0
    for k in (1, 2, 3):
        for s in (0.0, 0.5, 1.0):
            lhs = trace_norms([tensor_power(phi, k)], s)[0]
            rhs = sobolev_norm(phi, s) ** (2 * k)
            worst = max(worst, abs(lhs - rhs) / rhs)
    _report(5, "weighted trace identity k<=3, s in {0, 0.5, 1}", worst < 1e-10,
            "worst relative defect %.1e < 1e-10" % worst, t0, 10.0)


def test_criterion_06_combinatorics_oracle():
    t0 = time.time()
    count_ok = all(
        len(enumerate_collision_maps(k, r)) == collision_map_count(k, r)
        == math.factorial(k + r - 1) // math.factorial(k - 1)
        for k in range(1, 5) for r in range(1, 6)
    )
    rng = np.random.default_rng(0)
    worst = 0.0
    for m in range(1, 5):
        F = list(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        coefs = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
        G = [(lambda tau, a=coefs[i]: a[0] + a[1] * tau + a[2] * tau ** 2
              + a[3] * tau ** 3) for i in range(m)]
        worst = max(worst, verify_product_identity(m, F, G, 0.8))
    _report(6, "collision-map counts + product identity", count_ok and worst < 1e-10,
            "counts exact for k<=4, r<=5; identity defect %.1e < 1e-10" % worst,
            t0, 30.0)


def test_criterion_07_strichartz_slope():
    t0 = time.time()
    rep = bench_strichartz(2, 6.0, (4, 8, 16, 32, 64), trials=50, seed=7)
    lo, hi = 0.0, 1.0 / 3.0 + 0.15
    ex_min = 1.0 / 3.0 - 0.2
    ok = lo <= rep.slope <= hi and rep.footer["extremizer_slope"] >= ex_min
    _report(7, "Strichartz slope d=2, p=6", ok,
            "slope %.4f in [0, %.4f]; extremizer slope %.4f >= %.4f"
            % (rep.slope, hi, rep.footer["extremizer_slope"], ex_min), t0, 300.0)


def test_criterion_08_bernstein_slope():
    t0 = time.time()
    rep = bench_bernstein(2.0, np.inf, (4, 8, 16, 32), trials=16, seed=0)
    ok = rep.slope <= 1.15
    _report(8, "Bernstein slope (2, inf)", ok,
            "slope %.4f <= 1.15" % rep.slope, t0, 60.0)


def test_criterion_09_trilinear_boundedness():
    t0 = time.time()
    zeta = float(admissible_parameters(2).zeta0) + 0.05
    rep = bench_trilinear(2, 0.25, zeta, (2, 4, 8, 16, 32), trials=6, seed=0)
    by_n = {r[0]: r[3] for r in rep.rows}
    ok = by_n[32] <= 2.0 * by_n[8]
    _report(9, "trilinear boundedness, equal blocks 2..32", ok,
            "ratio(32) = %.4f <= 2 x ratio(8) = %.4f" % (by_n[32], 2.0 * by_n[8]),
            t0, 600.0)


def test_criterion_10_small_time_scaling():
    t0 = time.time()
    T_list = [1.0, 0.5, 0.25, 0.125]
    homog = bench_linear_homogeneous(2.0, 0.25, T_list)
    inhom = bench_linear_inhomogeneous(2.0, 0.6, 0.0, T_list)
    ok = 0.15 <= homog.slope <= 0.35 and 0.25 <= inhom.slope <= 0.55
    _report(10, "small-time modulation-norm scaling", ok,
            "homogeneous slope %.4f in [0.15, 0.35]; inhomogeneous slope %.4f "
            "in [0.25, 0.55]" % (homog.slope, inhom.slope), t0, 120.0)


def test_criterion_11_gauge_renormalization():
    t0 = time.time()
    geom = TorusGeometry(1, (1.0,), (64,))
    phi0 = random_shell_field(geom, 2, 0)
    res = [renormalized_duhamel_residual(solve_nls(phi0, 0.2, dt))
           for dt in (4e-3, 2e-3)]
    ratio = res[0] / res[1]
    wave = mode_field(geom, (1,))
    exact = np.abs(renormalized_nonlinearity(wave).coeffs + wave.coeffs).max()
    ok = HALVING[0] <= ratio <= HALVING[1] and exact < 1e-14
    _report(11, "gauged renormalized mild equation", ok,
            "halving ratio %.3f in [3.2, 4.8]; plane-wave defect %.1e < 1e-14"
            % (ratio, exact), t0, 60.0)


def test_criterion_12_manifest_determinism(tmp_path, monkeypatch, capsys):
    t0 = time.time()
    monkeypatch.setenv("NLSLAB_OUTDIR", str(tmp_path))
    wrote = main(["bench", "xsb-homogeneous", "--out", "report.csv"]) == 0
    rerun = main(["rerun", str(tmp_path / "report.manifest.json")]) == 0
    identical = "byte-identical" in capsys.readouterr().out
    with capsys.disabled():
        _report(12, "manifest rerun byte-identical", wrote and rerun and identical,
                "stored and re-run CSV bodies compare equal", t0, 60.0)


# the child reports its own peak resident set, in KiB on Linux
_PEAK_CHILD = ("import resource, sys\n"
               "from nlslab.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "print('# maxrss_kib = %d' % resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
               "sys.exit(code)\n")


def test_criterion_13_strichartz_3_torus_in_bounded_memory():
    # measured on a 2-core box: 14.2-15.9 s, 176-179 MiB and slope 0.2847
    # (1484 MiB before blocks were sized by bytes); the target is
    # d/2 - (d+2)/p = 0.25
    t0 = time.time()
    src = os.path.dirname(os.path.dirname(nlslab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = "bench strichartz --d 3 --p 4 --nmin 2 --nmax 16 --trials 4 --seed 7".split()
    run = subprocess.run([sys.executable, "-c", _PEAK_CHILD] + argv, env=env,
                         capture_output=True, text=True, timeout=600)
    footer = dict(line[2:].split(" = ") for line in run.stdout.splitlines() if line.startswith("# "))
    slope, peak = float(footer.get("slope", "nan")), int(footer.get("maxrss_kib", "0")) / 1024
    lo, hi = 0.15, 0.35
    ok = run.returncode == 0 and lo <= slope <= hi and peak <= 400
    _report(13, "Strichartz slope d=3, p=4, in bounded memory", ok,
            "exit %d; slope %.4f in [%g, %g]; child peak %.0f MiB <= 400 MiB"
            % (run.returncode, slope, lo, hi, peak), t0, 60.0)

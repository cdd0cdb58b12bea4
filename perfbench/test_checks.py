"""Tests of the benchmark's own checks and tracing.

Each check must accept the program's correct outputs and reject perturbed
ones.  Run from the root of the source tree:

    python3 -m pytest -q perfbench
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nlslab import cli, hierarchy, torus  # noqa: E402


def _sweep(tmp_path, argv, name):
    out = str(tmp_path / name)
    assert cli.main(argv + ["--out", out]) == 0
    return out


def _rewrite(path, edit):
    """Copy a report with edit(row) -> row applied to its data rows."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        out.append(line if line.startswith("#") else ",".join(edit(line.split(","))))
    new = path + ".edited.csv"
    with open(new, "w") as fh:
        fh.write("\n".join(out) + "\n")
    return new


def _scale(pred, factor, column):
    def edit(row):
        if pred(row):
            row = list(row)
            row[column] = repr(float(row[column]) * factor)
        return row
    return edit


@pytest.fixture(scope="module")
def strichartz(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("strichartz")
    argv = ["bench", "strichartz", "--nmin", "4", "--nmax", "16", "--trials", "3",
            "--seed", "5"]
    return _sweep(tmp, argv, "s.csv"), checks.strichartz_oracle(5, 4, 3)


def test_strichartz_accepts_program_output(strichartz):
    path, oracle = strichartz
    assert checks.check_strichartz(path, oracle) == []


@pytest.mark.parametrize("kind", ["single", "ones", "bell", "random"])
def test_strichartz_rejects_a_scaled_first_block_row(strichartz, kind):
    path, oracle = strichartz
    bad = _rewrite(path, _scale(lambda r: r[0] == "4" and r[1] == kind, 1 + 1e-3, 4))
    assert checks.check_strichartz(bad, oracle)


def test_strichartz_rejects_a_scaled_single_row_of_any_block(strichartz):
    path, oracle = strichartz
    bad = _rewrite(path, _scale(lambda r: r[0] == "16" and r[1] == "single", 1 + 1e-9, 4))
    assert any("single row N=16" in f for f in checks.check_strichartz(bad, oracle))


def test_strichartz_rejects_a_row_below_the_hoelder_floor(strichartz):
    path, oracle = strichartz
    bad = _rewrite(path, _scale(lambda r: r[0] == "8" and r[1] == "random", 0.1, 4))
    assert any("Hoelder floor" in f for f in checks.check_strichartz(bad, oracle))


def test_strichartz_rejects_slopes_outside_their_windows(strichartz):
    path, oracle = strichartz
    steep = _rewrite(path, _scale(lambda r: r[0] == "16", 3.0, 4))
    assert any(f.startswith("slope") for f in checks.check_strichartz(steep, oracle))
    flat = _rewrite(path, _scale(lambda r: r[0] == "16" and r[1] == "ones", 0.5, 4))
    assert any(f.startswith("ones slope") for f in checks.check_strichartz(flat, oracle))


def test_strichartz_rejects_a_slope_that_does_not_fit_the_rows(strichartz):
    path, oracle = strichartz
    with open(path) as fh:
        text = fh.read()
    bad = path + ".slope.csv"
    with open(bad, "w") as fh:
        fh.write(text.replace("# slope = 0.", "# slope = 0.0"))
    assert any("not the fit" in f for f in checks.check_strichartz(bad, oracle))


def test_spacetime_ratio_is_exact_for_one_mode():
    c = np.zeros((16, 16), dtype=np.complex128)
    c[3, 2] = 1.0
    for pad in (2, 3):
        assert checks.spacetime_ratio(c, 6.0, 5, pad) == pytest.approx(
            checks.STRICHARTZ_FLOOR, rel=1e-13)


@pytest.fixture(scope="module")
def trilinear(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trilinear")
    argv = ["bench", "trilinear", "--nmin", "2", "--nmax", "8", "--trials", "2",
            "--seed", "3"]
    return _sweep(tmp, argv, "t.csv"), checks.trilinear_oracle(3, 2, 2, 0.25, 0.3)


def test_trilinear_accepts_program_output(trilinear):
    path, oracle = trilinear
    assert checks.check_trilinear(path, oracle) == []


def test_trilinear_rejects_a_perturbed_smallest_triple(trilinear):
    path, oracle = trilinear
    bad = _rewrite(path, _scale(lambda r: r[0] == "2", 1 + 1e-9, 3))
    assert any("direct convolution" in f for f in checks.check_trilinear(bad, oracle))


def test_trilinear_rejects_growth(trilinear):
    path, oracle = trilinear
    bad = _rewrite(path, _scale(lambda r: r[0] == "8", 10.0, 3))
    assert any("exceeds 2 x" in f for f in checks.check_trilinear(bad, oracle))


def test_trilinear_oracle_matches_a_hand_computed_product():
    # one mode per factor, n = (1, 0) in block 2 (shell 2): the product is
    # the mode (3, 0) in block 4 with modulus 1 at every time
    c = np.zeros((8, 8), dtype=np.complex128)
    c[1, 0] = 1.0
    got = checks.trilinear_ratio([c, c, c], 0.25, 0.3, 1.0, 5)
    vol = 4 * math.pi ** 2
    b2, b4 = math.sqrt(5.0), math.sqrt(17.0)
    expect = 2.0 * b4 ** -0.25 / (b2 ** -0.25 * b2 ** 0.6 * vol)
    assert got == pytest.approx(expect, rel=1e-12)


def test_halving_window():
    assert checks.check_halving("x", [1.6e-5, 4e-6, 1e-6]) == []
    assert checks.check_halving("x", [2e-6, 1e-6])
    assert checks.check_halving("x", [5e-6, 1e-6])


def test_expansion_must_fall_by_more_than_two():
    assert checks.check_expansion([3.5e-5, 8.9e-6]) == []
    assert checks.check_expansion([2e-5, 1e-5])
    assert checks.check_expansion([1e-5, 2e-5])


def test_limits():
    assert checks.check_below("pw", 3e-15, checks.PLANE_WAVE_MAX) == []
    assert checks.check_below("pw", 2.9e-4, checks.PLANE_WAVE_MAX)
    assert checks.check_below("gauge", 1e-14, checks.GAUGE_DEFECT_MAX)
    assert checks.check_close("t", 1.0 + 1e-10, 1.0, 1e-9) == []
    assert checks.check_close("t", 1.0 + 1e-8, 1.0, 1e-9)


def _op(ops, name):
    return next(op for op in ops if op.name == name)


@pytest.mark.parametrize("name", ["duhamel_halving", "gauge"])
def test_trajectory_checks_accept_program_output_and_reject_perturbed(tmp_path, name):
    op = _op(workloads.mild_residual(11), name)
    outputs = op.run(str(tmp_path))
    assert op.check(outputs) == []
    trajs, residuals = outputs[0], list(outputs[1])
    residuals[-1] = residuals[-2] / 2.0  # a halving ratio of 2
    assert op.check((trajs, residuals) + tuple(outputs[2:]))
    st = trajs[0].states[-1]
    trajs[0].states[-1] = torus.SpectralField(st.geometry, st.coeffs * (1 + 1e-9))
    assert any("mass drift" in f for f in op.check(outputs))


def test_gram_path_trace_norm_is_checked_against_the_trace():
    op = _op(workloads.hierarchy_k3(2), "trace_norm_k3_positive")
    value = op.run(None)
    assert op.check(value) == []
    assert op.check(value * (1 + 1e-6))


def test_known_faults_excuse_only_their_own_messages():
    k3 = _op(workloads.hierarchy_k3(2), "hierarchy_k3").known_fault
    halving = checks.check_halving("hierarchy k=3", [1.423e-6, 6.658e-7])
    plane_wave = checks.check_below("plane-wave residual k=3", 2.901e-4, checks.PLANE_WAVE_MAX)
    drift = checks.check_below("mass drift", 4.8e-8, checks.MASS_DRIFT_MAX)
    assert k3.excuses(halving + plane_wave)
    assert not k3.excuses(halving + drift)
    assert not k3.excuses(checks.check_halving("hierarchy k=2", [1.423e-6, 6.658e-7]))
    assert not k3.excuses(["Traceback (most recent call last):\n  RankBudgetError"])
    assert not k3.excuses([])
    trip = _op(workloads.mild_residual(2), "trajectory_round_trip").known_fault
    reloaded = checks.check_halving("reloaded duhamel", [1.203e-7, 3.659e-8, 2.305e-8])
    assert trip.excuses(reloaded + drift)
    assert not trip.excuses(checks.check_halving("duhamel", [1.203e-7, 3.659e-8]))
    assert _op(workloads.mild_residual(2), "duhamel_halving").known_fault is None


def test_a_pass_excuses_only_the_known_faults_messages(tmp_path):
    fault = workloads.KnownFault((r"known ",), "nothing")

    def crash(tmp):
        raise RuntimeError("known failure")

    ops = [workloads.Operation("crash", crash, lambda out: [], fault),
           workloads.Operation("other", lambda tmp: None, lambda out: ["other"], fault),
           workloads.Operation("known", lambda tmp: None, lambda out: ["known x"], fault),
           workloads.Operation("fine", lambda tmp: None, lambda out: [], fault)]
    p = run.Pass(ops, str(tmp_path), "0")
    assert [(op.name, excused) for op, _, excused in p.failed] == [
        ("crash", False), ("other", False), ("known", True)]


def test_block_data_matches_the_programs_generator():
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    geom = torus.TorusGeometry(2, (1.0, 1.0), (16, 16))
    for N in (2, 4):
        ours = checks.random_block_coeffs(2, 16, N, rng_a)
        theirs = torus.random_shell_field(geom, N, rng_b).coeffs
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-15)


def test_tracer_records_nested_spans_and_restores_the_program():
    original = torus.product_field
    tracer = tracing.Tracer()
    first = tracer.begin_pass()
    tracer.install()
    try:
        assert torus.product_field is not original
        geom = torus.TorusGeometry(1, (1.0,), (16,))
        phi = torus.random_shell_field(geom, 2, 0)
        torus.cubic_field(phi)
        gamma = hierarchy.tensor_power(phi, 2)
        hierarchy.trace_norm(gamma)
    finally:
        tracer.uninstall()
    assert torus.product_field is original
    m = tracer.pass_metrics(first)
    assert m["torus.product_field.calls"] == 1
    assert m["torus.product_field.fft_points"] == 4 * 32
    assert m["hierarchy.trace_norm.small_calls"] == 1
    assert m["hierarchy.trace_norm.large_calls"] == 0
    assert m["hierarchy.trace_norm.max_rank"] == 1
    names = [s[0] for s in tracer.spans]
    cubic = names.index("torus.cubic_field")
    prod = names.index("torus.product_field")
    assert tracer.spans[prod][3] == cubic
    assert m["torus.cubic_field.s"] >= m["torus.product_field.s"] > 0
    assert tracer.absent() == []

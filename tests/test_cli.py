"""Report/manifest/trajectory persistence and the command-line front end."""

import argparse
import importlib
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlslab
from nlslab import hierarchy as hierarchy_module
from nlslab import solver as solver_module
from nlslab.bench import ExperimentReport, fit_exponent, fit_loglog
from nlslab.cli import build_parser, main
from nlslab.hierarchy import FactorizedDensityMatrix
from nlslab.report import (
    format_value,
    read_manifest,
    read_report,
    read_trajectory,
    write_manifest,
    write_report,
    write_trajectory,
)
from nlslab.solver import solve_nls
from nlslab.torus import SpectralField, TorusGeometry, random_shell_field


def _toy_report(fit):
    rows = [(2, 1.5 * math.sqrt(1.0 + 4.0) ** 0.7 if fit == "block" else 1.5 * 2.0 ** 0.7),
            (4, 1.5 * math.sqrt(1.0 + 16.0) ** 0.7 if fit == "block" else 1.5 * 4.0 ** 0.7),
            (8, 1.5 * math.sqrt(1.0 + 64.0) ** 0.7 if fit == "block" else 1.5 * 8.0 ** 0.7)]
    return ExperimentReport(
        "toy", {"d": 2}, ["N", "ratio"], rows, seed=3, trials=5,
        slope=0.7, intercept=math.log(1.5), residual=0.0,
        footer={"fit": fit},
    )


def refit_report(path):
    """Recompute the fitted slope from a report's rows, as the benches fit it.

    For each distinct value x of the first column the fit takes the largest
    value of the last column, then fits it as bench.fit_exponent does when
    that column is a dyadic block index (footer key 'fit = block'), and
    regresses its log on log(x) otherwise.  A report whose first column
    labels its rows has no such fit and raises ValueError.
    """
    columns, rows, footer = read_report(path)
    best = {}
    for row in rows:
        try:
            x = float(row[0])
        except ValueError:
            raise ValueError("report %s: its first column %r labels rows, so there is "
                             "no slope to refit" % (path, columns[0])) from None
        best[x] = max(best.get(x, -math.inf), float(row[-1]))
    if footer.get("fit", "direct") == "block":
        return fit_exponent(list(best.items()))
    return fit_loglog(list(best), list(best.values()))


def test_format_value_round_trips_floats():
    assert format_value(0.1) == "0.1"
    assert float(format_value(1.0 / 3.0)) == 1.0 / 3.0
    assert format_value(7) == "7"
    assert format_value("ones") == "ones"


@pytest.mark.parametrize("fit", ["direct", "block"])
def test_report_round_trip_and_refit(tmp_path, fit):
    rep = _toy_report(fit)
    path = tmp_path / "toy.csv"
    write_report(rep, path)
    columns, rows, footer = read_report(path)
    assert columns == ["N", "ratio"]
    assert len(rows) == 3
    assert footer["name"] == "toy"
    assert footer["seed"] == "3"
    assert footer["evidence_not_proof"] == "True"
    assert json.loads(footer["params"]) == {"d": 2}
    slope, intercept, resid = refit_report(path)
    assert abs(slope - 0.7) < 1e-12
    assert abs(intercept - math.log(1.5)) < 1e-12


def test_report_write_is_deterministic(tmp_path):
    rep = _toy_report("direct")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(rep, a)
    write_report(rep, b)
    assert a.read_bytes() == b.read_bytes()


def test_report_write_replaces_the_file_whole(tmp_path):
    path = tmp_path / "toy.csv"
    write_report(_toy_report("direct"), path)
    write_report(_toy_report("block"), path)
    assert read_report(path)[2]["fit"] == "block"
    # a write that cannot land leaves no temporary file behind
    (tmp_path / "dir.csv").mkdir()
    with pytest.raises(OSError, match="cannot write report"):
        write_report(_toy_report("direct"), tmp_path / "dir.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.csv", "toy.csv"]


def test_report_write_bad_path_raises_with_context(tmp_path):
    with pytest.raises(OSError, match="cannot write report"):
        write_report(_toy_report("direct"), tmp_path / "missing" / "x.csv")
    with pytest.raises(OSError, match="cannot read report"):
        read_report(tmp_path / "nope.csv")


def test_manifest_round_trip_and_validation(tmp_path):
    path = tmp_path / "m.manifest.json"
    write_manifest(path, ["bench", "toy", "--out", "toy.csv"], "toy.csv")
    doc = read_manifest(path)
    assert doc["argv"][0] == "bench"
    assert doc["versions"] == {"nlslab": nlslab.__version__, "numpy": np.__version__,
                               "python": platform.python_version()}
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 2}')
    with pytest.raises(ValueError):
        read_manifest(bad)


@settings(max_examples=12, deadline=None)
@given(d=st.integers(1, 2), thetas=st.tuples(*[st.floats(0.5, 2.0)] * 2),
       grid=st.tuples(*[st.sampled_from((8, 16))] * 2),
       coupling=st.sampled_from((1.0, -1.0)), seed=st.integers(0, 2 ** 32 - 1))
def test_trajectory_round_trip(tmp_path_factory, d, thetas, grid, coupling, seed):
    geom = TorusGeometry(d, thetas[:d], grid[:d])
    rng = np.random.default_rng(seed)
    phi0 = SpectralField(geom, 0.1 * (rng.standard_normal(geom.grid)
                                      + 1j * rng.standard_normal(geom.grid)))
    traj = solve_nls(phi0, 0.05, 0.01, coupling=coupling)
    path = tmp_path_factory.mktemp("trajectory") / "t.bin"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert back.geometry == geom
    assert back.coupling == coupling
    assert np.array_equal(back.times, traj.times)
    # storage is double precision: the states come back bit for bit
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(traj.states, back.states))
    path2 = path.with_name("t2.bin")
    write_trajectory(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_trajectory_write_replaces_the_file_whole(tmp_path, monkeypatch):
    geom = TorusGeometry(1, (1.0,), (16,))
    old = solve_nls(random_shell_field(geom, 2, 0), 0.05, 0.01)
    new = solve_nls(random_shell_field(geom, 2, 1), 0.1, 0.01)
    path = tmp_path / "t.bin"
    write_trajectory(old, path)
    stored = path.read_bytes()

    def disk_full(src, dst):
        raise OSError("disk full")

    # a write that fails before it lands leaves the old file whole
    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="cannot write trajectory to .*disk full"):
        write_trajectory(new, path)
    monkeypatch.undo()
    assert path.read_bytes() == stored
    # and no temporary file behind
    (tmp_path / "dir.bin").mkdir()
    with pytest.raises(OSError, match="cannot write trajectory"):
        write_trajectory(new, tmp_path / "dir.bin")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.bin", "t.bin"]
    write_trajectory(new, path)
    assert np.array_equal(read_trajectory(path).times, new.times)


def test_trajectory_rejects_version_1_files(tmp_path):
    # format version 1 stored the coefficient blocks as complex64, which lost
    # the precision of the halving checks; nothing writes it any more
    blocks = np.zeros((3, 4, 6), dtype="<c8")
    data = (b"NLSLTRJ1" + struct.pack("<II", 1, 2) + struct.pack("<2d", 1.0, 2.0)
            + struct.pack("<2I", 4, 6) + struct.pack("<dQ", -1.0, 3)
            + np.array([0.0, 0.1, 0.2]).astype("<f8").tobytes() + blocks.tobytes())
    path = tmp_path / "v1.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="^unsupported trajectory format version 1$"):
        read_trajectory(path)


def test_trajectory_wrong_length(tmp_path):
    geom = TorusGeometry(2, (1.0, 1.0), (32, 32))
    traj = solve_nls(random_shell_field(geom, 2, 0), 0.02, 0.01)
    path = tmp_path / "t.bin"
    write_trajectory(traj, path)
    data = path.read_bytes()
    size = len(data)
    assert size == 16 + 12 * 2 + 16 + 3 * (8 + 16 * 32 * 32)
    for cut in (data[:-100], data + b"\x00" * 8):
        path.write_bytes(cut)
        msg = "%s: its header implies %d bytes, found %d" % (path, size, len(cut))
        with pytest.raises(ValueError, match=re.escape(msg)):
            read_trajectory(path)
    path.write_bytes(data[:30])
    with pytest.raises(ValueError, match="implies at least 56 bytes, found 30"):
        read_trajectory(path)


def test_trajectory_read_cut_short_is_rejected(tmp_path, monkeypatch):
    # a file cut after its length was checked: the state reads come back
    # short, and the reader says so instead of returning part of a state
    geom = TorusGeometry(1, (1.0,), (16,))
    path = tmp_path / "t.bin"
    write_trajectory(solve_nls(random_shell_field(geom, 2, 0), 0.02, 0.01), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-100])
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        real(fd)[:6] + (size,) + real(fd)[7:]))
    with pytest.raises(ValueError, match="short read at byte %d" % (size - 100)):
        read_trajectory(path)


def test_trajectory_round_trip_streams_one_state_at_a_time(tmp_path):
    # criterion 03's round trip on 32^2, one of its three step sizes: 126
    # states of 16 KiB.  Writing peaks at 0.9 states' bytes (137 when the
    # file was built in one bytearray), reading at 1.02x the payload, the
    # states it returns (2.02x with the whole file read first and each
    # state copied out of it)
    geom = TorusGeometry(2, (1.0, 1.0), (32, 32))
    traj = solve_nls(random_shell_field(geom, 2, 0), 0.5, 4e-3)
    path = tmp_path / "t.bin"
    state = 16 * geom.npoints
    payload = len(traj.times) * (8 + state)
    tracemalloc.start()
    try:
        write_trajectory(traj, path)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = read_trajectory(path)
        read = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 16 + 12 * 2 + 16 + payload
    assert written <= 2 * state, written / state
    assert read <= 1.1 * payload, read / payload
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(traj.states, back.states))


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_trajectory_with_a_non_finite_theta_is_rejected(tmp_path, theta):
    geom = TorusGeometry(2, (1.0, 1.0), (8, 8))
    path = tmp_path / "t.bin"
    write_trajectory(solve_nls(random_shell_field(geom, 2, 0), 0.02, 0.01), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, 16 + 8, theta)  # the second theta
    path.write_bytes(data)
    with pytest.raises(ValueError, match="positive and finite"):
        read_trajectory(path)


def test_trajectory_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTATRAJ" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_trajectory(path)


def test_cli_params_table_exact(capsys):
    assert main(["params", "table", "--d", "2..6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d,zeta0,alpha0,epsilon,s0,q0,epsilon_open"
    assert out[1] == "2,1/4,7/12,1/4,7/12,8/5,False"
    assert out[2] == "3,3/5,4/5,1/10,4/5,10/7,False"
    assert out[3] == "4,1,1,0,1,4/3,True"
    assert out[4] == "5,3/2,7/6,0,3/2,5/4,True"
    assert out[5] == "6,2,4/3,0,2,6/5,True"


def test_cli_params_table_names_the_1d_module(capsys):
    # the table starts at d = 2; the message points d = 1 at a module that exists
    assert main(["params", "table", "--d", "1"]) == 1
    assert capsys.readouterr() == (
        "", "error: d must be >= 2 (d = 1 is handled by nlslab.fl1d)\n")
    importlib.import_module("nlslab.fl1d")


def test_cli_combinatorics(capsys, tmp_path):
    assert main(["combinatorics", "count", "--k", "3", "--r", "4"]) == 0
    assert capsys.readouterr().out.strip() == "360"
    out = tmp_path / "maps.txt"
    assert main(["combinatorics", "enumerate", "--k", "2", "--r", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0] == "2 2 : 1 1"
    assert lines[-1] == "2 2 : 2 3"


def test_cli_exit_codes(capsys):
    assert main(["bogus"]) == 1  # usage error
    assert main(["verify", "lemma25", "--m", "2"]) == 0
    assert main(["verify", "lemma25", "--m", "2", "--tol", "1e-30"]) == 2
    capsys.readouterr()


def test_cli_rerun_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NLSLAB_OUTDIR", str(tmp_path))
    assert main(["bench", "xsb-homogeneous", "--levels", "3",
                 "--out", "homog.csv"]) == 0
    manifest = tmp_path / "homog.manifest.json"
    assert manifest.exists()
    assert main(["rerun", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out
    # the fresh run and its manifest are cleaned up
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "homog.csv", "homog.manifest.json"]


def test_cli_rerun_detects_mismatch(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NLSLAB_OUTDIR", str(tmp_path))
    assert main(["bench", "xsb-homogeneous", "--levels", "3",
                 "--out", "homog.csv"]) == 0
    target = tmp_path / "homog.csv"
    target.write_bytes(target.read_bytes() + b"# tampered\n")
    manifest = tmp_path / "homog.manifest.json"
    assert main(["rerun", str(manifest)]) == 2
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    versions = "nlslab %s, numpy %s, python %s" % (
        nlslab.__version__, np.__version__, platform.python_version())
    assert "stored with %s; re-run with %s\n" % (versions, versions) in out
    # a manifest written before versions were recorded
    doc = json.loads(manifest.read_text())
    del doc["versions"]
    manifest.write_text(json.dumps(doc))
    assert main(["rerun", str(manifest)]) == 2
    assert ("stored with nlslab unrecorded, numpy unrecorded, python unrecorded; "
            "re-run with %s\n" % versions) in capsys.readouterr().out


def test_cli_rerun_removes_its_files_when_the_rerun_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["params", "table", "--out", "p.csv"]) == 0
    stored = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(path, argv, out):
        raise OSError("cannot write manifest to %s: disk full" % path)

    monkeypatch.setattr(nlslab.report, "write_manifest", fail)
    assert main(["rerun", "p.manifest.json"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == stored


@pytest.mark.parametrize("argv", [["verify", "lemma25", "--m", "2"],
                                  ["combinatorics", "count", "--k", "3", "--r", "2"]])
def test_cli_rerun_refuses_a_command_without_a_report(tmp_path, monkeypatch, capsys, argv):
    # a command without --out has no report to compare: the manifest is
    # refused before the command runs, and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(["params", "table", "--out", "p.csv"]) == 0
    doc = json.loads((tmp_path / "p.manifest.json").read_text())
    doc["argv"] = argv
    (tmp_path / "p.manifest.json").write_text(json.dumps(doc))
    stored = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(["rerun", "p.manifest.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    name = " ".join(argv[:2])
    assert err == "error: manifest p.manifest.json: `%s` writes no report to compare\n" % name
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == stored


def test_cli_rerun_missing_manifest(capsys):
    assert main(["rerun", "/nonexistent/manifest.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '"params table"',
    "{not json",
    '{"format": 1, "argv": ["params", "table"]}',
    '{"format": 1, "argv": ["params", "table"], "out": 3}',
    '{"format": 1, "argv": "params table", "out": "p.csv"}',
    '{"format": 1, "argv": ["params", 2], "out": "p.csv"}',
])
def test_cli_rerun_rejects_a_malformed_manifest(tmp_path, capsys, text):
    path = tmp_path / "bad.manifest.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_manifest(path)
    assert main(["rerun", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


# the effective OpenBLAS thread count, read through numpy's bundled library
_BLAS_THREADS = """
import ctypes, glob, os
import numpy as np
import nlslab.cli
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            fn = getattr(lib, symbol)
            fn.argtypes, fn.restype = [], ctypes.c_int
            print(fn())
            raise SystemExit
print("none")
"""


def test_openblas_num_threads_sets_blas_threads():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    if out.strip() == "none":
        pytest.skip("no OpenBLAS thread-count symbol next to numpy")
    assert out.strip() == "1"


# ---------------------------------------------------------------------------
# the command-line surface, pinned: every subcommand's options as
# (type, default) or (type, default, required)

_SWEEP_OUT = {"--seed": (int, 0), "--out": (None, None)}

CLI_OPTIONS = {
    "bench strichartz": {"--d": (int, 2), "--p": (float, 6.0), "--nmin": (int, 4),
                         "--nmax": (int, 64), "--trials": (int, 50), **_SWEEP_OUT},
    "bench bernstein": {"--p": (float, 2.0), "--q": (float, math.inf), "--d": (int, 2),
                        "--nmin": (int, 4), "--nmax": (int, 32), "--trials": (int, 16),
                        **_SWEEP_OUT},
    "bench trilinear": {"--d": (int, 2), "--eta": (float, 0.25), "--zeta": (float, None),
                        "--nmin": (int, 2), "--nmax": (int, 32), "--trials": (int, 6),
                        "--T": (float, 1.0), **_SWEEP_OUT},
    "bench cubic-product": {"--d": (int, 2), "--alpha": (float, None), "--nmin": (int, 2),
                            "--nmax": (int, 16), "--trials": (int, 6), **_SWEEP_OUT},
    "bench sobolev-product": {"--d": (int, 2), "--rho1": (float, 0.6), "--rho2": (float, 0.8),
                              "--delta": (float, 0.1), "--rho-tri": (float, None),
                              "--nmin": (int, 2), "--nmax": (int, 16), "--trials": (int, 6),
                              **_SWEEP_OUT},
    "bench sobolev-embedding": {"--d": (int, 2), "--p": (float, 4.0), "--s": (float, 0.6),
                                "--nmin": (int, 2), "--nmax": (int, 16), "--trials": (int, 16),
                                **_SWEEP_OUT},
    "bench xsb-homogeneous": {"--r": (float, 2.0), "--b": (float, 0.25), "--s": (float, 0.0),
                              "--mode": (int, 3), "--levels": (int, 4), "--out": (None, None)},
    "bench xsb-inhomogeneous": {"--r": (float, 2.0), "--b": (float, 0.6), "--beta": (float, 0.0),
                                "--s": (float, 0.0), "--mode": (int, 3), "--levels": (int, 4),
                                "--out": (None, None)},
    "verify duhamel": {"--d": (int, 2), "--grid": (int, 32), "--T": (float, 0.5),
                       "--dt": (float, 4e-3), "--block": (int, 2), "--seed": (int, 0),
                       "--dump": (None, None)},
    "verify hierarchy": {"--d": (int, 1), "--grid": (int, 32), "--k": (int, 1),
                         "--T": (float, 0.5), "--dt": (float, 4e-3), "--block": (int, 2),
                         "--seed": (int, 0)},
    "verify lemma25": {"--m": (int, 4), "--seed": (int, 0), "--tol": (float, 1e-10)},
    "verify gauge": {"--grid": (int, 64), "--T": (float, 0.2), "--dt": (float, 4e-3),
                     "--block": (int, 2), "--seed": (int, 0)},
    "verify expansion": {"--k": (int, 1), "--r": (int, 2), "--grid": (int, 32),
                         "--T": (float, 0.2), "--dt": (float, 0.025), "--block": (int, 2),
                         "--seed": (int, 0)},
    "combinatorics enumerate": {"--k": (int, None, True), "--r": (int, None, True),
                                "--out": (None, None)},
    "combinatorics count": {"--k": (int, None, True), "--r": (int, None, True)},
    "params table": {"--d": (None, "2..6"), "--out": (None, None)},
    "rerun": {"manifest": (None, None, True)},
}


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def _cli_options():
    """{'group cmd': {option: (type, default, type of default, required)}}."""
    found = {}
    for group, gp in _subparsers(build_parser())[0].choices.items():
        inner = _subparsers(gp)
        leaves = inner[0].choices.items() if inner else [(None, gp)]
        for cmd, cp in leaves:
            found[" ".join(filter(None, (group, cmd)))] = {
                (a.option_strings[0] if a.option_strings else a.dest):
                    (a.type, a.default, type(a.default), a.required)
                for a in cp._actions if not isinstance(a, argparse._HelpAction)}
    return found


def test_cli_options_pinned():
    want = {name: {opt: (spec[0], spec[1], type(spec[1]), spec[2] if len(spec) > 2 else False)
                   for opt, spec in opts.items()}
            for name, opts in CLI_OPTIONS.items()}
    assert _cli_options() == want


def test_module_help_lists_every_command():
    src = os.path.dirname(os.path.dirname(nlslab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-m", "nlslab.cli", "--help"], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    for name in CLI_OPTIONS:
        assert re.search(r"^    %s +-> \S" % re.escape(name), out, re.M), name


# (subcommand and small sizes, columns, data rows, first column numeric)
BENCH_SMOKE = [
    ("strichartz --nmin 4 --nmax 16 --trials 2 --seed 7", ["N", "data", "lhs", "rhs", "ratio"],
     12, True),
    ("bernstein --nmin 4 --nmax 16 --trials 3", ["N", "data", "lhs", "rhs", "ratio"], 12, True),
    ("trilinear --nmin 2 --nmax 8 --trials 2", ["N1", "N2", "N3", "max_ratio"], 3, True),
    ("cubic-product --nmin 2 --nmax 8 --trials 2", ["N", "max_ratio"], 3, True),
    ("sobolev-product --nmin 2 --nmax 8 --trials 2 --rho-tri 0.7",
     ["form", "N1", "N2", "max_ratio"], 6, False),
    ("sobolev-embedding --nmin 2 --nmax 8 --trials 2", ["part", "N", "max_ratio"], 6, False),
    ("xsb-homogeneous --levels 3", ["T", "norm"], 3, True),
    ("xsb-inhomogeneous --levels 3", ["T", "ratio"], 3, True),
]


@pytest.mark.parametrize("args, columns, nrows, numeric", BENCH_SMOKE,
                         ids=[case[0].split()[0] for case in BENCH_SMOKE])
def test_cli_bench_smoke(tmp_path, monkeypatch, capsys, args, columns, nrows, numeric):
    cmd = args.split()[0]
    argv = ["bench"] + args.split()
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == nrows + 1
    assert out[-1].startswith("# slope = ")
    monkeypatch.setenv("NLSLAB_OUTDIR", str(tmp_path))
    assert main(argv + ["--out", "r.csv"]) == 0
    assert capsys.readouterr().out == "wrote %s\n" % (tmp_path / "r.csv")
    got_columns, rows, footer = read_report(tmp_path / "r.csv")
    assert got_columns == columns
    assert len(rows) == nrows
    assert footer["name"] == cmd
    assert footer["fit"] == ("direct" if cmd.startswith("xsb") else "block")
    manifest = tmp_path / "r.manifest.json"
    assert read_manifest(manifest)["argv"] == argv + ["--out", "r.csv"]
    assert main(["rerun", str(manifest)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "byte-identical: %s" % (tmp_path / "r.csv")


@pytest.mark.parametrize("args, columns, nrows, numeric", BENCH_SMOKE,
                         ids=[case[0].split()[0] for case in BENCH_SMOKE])
def test_refit_report_matches_the_reported_slope(tmp_path, args, columns, nrows, numeric):
    path = tmp_path / "r.csv"
    assert main(["bench"] + args.split() + ["--out", str(path)]) == 0
    if not numeric:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            refit_report(path)
        return
    slope = float(read_report(path)[2]["slope"])
    assert abs(refit_report(path)[0] - slope) < 1e-12


# each dyadic bench over two blocks: (arguments, data rows, first column numeric)
SHORT_SWEEPS = [
    ("strichartz --nmin 4 --nmax 8 --trials 2", 8, True),
    ("bernstein --nmin 4 --nmax 8 --trials 2", 8, True),
    ("trilinear --nmin 2 --nmax 4 --trials 2", 2, True),
    ("cubic-product --nmin 2 --nmax 4 --trials 2", 2, True),
    ("sobolev-product --nmin 2 --nmax 4 --trials 2", 2, False),
    ("sobolev-embedding --nmin 2 --nmax 4 --trials 2", 4, False),
]


@pytest.mark.parametrize("args, nrows, numeric", SHORT_SWEEPS,
                         ids=[case[0].split()[0] for case in SHORT_SWEEPS])
def test_two_block_sweep_writes_its_rows_with_a_nan_slope(tmp_path, args, nrows, numeric):
    path = tmp_path / "r.csv"
    assert main(["bench"] + args.split() + ["--out", str(path)]) == 0
    _, rows, footer = read_report(path)
    assert len(rows) == nrows
    assert footer["slope"] == "nan"
    if numeric:
        assert math.isnan(refit_report(path)[0])


@pytest.mark.parametrize("args", ["xsb-homogeneous --levels 1", "xsb-homogeneous --levels 2",
                                  "xsb-inhomogeneous --levels 1"])
def test_short_modulation_sweep_writes_its_rows_with_a_nan_fit(tmp_path, args):
    path = tmp_path / "r.csv"
    assert main(["bench"] + args.split() + ["--out", str(path)]) == 0
    _, rows, footer = read_report(path)
    assert len(rows) == int(args.split()[-1])
    assert footer["slope"] == footer["intercept"] == footer["residual"] == "nan"
    assert math.isnan(refit_report(path)[0])


_NUM = r"\d\.\d+e[-+]\d\d"
_PW_RESIDUAL = "plane-wave residual " + _NUM
_PW_MASS = "plane-wave weighted mass %s  residual/mass %s" % (_NUM, _NUM)

# (argv, a full-match pattern per stdout line)
OTHER_SMOKE = [
    ("verify duhamel --T 0.1", ["relative mass drift " + _NUM]
     + [r"duhamel: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)] * 2),
    ("verify hierarchy --T 0.1", [_PW_RESIDUAL, _PW_MASS,
                                  r"hierarchy k=1: %s -> %s  ratio \d\.\d{4}  \[ok\]"
                                  % (_NUM, _NUM)]),
    ("verify hierarchy --d 2 --k 2 --T 0.2",
     [_PW_RESIDUAL, _PW_MASS,
      r"hierarchy k=2: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)]),
    ("verify hierarchy --d 2 --k 3 --T 0.2",
     [_PW_RESIDUAL, _PW_MASS,
      r"hierarchy k=3: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)]),
    ("verify hierarchy --d 3 --grid 16 --k 1 --T 0.2",
     [_PW_RESIDUAL, _PW_MASS,
      r"hierarchy k=1: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)]),
    ("verify hierarchy --d 3 --grid 16 --k 2 --T 0.2",
     [_PW_RESIDUAL, _PW_MASS,
      r"hierarchy k=2: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)]),
    ("verify lemma25 --m 3", ["m=%d defect %s" % (m, _NUM) for m in (1, 2, 3)]),
    ("verify gauge --T 0.1", [r"renormalized nonlinearity on e\^\{ix\}: defect " + _NUM,
                              r"gauge: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)]),
    ("verify expansion --T 0.1 --dt 0.02",
     [r"expansion r=2: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)]),
    ("verify expansion --k 3 --T 0.1 --dt 0.02",
     [r"expansion r=2: %s -> %s  ratio \d\.\d{4}  \[ok\]" % (_NUM, _NUM)]),
    ("combinatorics enumerate --k 2 --r 2",
     [re.escape("2 2 : %d %d" % (a, b)) for a in (1, 2) for b in (1, 2, 3)]),
    ("combinatorics count --k 3 --r 4", ["360"]),
    ("params table --d 3", ["d,zeta0,alpha0,epsilon,s0,q0,epsilon_open",
                            re.escape("3,3/5,4/5,1/10,4/5,10/7,False")]),
]


@pytest.mark.parametrize("args, lines", OTHER_SMOKE, ids=[case[0] for case in OTHER_SMOKE])
def test_cli_smoke(capsys, args, lines):
    assert main(args.split()) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(lines)
    for line, pattern in zip(out, lines):
        assert re.fullmatch(pattern, line), line


def test_cli_verify_hierarchy_prints_the_plane_wave_mass(capsys):
    # the plane wave e^{ix} on the 32-point circle: ||phi||^2 is the volume
    # 2 pi, and S^{-zeta} multiplies its mode by <|xi|^2>^{-zeta/2} with
    # |xi|^2 = 1 and zeta = 1/3 for d = 1, so the k = 2 mass is
    # (2 pi 2^{-1/6})^2 = 31.33
    assert main("verify hierarchy --k 2 --T 0.1".split()) == 0
    residual, mass = capsys.readouterr().out.splitlines()[:2]
    pw_res = float(residual.split()[-1])
    pw_mass, ratio = (float(v) for v in re.fullmatch(
        r"plane-wave weighted mass (\S+)  residual/mass (\S+)", mass).groups())
    want = (2 * math.pi * 2 ** (-1 / 6)) ** 2
    assert abs(pw_mass - want) <= 5e-4 * want
    assert abs(ratio - pw_res / pw_mass) <= 1e-3 * ratio
    assert ratio < 1e-13


def _verify_hierarchy_with_a_flipped_bra_sign(monkeypatch, capsys, args):
    """Exit code, residual/mass and last line of `verify hierarchy args`
    with the sign of every bra term of the collision flipped."""
    real = hierarchy_module._collisions

    def flipped(gamma, j):
        out = real(gamma, j)
        terms = [(c if i % 2 == 0 else -c, kets, bras) for i, (c, kets, bras) in enumerate(out.terms)]
        return FactorizedDensityMatrix(out.order, terms)

    with monkeypatch.context() as mp:
        mp.setattr(hierarchy_module, "_collisions", flipped)
        code = main(("verify hierarchy " + args).split())
    out = capsys.readouterr().out.splitlines()
    ratio = float(re.fullmatch(r"plane-wave weighted mass \S+  residual/mass (\S+)", out[1])[1])
    return code, ratio, out[-1]


def test_cli_verify_hierarchy_fails_a_wrong_collision_sign(monkeypatch, capsys):
    # with the sign of every bra term of the collision flipped, the plane
    # wave's residual is a fraction of its mass (0.400), not rounding, and
    # the halving ratio reads 1: the run fails on both
    code, ratio, last = _verify_hierarchy_with_a_flipped_bra_sign(monkeypatch, capsys,
                                                                  "--k 2 --T 0.1")
    assert code == 2
    assert ratio > 0.1
    assert last.endswith("[FAIL]")


@pytest.mark.parametrize("args, wrong", [("--d 2 --k 2 --T 0.1", 0.400),
                                         ("--d 2 --k 4 --T 0.2", 1.600)])
def test_cli_verify_hierarchy_fails_a_wrong_collision_sign_at_d2(monkeypatch, capsys, args, wrong):
    # the same fault at d=2, where the plane wave's mass is 1.0e3 (k=2) and
    # 1.1e6 (k=4): residual/mass reads 0.400 and 1.600, and the run exits 2,
    # where with the true sign it reads 2.4e-15 and 5.5e-15 and exits 0
    assert main(("verify hierarchy " + args).split()) == 0
    capsys.readouterr()
    code, ratio, last = _verify_hierarchy_with_a_flipped_bra_sign(monkeypatch, capsys, args)
    assert code == 2
    assert abs(ratio - wrong) < 1e-3
    assert last.endswith("[FAIL]")


def test_cli_verify_duhamel_dump(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NLSLAB_OUTDIR", str(tmp_path))
    assert main(["verify", "duhamel", "--d", "1", "--T", "0.1", "--dump", "t.bin"]) == 0
    assert "wrote %s\n" % (tmp_path / "t.bin") in capsys.readouterr().out
    back = read_trajectory(tmp_path / "t.bin")
    assert back.geometry == TorusGeometry(1, (1.0,), (32,))
    assert len(back.times) == 26


@pytest.mark.parametrize("args, err", [
    ("bench cubic-product --nmin 0 --out r.csv", "usage error: --nmin must be >= 1, not 0"),
    ("bench cubic-product --nmin 16 --nmax 8 --out r.csv",
     "usage error: --nmax 8 is below --nmin 16"),
    ("bench strichartz --trials -1 --out r.csv", "usage error: --trials must be >= 0, not -1"),
    ("bench sobolev-product --trials 0 --out r.csv",
     "error: need trials >= 1: the product rows are random trials only"),
    ("bench xsb-homogeneous --levels 0 --out r.csv", "usage error: --levels must be >= 1, not 0"),
    ("bench xsb-inhomogeneous --levels -1 --out r.csv",
     "usage error: --levels must be >= 1, not -1"),
    ("verify lemma25 --m 0", "usage error: --m must be >= 1, not 0"),
    ("verify lemma25 --m -3", "usage error: --m must be >= 1, not -3"),
    # checked before any defect is printed
    ("verify lemma25 --m 7", "usage error: --m must be <= 6, not 7"),
    ("params table --d 3..2 --out r.csv", "usage error: --d range 3..2 is empty"),
    ("bench trilinear --T 0 --out r.csv", "error: need T > 0 and finite, not 0"),
    ("bench trilinear --T -1 --out r.csv", "error: need T > 0 and finite, not -1"),
    ("bench trilinear --T inf --out r.csv", "error: need T > 0 and finite, not inf"),
    ("bench strichartz --p inf --out r.csv",
     "error: need a finite p above the critical exponent 2(d+2)/d = 4, not inf"),
    ("bench strichartz --p nan --out r.csv",
     "error: need a finite p above the critical exponent 2(d+2)/d = 4, not nan"),
    ("bench strichartz --d 0 --out r.csv",
     "error: full-grid evaluation supports 1 <= d <= 3, not 0"),
    # a ratio or a refined value that is not a number is an error, not a row
    ("bench bernstein --p nan --out r.csv",
     "error: bernstein ratio is nan at N=4, label random"),
    ("bench cubic-product --alpha nan --out r.csv",
     "error: cubic-product ratio is nan at N=2, label max"),
    ("bench sobolev-embedding --s nan --out r.csv",
     "error: sobolev-embedding ratio is nan at N=2, label a"),
    ("bench xsb-homogeneous --b nan --out r.csv",
     "error: xsb-homogeneous norm at T=1 not resolved in time: nan vs nan on refinement"),
    # library errors: a run needs more terms than the rank budget (the dt
    # run, then the dt/2 run, both before either is solved), and the time
    # grid cannot resolve the forcing at T = 1
    ("verify hierarchy --k 700 --T 0.2 --dt 0.1 --grid 8",
     "error: operation needs 4202 terms, exceeding the rank budget of 4096"),
    ("verify hierarchy --k 3 --dt 1e-3",
     "error: operation needs 6008 terms, exceeding the rank budget of 4096"),
    ("verify expansion --dt 0.0025",
     "error: operation needs 104644 terms, exceeding the rank budget of 100000"),
    ("verify expansion --k 2 --dt 0.004",
     "error: operation needs 124006 terms, exceeding the rank budget of 100000"),
    ("bench xsb-inhomogeneous --b 0.9 --beta 2 --mode 20 --levels 3 --out r.csv",
     "error: xsb-inhomogeneous ratio at T=1 not resolved in time: "
     "0.000720438 vs 0.293894 on refinement"),
], ids=["nmin", "nmax", "trials", "sobolev-product-trials", "levels", "levels-inhomogeneous",
        "lemma25-m", "lemma25-m-negative", "lemma25-m-above", "params-d",
        "trilinear-T-zero", "trilinear-T-negative", "trilinear-T-inf", "strichartz-p-inf",
        "strichartz-p-nan", "strichartz-d-zero", "bernstein-p-nan",
        "cubic-product-alpha-nan", "sobolev-embedding-s-nan", "xsb-b-nan", "hierarchy-rank-budget",
        "hierarchy-rank-budget-dt2", "expansion-rank-budget-dt2",
        "expansion-rank-budget-k2-dt2", "xsb-refinement"])
def test_cli_rejects_bad_sweep_options(tmp_path, monkeypatch, capsys, args, err):
    # a range that holds nothing to check or fit is a usage error, not a
    # pass; a library error is one `error:` line on stderr, not a traceback;
    # each is found before any long run
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(args.split()) == 1
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr() == ("", err + "\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    "verify %s %s" % (cmd, opt) for cmd in ("duhamel", "hierarchy", "gauge", "expansion")
    for opt in ("--dt 0", "--dt -1", "--dt 5e-324", "--T inf", "--T nan")
    + (("--k 0",) if cmd in ("hierarchy", "expansion") else ())])
def test_cli_verify_rejects_bad_steps_before_any_solve(monkeypatch, capsys, args):
    # T, dt and k are checked before the first trajectory is solved, and a
    # bad one is one `error:` line, not a traceback
    def solve_nls(*_):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(solver_module, "solve_nls", solve_nls)
    assert main(args.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: [^\n]+\n", err), err


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.45 EiB"), "error: Unable to allocate 7.45 EiB\n"),
    (MemoryError(), "error: MemoryError\n")], ids=["message", "bare"])
def test_cli_reports_memory_error_as_one_line(monkeypatch, capsys, exc, line):
    # a tiny but normal dt asks _time_grid for ~T/dt stored times; the
    # allocation that fails is stood in for, never made
    def time_grid(*_):
        raise exc

    monkeypatch.setattr(solver_module, "_time_grid", time_grid)
    assert main(["verify", "duhamel", "--dt", "1e-300"]) == 1
    assert capsys.readouterr() == ("", line)


def test_cli_missing_required_option_is_a_usage_error(capsys):
    assert main(["combinatorics", "count", "--k", "3"]) == 1
    assert capsys.readouterr().err == (
        "usage error: the following arguments are required: --r\n")


@pytest.mark.parametrize("argv", [
    ["bench", "xsb-homogeneous", "--levels", "3", "--out", "h.csv"],
    ["bench", "xsb-homogeneous", "--levels", "3", "--out=h.csv"],
    ["params", "table", "--out=p.csv"],
    ["combinatorics", "enumerate", "--k", "2", "--r", "2", "--out", "maps.txt"],
], ids=["out-space", "out-equals", "params", "enumerate"])
def test_cli_rerun_leaves_the_stored_run_alone(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    stored = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    manifests = [name for name in stored if name.endswith(".manifest.json")]
    assert len(manifests) == 1
    assert main(["rerun", manifests[0]]) == 0
    assert "byte-identical" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == stored


@pytest.mark.parametrize("name", list(CLI_OPTIONS))
def test_subcommand_help_shows_defaults(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main(name.split() + ["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for opt, spec in CLI_OPTIONS[name].items():
        if opt.startswith("--"):
            metavar = opt[2:].replace("-", "_").upper()
            assert re.search(r"%s %s [^(]*\(default: %s\)" % (
                re.escape(opt), metavar, re.escape(str(spec[1]))), out), opt


def _readme_command_lines():
    """The argument vector of each `nlslab ...` line in the README's
    "Command line" block, without its trailing comment."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.partition("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("nlslab ")]


def test_readme_command_lines_parse():
    # every documented command and option exists; nothing is run
    lines = _readme_command_lines()
    assert len(lines) >= 10
    for argv in lines:
        assert " ".join(argv).startswith(build_parser().parse_args(argv).command.name)

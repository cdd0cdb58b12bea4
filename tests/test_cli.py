"""Report/manifest/trajectory persistence and the command-line front end."""

import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from nlslab.bench import ExperimentReport
from nlslab.cli import main
from nlslab.report import (
    format_value,
    read_manifest,
    read_report,
    read_trajectory,
    refit_report,
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
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 2}')
    with pytest.raises(ValueError):
        read_manifest(bad)


def test_trajectory_round_trip(tmp_path):
    geom = TorusGeometry(1, (1.0,), (16,))
    traj = solve_nls(random_shell_field(geom, 2, 0), 0.05, 0.01, coupling=-1.0)
    path = tmp_path / "t.bin"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert back.geometry == geom
    assert back.coupling == -1.0
    assert np.array_equal(back.times, traj.times)
    # storage is double precision: the states come back bit for bit
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(traj.states, back.states))
    path2 = tmp_path / "t2.bin"
    write_trajectory(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_trajectory_reads_version_1_files(tmp_path):
    # format version 1 stores the coefficient blocks as complex64
    rng = np.random.default_rng(5)
    blocks = (rng.standard_normal((3, 4, 6)) + 1j * rng.standard_normal((3, 4, 6))).astype("<c8")
    times = np.array([0.0, 0.1, 0.2])
    data = (b"NLSLTRJ1" + struct.pack("<II", 1, 2) + struct.pack("<2d", 1.0, 2.0)
            + struct.pack("<2I", 4, 6) + struct.pack("<dQ", -1.0, 3)
            + times.astype("<f8").tobytes() + blocks.tobytes())
    path = tmp_path / "v1.bin"
    path.write_bytes(data)
    back = read_trajectory(path)
    assert back.geometry == TorusGeometry(2, (1.0, 2.0), (4, 6))
    assert back.coupling == -1.0
    assert np.array_equal(back.times, times)
    for st, block in zip(back.states, blocks):
        assert st.coeffs.dtype == np.complex128
        assert np.array_equal(st.coeffs, block.astype(np.complex128))
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="implies %d bytes, found %d" % (len(data), len(data) - 8)):
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
    assert main(["rerun", str(tmp_path / "homog.manifest.json")]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_rerun_missing_manifest(capsys):
    assert main(["rerun", "/nonexistent/manifest.json"]) == 1
    assert "error" in capsys.readouterr().err


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

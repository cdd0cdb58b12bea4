"""Deterministic CSV reports, JSON run manifests, and binary trajectory
persistence.

CSV dialect: comma separated, '.' decimal point, mandatory header row,
'#'-prefixed comment lines.  The body carries no timestamps, so re-running
the same manifest reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys

import numpy as np

from .solver import Trajectory
from .torus import SpectralField, TorusGeometry

__all__ = [
    "format_value",
    "write_atomic",
    "write_report",
    "read_report",
    "write_manifest",
    "read_manifest",
    "write_trajectory",
    "read_trajectory",
    "TRAJECTORY_MAGIC",
]

TRAJECTORY_MAGIC = b"NLSLTRJ1"


def format_value(v):
    """Deterministic cell text: shortest round-trip repr for floats."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_atomic(path, data, what="report"):
    """Write text (as UTF-8), bytes, or what the function data(fh) writes to
    the open binary file fh, to path through a temporary file and
    os.replace, so that path holds the old file or the whole new one, never
    a part."""
    if isinstance(data, str):
        data = data.encode()
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError("cannot write %s to %s: %s" % (what, path, exc)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_report(report, path):
    """Write an ExperimentReport as CSV with a '#' comment footer."""
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(format_value(v) for v in row))
    lines.append("# name = %s" % report.name)
    lines.append("# params = %s" % json.dumps(report.params, sort_keys=True))
    lines.append("# seed = %d" % report.seed)
    lines.append("# trials = %d" % report.trials)
    lines.append("# slope = %s" % repr(report.slope))
    lines.append("# intercept = %s" % repr(report.intercept))
    lines.append("# residual = %s" % repr(report.residual))
    lines.append("# evidence_not_proof = True")
    for key in sorted(report.footer):
        lines.append("# %s = %s" % (key, format_value(report.footer[key])))
    write_atomic(path, "\n".join(lines) + "\n")


def read_report(path):
    """Parse a report CSV back into (columns, rows, footer dict of strings)."""
    columns, rows, footer = None, [], {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    if "=" in line:
                        key, _, val = line[1:].partition("=")
                        footer[key.strip()] = val.strip()
                    continue
                if columns is None:
                    columns = line.split(",")
                else:
                    rows.append(tuple(line.split(",")))
    except OSError as exc:
        raise OSError("cannot read report from %s: %s" % (path, exc)) from exc
    if columns is None:
        raise ValueError("no header row in %s" % path)
    return columns, rows, footer


def write_manifest(path, argv, out_path):
    """JSON manifest recording exactly how a report was produced, and by which versions."""
    from . import __version__
    versions = {"nlslab": __version__, "numpy": np.__version__, "python": sys.version.split()[0]}
    doc = {"format": 1, "argv": list(argv), "out": str(out_path), "versions": versions}
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n", "manifest")


def read_manifest(path):
    """The manifest at path, checked: a format-1 object whose argv is a list
    of strings and whose out is a string."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError("cannot read manifest from %s: %s" % (path, exc)) from exc
    except ValueError as exc:
        raise ValueError("manifest %s is not JSON: %s" % (path, exc)) from exc
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise ValueError("unrecognized manifest format in %s" % path)
    argv = doc.get("argv")
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise ValueError("manifest %s: argv is not a list of strings" % path)
    if not isinstance(doc.get("out"), str):
        raise ValueError("manifest %s: out is missing or not a string" % path)
    return doc


# ---------------------------------------------------------------------------
# binary trajectory dump: fixed header, then one coefficient block per stored
# time, little-endian complex128 in format version 2.  Both directions stream
# one state at a time: no buffer holds the whole file.


def write_trajectory(traj, path):
    """Write traj in format version 2, whole or not at all (write_atomic)."""
    geom = traj.geometry

    def write(fh):
        fh.write(TRAJECTORY_MAGIC + struct.pack("<II", 2, geom.d))
        fh.write(np.asarray(geom.thetas, dtype="<f8"))
        fh.write(np.asarray(geom.grid, dtype="<u4"))
        fh.write(struct.pack("<dQ", traj.coupling, len(traj.times)))
        fh.write(np.ascontiguousarray(traj.times, dtype="<f8"))
        for st in traj.states:
            fh.write(np.ascontiguousarray(st.coeffs, dtype="<c16"))

    write_atomic(path, write, "trajectory")


def read_trajectory(path):
    """The trajectory stored at path in format version 2, read one state at
    a time into its own array.  The file's length (os.fstat) must be the one
    its header implies before the payload is read, and a read that comes
    back short (a file cut while it is read) is an error too."""
    try:
        with open(path, "rb") as fh:
            return _read_trajectory(fh, path, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise OSError("cannot read trajectory from %s: %s" % (path, exc)) from exc


def _read_trajectory(fh, path, size):
    def need(n, exact=False):
        if size < n or (exact and size != n):
            raise ValueError("trajectory file %s: its header implies %s%d bytes, found %d"
                             % (path, "" if exact else "at least ", n, size))

    def read_into(a):
        if fh.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
            raise ValueError("trajectory file %s: short read at byte %d" % (path, fh.tell()))
        return a

    def read(fmt):
        return struct.unpack(fmt, read_into(np.empty(struct.calcsize(fmt), np.uint8)))

    if fh.read(8) != TRAJECTORY_MAGIC:
        raise ValueError("bad magic in %s" % path)
    need(16)
    version, d = read("<II")
    if version != 2:
        raise ValueError("unsupported trajectory format version %d" % version)
    need(16 + 12 * d + 16)
    thetas, grid = read("<%dd" % d), read("<%dI" % d)
    coupling, nt = read("<dQ")
    need(16 + 12 * d + 16 + nt * (8 + 16 * math.prod(grid)), exact=True)
    geom = TorusGeometry(d, thetas, grid)
    times = read_into(np.empty(nt, dtype="<f8"))
    states = [SpectralField(geom, read_into(np.empty(grid, dtype="<c16"))) for _ in range(nt)]
    return Trajectory(geom, times, states, coupling)

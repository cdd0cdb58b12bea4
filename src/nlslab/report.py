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
    """Write text (as UTF-8) or bytes to path through a temporary file and
    os.replace, so that path holds the old file or the whole new one, never
    a part."""
    if isinstance(data, str):
        data = data.encode()
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
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
# time, little-endian complex128 in format version 2


def write_trajectory(traj, path):
    """Write traj in format version 2, whole or not at all (write_atomic)."""
    geom = traj.geometry
    data = bytearray(TRAJECTORY_MAGIC)
    data += struct.pack("<II", 2, geom.d)
    data += np.asarray(geom.thetas, dtype="<f8").tobytes()
    data += np.asarray(geom.grid, dtype="<u4").tobytes()
    data += struct.pack("<dQ", traj.coupling, len(traj.times))
    data += np.asarray(traj.times, dtype="<f8").tobytes()
    for st in traj.states:
        data += np.ascontiguousarray(st.coeffs, dtype="<c16").tobytes()
    write_atomic(path, data, "trajectory")


def _check_length(path, data, size, exact=False):
    if len(data) < size or (exact and len(data) != size):
        raise ValueError("trajectory file %s: its header implies %s%d bytes, found %d"
                         % (path, "" if exact else "at least ", size, len(data)))


def read_trajectory(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise OSError("cannot read trajectory from %s: %s" % (path, exc)) from exc
    if data[:8] != TRAJECTORY_MAGIC:
        raise ValueError("bad magic in %s" % path)
    _check_length(path, data, 16)
    version, d = struct.unpack_from("<II", data, 8)
    if version != 2:
        raise ValueError("unsupported trajectory format version %d" % version)
    off = 16 + 12 * d + 16
    _check_length(path, data, off)
    thetas = struct.unpack_from("<%dd" % d, data, 16)
    grid = struct.unpack_from("<%dI" % d, data, 16 + 8 * d)
    coupling, nt = struct.unpack_from("<dQ", data, 16 + 12 * d)
    _check_length(path, data, off + nt * (8 + 16 * math.prod(grid)), exact=True)
    times = np.frombuffer(data, dtype="<f8", count=nt, offset=off).copy()
    off += 8 * nt
    geom = TorusGeometry(d, thetas, grid)
    block = geom.npoints
    states = []
    for _ in range(nt):
        c = np.frombuffer(data, dtype="<c16", count=block, offset=off)
        off += 16 * block
        states.append(SpectralField(geom, c.astype(np.complex128).reshape(geom.grid)))
    return Trajectory(geom, times, states, coupling)

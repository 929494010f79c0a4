"""Artifacts agree across the CPU kernels of numpy's bundled OpenBLAS.

OpenBLAS built with DYNAMIC_ARCH picks its kernels by CPU at load time, and
``OPENBLAS_CORETYPE`` makes it pick another CPU's kernels, in a fresh
process.  Each kernel runs one small artifact set in a subprocess that
reads the core name back from the library, so a variable that is not
honoured fails the test rather than compare one kernel with itself.
"""

import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hecke_sphere
from hecke_sphere.moments import CLOSURE_TOL

#: relative tolerance of every float field across kernels
RTOL = 1e-13

ARGVS = (["spectral", "--n-range", "4:24:4"],
         ["moments", "--n", "64", "--grid", "500", "--seed", "7"],
         ["theta-identity", "--n", "12", "--cutoff", "40"])

#: prints the core name of the OpenBLAS at argv[1], then runs every argv
RUNNER = """
import ctypes, json, sys
import numpy
from hecke_sphere.cli import main
lib = ctypes.CDLL(sys.argv[1])
lib.scipy_openblas_get_corename64_.argtypes = []
lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
print(lib.scipy_openblas_get_corename64_().decode())
sys.exit(max(main(argv + ["--out", "out"]) for argv in json.loads(sys.argv[2])))
"""


def _openblas():
    """numpy's bundled libscipy_openblas64_, or None."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*"))
    return libs[0] if libs else None


def _kernels():
    """None (auto-detected), Nehalem, and Haswell where the CPU has AVX2."""
    cpu = Path("/proc/cpuinfo")
    avx2 = cpu.exists() and " avx2" in cpu.read_text()
    return [None, "Nehalem"] + (["Haswell"] if avx2 else [])


def _fields(root: Path):
    """Every artifact value under ``root`` by (file, path) key."""
    out = {}
    for path in sorted(root.rglob("*.json")):
        def walk(key, v):
            if isinstance(v, dict):
                for k, x in v.items():
                    walk(key + (k,), x)
            elif isinstance(v, list):
                for i, x in enumerate(v):
                    walk(key + (i,), x)
            else:
                out[key] = v
        walk((path.name,), json.loads(path.read_text()))
    for path in sorted(root.rglob("*.csv")):
        rows = list(csv.reader(path.open()))
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                out[path.name, i, j] = cell
    return out


def _value(v):
    """A CSV cell as an int or float where it reads as one."""
    if isinstance(v, str):
        for kind in (int, float):
            try:
                return kind(v)
            except ValueError:
                pass
    return v


def _worst_move(ref: dict, got: dict) -> tuple:
    """(relative move, key) of the float field that moved most; floats
    within ``RTOL`` relative, every other field exactly, else AssertionError."""
    assert got.keys() == ref.keys()
    worst = (0.0, None)
    for key, a in ref.items():
        a, b = _value(a), _value(got[key])
        if key[-1] == "closure_error":
            # a roundoff measure: held to its own gate, not compared
            assert a < CLOSURE_TOL and b < CLOSURE_TOL, key
        elif isinstance(a, float) or isinstance(b, float):
            move = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            assert move <= RTOL, (key, a, b)
            if move > worst[0]:
                worst = (move, key)
        else:
            assert type(a) is type(b) and a == b, (key, a, b)
    return worst


def test_artifacts_agree_across_openblas_kernels(tmp_path):
    lib = _openblas()
    if lib is None or platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("needs numpy's bundled OpenBLAS on x86-64")
    src = str(Path(hecke_sphere.__file__).parents[1])
    runs = []
    for core in _kernels():
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([src] + [env["PYTHONPATH"]] * (
            "PYTHONPATH" in env))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        cwd = tmp_path / (core or "auto")
        cwd.mkdir()
        runs.append((core, cwd, subprocess.Popen(
            [sys.executable, "-c", RUNNER, str(lib), json.dumps(ARGVS)],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)))
    fields = []
    for core, cwd, proc in runs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        name = stdout.split()[0]
        assert core is None or name.lower() == core.lower(), (core, name)
        fields.append(_fields(cwd / "out"))
    assert {key[0] for key in fields[0]} == {
        *(f"spectral-{n}.json" for n in range(4, 25, 4)), "moments-64.json",
        "moments.csv", "theta-identity.csv"}
    for got in fields[1:]:
        _worst_move(fields[0], got)

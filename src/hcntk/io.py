"""CSV/JSON serialization with lossless float round-trip (17 significant digits),
and the run environment that summary files record."""

import csv
import functools
import json
import os
import sys

import numpy as np


def fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def write_matrix_csv(path, matrix):
    """Dense matrix as full-square row-major CSV."""
    m = np.asarray(matrix)
    write_csv(path, [f"c{j}" for j in range(m.shape[1])], m.tolist())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_json(path, obj):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def environment():
    """Versions, BLAS/LAPACK build and thread settings of this process, for summary files.

    Eigenvalue and training bits depend on these. The BLAS and LAPACK
    names and versions come from ``numpy.show_config(mode="dicts")`` and
    read "unknown" where numpy (older than 1.25) cannot report them; a
    thread variable that is not set reads None. Computed once per process.
    """
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        deps = {}
    libs = {name: {key: deps.get(name, {}).get(key, "unknown") for key in ("name", "version")}
            for name in ("blas", "lapack")}
    return {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
        **libs,
        "thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def read_json(path):
    with open(path) as fh:
        return json.load(fh)

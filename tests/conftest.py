import csv

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return a + a.T


def random_psd(rng, n, rank=None):
    r = rank or n
    j = rng.standard_normal((n, r))
    return j @ j.T


def read_csv(path):
    """(header, rows) of a CSV file, every cell as written."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows

import glob
import os
import random
import shutil

import numpy as np
import pytest

from fastecpp import cert, cm, disc, prover
from fastecpp.errors import CompositeDetected

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_CERT_PATH = os.path.join(DATA_DIR, "cert_10pow20.txt")


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fastecpp-cache"))


@pytest.fixture(scope="session")
def table2000():
    return disc.class_number_table(2000)


@pytest.fixture(scope="session")
def discs2000(table2000):
    """(D, h(D)) for every fundamental -2000 <= D < 0, by increasing |D|."""
    return [(-int(x), int(table2000._h[x])) for x in np.nonzero(table2000._h)[0]]


@pytest.fixture(scope="session")
def product_2_20(env):
    return env.products[0]


@pytest.fixture(scope="session")
def env(cache_dir):
    """Shared tables for proving runs (class numbers, prime products)."""
    config = prover.ProveConfig(cache_dir=cache_dir)
    environment = prover.Environment(config)
    environment.ensure_table(1 << 20)
    environment.ensure_products(1 << 20)
    return environment


@pytest.fixture(scope="session")
def golden_text():
    with open(GOLDEN_CERT_PATH, "r", encoding="ascii") as f:
        return f.read()


def _bad_poly_cache(tmp_path_factory, env, cert_name, level, d, h):
    """A cache directory whose class polynomial for D is wrong at `level`.

    The file is a valid cache envelope holding a seeded random monic
    polynomial of degree h(D) with no root modulo that level's N of the
    pinned chain, so it passes every load check; the class-number table
    and the prime product are copied from the shared cache.  Returns
    (directory, level's N).
    """
    with open(os.path.join(DATA_DIR, cert_name), encoding="ascii") as f:
        step = cert.parse(f.read()).steps[level]
    assert step.d == d and env.table.class_number(d) == h
    rng = random.Random(0)
    while True:
        poly = cm.ClassPolynomial(d, [rng.randrange(step.n) for _ in range(h)] + [1])
        try:
            cm.root_mod(poly, step.n, random.Random(0))
        except CompositeDetected as exc:
            assert exc.reason == "class-poly-has-no-root"
            break
    path = str(tmp_path_factory.mktemp("bad-poly-cache"))
    for name in glob.glob(os.path.join(env.config.cache_dir, "class_numbers_*.bin")) + glob.glob(
        os.path.join(env.config.cache_dir, "prime_product_*.bin")
    ):
        shutil.copy(name, path)
    w = max((c.bit_length() + 8) // 8 for c in poly.coeffs)
    payload = b"".join(c.to_bytes(w, "little", signed=True) for c in poly.coeffs)
    prover._cache_save(path, f"class_poly_{-d}", payload)
    return path, step.n


@pytest.fixture(scope="session")
def bad_poly_cache(tmp_path_factory, env):
    """Wrong class polynomial for D = -6532 (h = 16), level 1 of the
    pinned 10^100 chain."""
    return _bad_poly_cache(tmp_path_factory, env, "cert_10pow100.txt", 1, -6532, 16)


@pytest.fixture(scope="session")
def bad_poly_cache_level0(tmp_path_factory, env):
    """Wrong class polynomial for D = -87235 (h = 36), level 0 of the
    pinned 10^50 chain: the failure is on the subject itself."""
    return _bad_poly_cache(tmp_path_factory, env, "cert_10pow50.txt", 0, -87235, 36)

import glob
import os
import random
import shutil

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


@pytest.fixture(scope="session")
def bad_poly_cache(tmp_path_factory, env):
    """A cache directory whose class polynomial for D = -6532 is wrong.

    D = -6532 is the discriminant of level 1 of the pinned 10^100 chain.
    The file is a valid cache envelope holding a seeded random monic
    polynomial of degree h(-6532) = 16 with no root modulo that level's N,
    so it passes every load check; the class-number table and the prime
    product are copied from the shared cache.  Returns (directory, level-1 N).
    """
    with open(os.path.join(DATA_DIR, "cert_10pow100.txt"), encoding="ascii") as f:
        level1 = cert.parse(f.read()).steps[1]
    assert level1.d == -6532
    rng = random.Random(0)
    while True:
        poly = cm.ClassPolynomial(-6532, [rng.randrange(level1.n) for _ in range(16)] + [1])
        try:
            cm.root_mod(poly, level1.n, random.Random(0))
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
    prover._cache_save(path, "class_poly_6532", payload)
    return path, level1.n

import os
import random
import re
import shutil
import time

import pytest

from fastecpp import cert, disc, prover
from fastecpp.errors import CompositeDetected, GiveUp
from fastecpp.numth import is_probable_prime, is_strong_witness


def test_select_params():
    config = prover.ProveConfig()
    p = prover.select_params((1 << 512) + 9, config=config)
    assert p.dmax == 1 << 20
    assert p.b == 1 << 20
    # the worker count is accepted and ignored
    assert prover.select_params((1 << 512) + 9, 8, config) == p
    assert prover.select_params((1 << (1 << 15)) + 9, config=config).dmax == 1 << 20


def test_expected_candidates_single_disc():
    # lone D = -3 at L = 1000, B = 2^20: about 0.041 expected survivors
    entry = disc.Disc(-3, 1, 0, (-3,))
    est = prover.expected_candidates([entry], 1000, 1 << 20)
    assert abs(est - 0.0411) < 2e-3


def test_choose_k_thresholds():
    n = (1 << 1000) + 9
    entry = disc.Disc(-3, 1, 0, (-3,))
    # a single reachable discriminant can never reach the target
    assert prover.choose_k(n, [entry], 1 << 20) is None
    # large pool, listed out of rank order: k is the fewest ranks whose
    # discriminants reach 3 expected survivors
    pool = [disc.Disc(-3 - 4 * i, 1, i, ()) for i in range(4000)]
    k = prover.choose_k(n, pool[::-1], 1 << 20)
    assert k is not None

    def mass(ranks):
        return prover.expected_candidates([e for e in pool if e.rank < ranks], 1001, 1 << 20)

    assert mass(k - 1) < 3.0 <= mass(k)


def test_choose_k_empty_pool():
    assert prover.choose_k((1 << 100) + 3, [], 1 << 20) is None


@pytest.mark.parametrize("b_bits, ok", [(9, False), (10, True), (24, True), (25, False)])
def test_config_b_bits_range(b_bits, ok):
    """B is 2^10..2^24 for `prove`, as for `stats.sample`."""
    config = prover.ProveConfig(b_bits=b_bits)
    if ok:
        config.validate()
    else:
        with pytest.raises(ValueError, match="b_bits out of range"):
            config.validate()
        with pytest.raises(ValueError, match="b_bits out of range"):
            prover.prove(97, config)


def test_quartic_floor_examples():
    # N = 13: N' = 7 is below (13^(1/4) + 1)^2 = 8.43
    assert not cert.exceeds_quartic_floor(7, 13)
    assert cert.exceeds_quartic_floor(10**6, 10**20) is False
    assert cert.exceeds_quartic_floor(10**11, 10**20) is True


def test_prove_terminal_cases(env):
    c = prover.prove(97, env.config, env)
    assert c.steps == [] and c.terminal == 97
    assert cert.verify(c).accepted
    assert prover.prove(2, env.config, env).terminal == 2


def test_prove_rejects_composites(env):
    with pytest.raises(CompositeDetected):
        prover.prove(91, env.config, env)
    with pytest.raises(CompositeDetected) as exc:
        prover.prove(10**50, env.config, env)
    assert exc.value.factor == 2
    with pytest.raises(ValueError):
        prover.prove(1, env.config, env)


def test_prove_rejects_large_semiprime(env):
    p = prover.first_probable_prime_after(1 << 40)
    q = prover.first_probable_prime_after(p)
    with pytest.raises(CompositeDetected) as exc:
        prover.prove(p * q, env.config, env)
    assert exc.value.reason == "mr-witness" and exc.value.factor is None
    assert is_strong_witness(p * q, exc.value.witness)


def test_subject_small_prime_factor_is_a_factor(env):
    with pytest.raises(CompositeDetected) as exc:
        prover.prove(91, env.config, env)
    assert exc.value.factor == 7 and exc.value.witness is None


def test_golden_regression_and_determinism(cache_dir, golden_text, env):
    """Same (input, seed) must reproduce the frozen bytes."""
    config = prover.ProveConfig(seed=0, cache_dir=cache_dir)
    c = prover.prove(10**20 + 39, config, env)
    assert cert.serialize(c) == golden_text


def test_pool_order_is_not_a_decision(monkeypatch, cache_dir, golden_text, env):
    """The pool reversed gives the pinned certificates: a step tries its
    candidates by ascending N', so no decision may read the pool's order."""
    enumerate_pool_discs = disc.enumerate_pool_discs
    monkeypatch.setattr(disc, "enumerate_pool_discs",
                        lambda *args: enumerate_pool_discs(*args)[::-1])
    with open(os.path.join(os.path.dirname(__file__), "data", "cert_10pow50.txt"),
              encoding="ascii") as f:
        pinned50 = f.read()
    config = prover.ProveConfig(seed=0, cache_dir=cache_dir)
    assert cert.serialize(prover.prove(10**20 + 39, config, env)) == golden_text
    n50 = prover.first_probable_prime_after(10**50)
    assert cert.serialize(prover.prove(n50, config, env)) == pinned50


def _flip_payload_byte(blob: bytes, offset: int, mask: int) -> bytes:
    out = bytearray(blob)
    out[blob.index(b"\n") + 1 + offset] ^= mask
    return bytes(out)


@pytest.mark.parametrize("name, damage", [
    # h(-1235) = 12 is entry 1235 of the int32 table: 12 -> 76 > _HMAX
    ("class_numbers_1048576", lambda blob: _flip_payload_byte(blob, 4 * 1235, 0x40)),
    ("prime_product_1_1048576",
     lambda blob: _flip_payload_byte(blob, (len(blob) - blob.index(b"\n")) // 2, 0xFF)),
    # D = -1235 is the golden step's discriminant
    ("class_poly_1235", lambda blob: blob[:-5]),
], ids=["table", "product", "poly"])
def test_damaged_cache_keeps_golden(tmp_path, golden_text, env, name, damage):
    """A damaged cache file must be recomputed and rewritten, never used."""
    for kept in ("class_numbers_1048576", "prime_product_1_1048576"):
        shutil.copy(os.path.join(env.config.cache_dir, kept + ".bin"), tmp_path)
    config = prover.ProveConfig(seed=0, cache_dir=str(tmp_path))
    writer = prover.Environment(config)
    writer.ensure_table(1 << 20)
    writer.class_poly(-1235)
    path = tmp_path / (name + ".bin")
    good = path.read_bytes()
    path.write_bytes(damage(good))
    c = prover.prove(10**20 + 39, config, prover.Environment(config))
    assert cert.serialize(c) == golden_text
    assert path.read_bytes() == good


def test_cache_envelope_rejects_damaged_files(tmp_path):
    cache = str(tmp_path)
    payload = bytes(range(256)) * 3
    prover._cache_save(cache, "k1", payload)
    prover._cache_save(cache, "k2", payload)
    path = tmp_path / "k1.bin"
    blob = path.read_bytes()
    assert blob.startswith(b"FECPP-CACHE 1 k1 768 ")
    assert sorted(os.listdir(cache)) == ["k1.bin", "k2.bin"]
    assert prover._cache_load(cache, "k1") == payload
    assert prover._cache_load(cache, "absent") is None
    assert prover._cache_load(None, "k1") is None
    # the version-1 class-polynomial file of D = -23: magic, version
    # byte, "D count", then length-prefixed signed coefficients
    coeffs = [12771880859375, -5151296875, 3491750, 1]
    old_v1 = b"FECPP-HCP\x01-23 4\n" + b"".join(
        len(raw).to_bytes(4, "little") + raw
        for raw in (c.to_bytes((c.bit_length() + 8) // 8, "little", signed=True) for c in coeffs)
    )
    for damaged in (
        _flip_payload_byte(blob, 100, 0x10),
        blob[:-1],
        blob + b"\x00",
        (tmp_path / "k2.bin").read_bytes(),
    ):
        path.write_bytes(damaged)
        assert prover._cache_load(cache, "k1") is None
    (tmp_path / "class_poly_23.bin").write_bytes(old_v1)
    assert prover._cache_load(cache, "class_poly_23") is None


def test_certificates_independent_of_workers(cache_dir, golden_text, env):
    """`workers` is ignored: 1, 2 and 8 give the pinned certificates."""
    with open(os.path.join(os.path.dirname(__file__), "data", "cert_10pow50.txt"),
              encoding="ascii") as f:
        pinned50 = f.read()
    n50 = prover.first_probable_prime_after(10**50)
    for w in (1, 2, 8):
        config = prover.ProveConfig(workers=w, seed=0, cache_dir=cache_dir)
        assert cert.serialize(prover.prove(10**20 + 39, config, env)) == golden_text, w
        assert cert.serialize(prover.prove(n50, config, env)) == pinned50, w


def test_intermediate_failure_gives_up(bad_poly_cache, env):
    """A wrong cached class polynomial at level 1 is no verdict on the subject."""
    path, level1_n = bad_poly_cache
    config = prover.ProveConfig(seed=0, cache_dir=path)
    fresh = prover.Environment(config)
    fresh.table, fresh.products = env.table, env.products
    with pytest.raises(GiveUp) as exc:
        prover.prove(10**100 + 267, config, fresh)
    assert isinstance(exc.value.__cause__, CompositeDetected)
    assert exc.value.__cause__.n == level1_n


def test_subject_failure_without_factor_gives_up(bad_poly_cache_level0, env):
    """A wrong cached class polynomial at level 0 is no verdict either:
    root_mod's failure on the subject carries no factor."""
    path, level0_n = bad_poly_cache_level0
    config = prover.ProveConfig(seed=0, cache_dir=path)
    fresh = prover.Environment(config)
    fresh.table, fresh.products = env.table, env.products
    n = prover.first_probable_prime_after(10**50)
    assert n == level0_n
    with pytest.raises(GiveUp) as exc:
        prover.prove(n, config, fresh)
    cause = exc.value.__cause__
    assert isinstance(cause, CompositeDetected)
    assert cause.n == n and cause.reason == "class-poly-has-no-root"


@pytest.mark.parametrize("factor, verdict", [
    (100000000003, True),      # a proper factor of n
    (None, False),
    (1, False),
    (100000000003 * 1000000000039, False),  # n itself
    (100000000019, False),     # does not divide n
])
def test_only_a_proper_factor_is_a_verdict(monkeypatch, env, factor, verdict):
    n = 100000000003 * 1000000000039

    def failing_step(current, *args, **kwargs):
        raise CompositeDetected("gcd-factor", factor=factor, n=current)

    monkeypatch.setattr(prover, "run_step", failing_step)
    monkeypatch.setattr(prover, "compositeness_witness", lambda *args, **kwargs: None)
    expected = CompositeDetected if verdict else GiveUp
    with pytest.raises(expected):
        prover.prove(n, env.config, env)


def test_prove_seed_sensitivity_still_verifies(cache_dir, env):
    config = prover.ProveConfig(seed=12345, cache_dir=cache_dir)
    c, report = prover.prove_with_report(10**20 + 39, config, env)
    assert cert.verify(c).accepted
    assert c.subject == 10**20 + 39
    assert report.steps and report.wall_seconds > 0
    gains = report.bit_gains()
    assert all(g >= 1 for g in gains)
    # chain monotonicity and the soundness floor, re-derived from the chain
    for s in c.steps:
        assert s.nprime < s.n
        assert cert.exceeds_quartic_floor(s.nprime, s.n)


def test_report_text_shape(cache_dir, env):
    config = prover.ProveConfig(seed=7, cache_dir=cache_dir)
    _, report = prover.prove_with_report(10**20 + 39, config, env)
    text = report.to_text()
    assert text.startswith("fastecpp run report v1\n")
    assert "substep cornacchia" in text and "percent=" in text
    assert "mean_bit_gain_per_step" in text


def test_substeps_cover_wall_time():
    """With a fresh Environment the tables are built inside the prove, under
    `setup`.  The timed blocks are disjoint, so they add up to at most the
    wall time, and what lies between them is small."""
    config = prover.ProveConfig(seed=0)
    _, report = prover.prove_with_report(10**20 + 39, config, prover.Environment(config))
    assert {"setup", "subject", "verify"} <= report.substep_seconds.keys()
    total = sum(report.substep_seconds.values())
    assert 0.95 * report.wall_seconds <= total <= report.wall_seconds


def test_timed_keeps_the_time_of_a_block_that_raises():
    report = prover.RunReport()
    with pytest.raises(ZeroDivisionError):
        with report.timed("rootmod"):
            time.sleep(0.01)
            1 / 0
    assert report.substep_seconds["rootmod"] >= 0.01


def test_progress_line_shows_time_since_the_last_line(capsys):
    report = prover.RunReport(verbose=True)
    report.substep_seconds.update(mr=1.0, point=0.25)
    report.progress("step 0 round 1 mr", "mr", tested=3, retained="none")
    report.substep_seconds.update(mr=1.5, point=2.0)
    report.progress("step 0 round 2 mr", "mr", tested=5, retained=11)
    assert capsys.readouterr().err == (
        "step 0 round 1 mr: tested=3 retained=none mr=1.000s\n"
        "step 0 round 2 mr: tested=5 retained=11 mr=0.500s\n"
    )
    prover.RunReport().progress("step 0 phase2", "point", D=-3)
    assert capsys.readouterr().err == ""


def test_give_up_on_starved_config(monkeypatch, env, capsys):
    """A provably empty pool must end in GiveUp, not loop or fabricate.

    |D| capped at 16 with square-free parts and h = 1 leaves the
    candidates -3, -4, -7, -8, -11; pick n for which none splits.  The
    pool falls short of the survivor target, so k is all 128 signed
    primes of round 1; the 129th is far above 16, so no later round can
    add a discriminant and the step gives up after round 1 instead of
    walking the ladder up to 4096."""
    from fastecpp.numth import jacobi

    monkeypatch.setattr(prover, "_DMAX", 16)
    monkeypatch.setattr(prover, "_HMAX", 1)
    monkeypatch.setattr(prover, "_MAXPARTS", 1)
    config = prover.ProveConfig(seed=0, cache_dir=env.config.cache_dir, verbose=True)
    n = prover.first_probable_prime_after(1 << 70)
    while any(jacobi(d, n) != -1 for d in (-3, -4, -7, -8, -11)):
        n = prover.first_probable_prime_after(n)
    with pytest.raises(GiveUp, match=f"after the round at {prover._FIRST_ROUND_CAP} signed"):
        prover.prove(n, config)
    err = capsys.readouterr().err
    assert re.findall(r"step 0 round (\d+) roots: k=(\d+) budget=(\d+)", err) == [
        ("1", "128", "128")]
    assert "round 2" not in err


@pytest.mark.parametrize("universe_cap, exhausted", [
    pytest.param(None, False, id="default"),
    pytest.param(32, False, id="universe-cap-32"),
    pytest.param(128, True, id="exhausted-round-1"),
])
def test_rounds_double_the_budget_then_give_up(monkeypatch, capsys, env,
                                               universe_cap, exhausted):
    """With every phase 2 failing, each round doubles the signed-prime
    budget and tries new discriminants, up to the round at the universe
    cap, and then the step gives up.  With the default k = 8 for this n
    that is ten rounds, 8 to 4096.  When round 1 falls short of the
    survivor target at its universe cap, k is that whole universe, so
    round 2 still brings new discriminants.  With h <= 8 and one part, the
    highest of the first 32 signed primes of this n that is a discriminant
    on its own has rank 20, so k = 21 would leave ranks 21..31 to round 2,
    which would try none of them.  That narrow pool has no new
    discriminant past 512 signed primes, so this case stops the ladder at
    128, three rounds."""
    monkeypatch.setattr(prover, "_phase2", lambda *args: None)
    if universe_cap is not None:
        monkeypatch.setattr(prover, "_UNIVERSE_CAP", universe_cap)
    if exhausted:
        monkeypatch.setattr(prover, "_FIRST_ROUND_CAP", 32)
        monkeypatch.setattr(prover, "_survivor_weight", lambda *args: 0.0)
        monkeypatch.setattr(prover, "_HMAX", 8)
        monkeypatch.setattr(prover, "_MAXPARTS", 1)
    config = prover.ProveConfig(seed=0, verbose=True, cache_dir=env.config.cache_dir)
    n = prover.first_probable_prime_after(10**30)
    with pytest.raises(GiveUp, match=f"after the round at {prover._UNIVERSE_CAP} "):
        prover.prove(n, config, env)
    err = capsys.readouterr().err
    k = [int(x) for x in re.findall(r"round 1 roots: k=(\d+)", err)]
    budgets = [int(x) for x in re.findall(r"roots: k=\d+ budget=(\d+)", err)]
    discs = [int(x) for x in re.findall(r"cornacchia: discs=(\d+)", err)]
    assert len(k) == 1
    if exhausted:
        assert k[0] == prover._FIRST_ROUND_CAP
    if universe_cap is None and not exhausted:
        assert k[0] == 8 and len(budgets) == 10
    # one round per rung of the ladder k, 2k, 4k, ... up to the cap
    ladder = [k[0]]
    while ladder[-1] < prover._UNIVERSE_CAP:
        ladder.append(min(2 * ladder[-1], prover._UNIVERSE_CAP))
    assert budgets == ladder
    assert len(discs) == len(budgets) and min(discs) > 0


def test_first_probable_prime_after():
    assert prover.first_probable_prime_after(10**20) == 10**20 + 39
    # derived: every odd value in between is composite
    for x in range(10**20 + 1, 10**20 + 39, 2):
        assert not is_probable_prime(x, 32, random.Random(x))
    assert prover.first_probable_prime_after(1) == 2
    assert prover.first_probable_prime_after(2) == 3


def test_mean_gain_tracks_log2b(cache_dir, env):
    """Single-proof smoke version of the 20-proof acceptance statistic."""
    config = prover.ProveConfig(seed=0, cache_dir=cache_dir)
    n = prover.first_probable_prime_after(10**30)
    c, report = prover.prove_with_report(n, config, env)
    assert cert.verify(c).accepted
    gains = report.bit_gains()
    assert sum(gains) / len(gains) >= config.b_bits


def test_composite_nprime_that_passes_gives_up(monkeypatch, capsys, cache_dir, env):
    """An intermediate N' gets fewer Miller-Rabin rounds than the subject.
    If a composite N' passed them all, it becomes the next step's modulus:
    the proof gives up there (exit 3) and no certificate is written."""
    from fastecpp import cli
    from fastecpp.numth import DETERMINISTIC_THRESHOLD

    n = prover.first_probable_prime_after(10**40)
    real = prover.is_probable_prime
    faked = []

    def passes_one_composite(m, rounds=64, rng=None):
        result = real(m, rounds, rng)
        if not result and not faked and m >= DETERMINISTIC_THRESHOLD:
            faked.append(m)
            return True
        return result

    monkeypatch.setattr(prover, "is_probable_prime", passes_one_composite)
    config = prover.ProveConfig(seed=0, cache_dir=cache_dir)
    with pytest.raises(GiveUp):
        prover.prove(n, config, env)
    assert len(faked) == 1 and faked[0] < n and not real(faked[0])

    faked.clear()
    assert cli.main(["prove", str(n), "--quiet", "--cache-dir", cache_dir]) == 3
    captured = capsys.readouterr()
    assert len(faked) == 1
    assert captured.out == "" and "give-up:" in captured.err and "composite:" not in captured.err

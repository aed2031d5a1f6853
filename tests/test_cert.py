import random

import pytest

from fastecpp import cert
from fastecpp.cert import Certificate, CertStep
from fastecpp.errors import CertificateFormatError


def test_golden_parses_verifies_roundtrips(golden_text):
    c = cert.parse(golden_text)
    assert len(c.steps) == 1
    assert c.subject == 10**20 + 39
    assert cert.verify(c).accepted
    assert cert.serialize(c) == golden_text


def test_zero_step_certificate():
    c = Certificate([], 97)
    assert cert.verify(c).accepted
    text = cert.serialize(c)
    assert cert.parse(text) == c
    assert cert.parse(text).subject == 97


def test_terminal_must_be_prime_and_small():
    assert not cert.verify(Certificate([], 91)).accepted
    assert not cert.verify(Certificate([], 1)).accepted
    res = cert.verify(Certificate([], (1 << 64) + 13))
    assert not res.accepted and res.reason == "bad-terminal"


def test_tamper_y_coordinate(golden_text):
    c = cert.parse(golden_text)
    s = c.steps[0]
    bad = CertStep(s.n, s.d, s.t, s.m, s.c, s.nprime, s.a, s.b, s.px, (s.py + 1) % s.n)
    assert cert.verify_step(bad).reason == "off-curve"


def test_tamper_swap_c_nprime(golden_text):
    c = cert.parse(golden_text)
    s = c.steps[0]
    bad = CertStep(s.n, s.d, s.t, s.m, s.nprime, s.c, s.a, s.b, s.px, s.py)
    res = cert.verify_step(bad)
    assert not res.accepted
    assert res.reason in ("small-nprime", "bad-cofactor")


def test_tamper_discriminant_bound(golden_text):
    # D is bound through 4N - t^2 = |D| v^2
    c = cert.parse(golden_text)
    s = c.steps[0]
    bad = CertStep(s.n, s.d - 4, s.t, s.m, s.c, s.nprime, s.a, s.b, s.px, s.py)
    assert cert.verify_step(bad).reason == "bad-discriminant"


def test_tamper_linkage(golden_text):
    c = cert.parse(golden_text)
    c.terminal += 2
    res = cert.verify(c)
    assert not res.accepted and res.reason == "linkage"


def test_reject_small_nprime():
    # honest-looking numbers with nprime below the quartic-root floor
    s = CertStep(n=1009, d=-3, t=2, m=1008, c=144, nprime=7, a=1, b=1, px=0, py=1)
    res = cert.verify_step(s)
    assert not res.accepted


def test_verify_reports_lowest_failing_step(golden_text):
    c = cert.parse(golden_text)
    s = c.steps[0]
    bad = CertStep(s.n, s.d, s.t, s.m, s.c, s.nprime, s.a, s.b, s.px, (s.py + 1) % s.n)
    chain = Certificate([bad], c.terminal)
    res = cert.verify(chain)
    assert res.step_index == 0 and res.reason == "off-curve"


# ---------------------------------------------------------------------------
# parser strictness


def test_parse_rejects_unknown_version(golden_text):
    text = golden_text.replace("v1", "v9")
    with pytest.raises(CertificateFormatError) as exc:
        cert.parse(text)
    assert exc.value.line == 1


def test_parse_rejects_truncation(golden_text):
    lines = golden_text.splitlines()
    with pytest.raises(CertificateFormatError):
        cert.parse("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CertificateFormatError):
        cert.parse(golden_text.rstrip("\n"))  # missing trailing newline


def test_parse_rejects_bad_keys_and_whitespace(golden_text):
    with pytest.raises(CertificateFormatError) as exc:
        cert.parse(golden_text.replace("D=", "E="))
    assert exc.value.line == 3
    with pytest.raises(CertificateFormatError):
        cert.parse(golden_text.replace(" c=", "  c="))
    with pytest.raises(CertificateFormatError):
        cert.parse(golden_text.replace("terminal ", "terminal  "))


def test_parse_rejects_non_canonical_integers(golden_text):
    with pytest.raises(CertificateFormatError):
        cert.parse(golden_text.replace("t=", "t=0"))
    c = cert.parse(golden_text)
    with pytest.raises(CertificateFormatError):
        cert.parse(cert.serialize(c).replace(f"terminal {c.terminal}", "terminal +7"))


def test_parse_rejects_integer_above_digit_limit(golden_text):
    """int(str) refuses more than 4300 digits by default; the parser turns
    that into a format error on the field's line, not a ValueError."""
    c = cert.parse(golden_text)
    text = cert.serialize(c).replace(f"terminal {c.terminal}", "terminal " + "1" * 5000)
    with pytest.raises(CertificateFormatError) as exc:
        cert.parse(text)
    assert exc.value.line == 3 + len(c.steps) and "terminal" in str(exc.value)


def test_parse_rejects_step_count_mismatch(golden_text):
    with pytest.raises(CertificateFormatError):
        cert.parse(golden_text.replace("steps 1", "steps 2"))


def test_fuzz_single_field_mutations_small(golden_text):
    """100-mutation smoke version of acceptance criterion 8."""
    base = cert.parse(golden_text)
    rng = random.Random(50)
    fields = ["n", "d", "t", "m", "c", "nprime", "a", "b", "px", "py"]
    rejected = 0
    for _ in range(100):
        s = base.steps[0]
        vals = {f: getattr(s, f) for f in fields}
        f = rng.choice(fields)
        delta = rng.choice([1, -1, 2, rng.randrange(3, 1 << 40)])
        vals[f] = vals[f] + delta
        mutated = Certificate([CertStep(**vals)], base.terminal)
        if vals[f] == getattr(s, f):
            continue
        if not cert.verify(mutated).accepted:
            rejected += 1
    assert rejected == 100

import os

import pytest

from fastecpp import cli
from fastecpp.errors import CompositeDetected


def run_cli(argv):
    return cli.main(argv)


def test_parse_number_forms():
    assert cli.parse_number("91") == 91
    assert cli.parse_number("10^20+39") == 10**20 + 39
    assert cli.parse_number("2*3+1") == 7
    assert cli.parse_number("first-prime-after:10^6") == 1000003
    with pytest.raises(ValueError):
        cli.parse_number("import os")
    with pytest.raises(ValueError):
        cli.parse_number("10/3")


def test_prove_composite_exits_1(capsys):
    assert run_cli(["prove", "91", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "composite" in err


def test_prove_intermediate_failure_exits_3(bad_poly_cache, capsys):
    path, _ = bad_poly_cache
    rc = run_cli(["prove", "first-prime-after:10^100", "--quiet", "--cache-dir", path])
    err = capsys.readouterr().err
    assert rc == 3
    assert "give-up:" in err and "composite:" not in err


def test_prove_subject_failure_without_factor_exits_3(bad_poly_cache_level0, capsys):
    path, _ = bad_poly_cache_level0
    rc = run_cli(["prove", "first-prime-after:10^50", "--quiet", "--cache-dir", path])
    err = capsys.readouterr().err
    assert rc == 3
    assert "give-up:" in err and "composite:" not in err
    assert run_cli(["prove", "91", "--quiet"]) == 1


@pytest.mark.parametrize("factor, rc", [(7, 1), (13, 1), (3, 3), (91, 3), (None, 1)])
def test_prove_rechecks_factor_before_composite(monkeypatch, capsys, factor, rc):
    def composite(n, config):
        raise CompositeDetected("gcd-factor", factor=factor, n=n)

    monkeypatch.setattr(cli, "prove_with_report", composite)
    assert run_cli(["prove", "91", "--quiet"]) == rc
    err = capsys.readouterr().err
    assert ("composite: 91" in err) == (rc == 1)


SPSP = 3825123056546413051  # 149491 * 747451 * 34233211, strong pseudoprime to bases 2..31


def test_prove_strong_pseudoprime_names_its_base(capsys):
    assert run_cli(["prove", str(SPSP), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"composite: {SPSP}" in err and "mr-witness (base 37)" in err


@pytest.mark.parametrize("base, rc", [(37, 1), (1, 3), (SPSP - 1, 3), (2, 3), (SPSP, 3)])
def test_prove_rechecks_base_before_composite(monkeypatch, capsys, base, rc):
    def composite(n, config):
        raise CompositeDetected("mr-witness", n=n, witness=base)

    monkeypatch.setattr(cli, "prove_with_report", composite)
    assert run_cli(["prove", str(SPSP), "--quiet"]) == rc
    err = capsys.readouterr().err
    assert (f"composite: {SPSP}" in err) == (rc == 1)
    assert ("give-up:" in err) == (rc == 3)


@pytest.mark.parametrize("argv", [
    ["--b-bits", "5"], ["--b-bits", "-1"], ["--bits", "32"], ["--samples", "0"],
])
def test_stats_sample_bad_arguments_exit_2(capsys, argv):
    assert run_cli(["stats", "--sample", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bench_give_up_exits_3(capsys, cache_dir):
    # no D in {-3, -4, -7, -8, -11} splits for the first prime after 10^44
    rc = run_cli([
        "bench", "44", "--quiet", "--dmax", "16", "--hmax", "1",
        "--maxparts", "1", "--rounds", "2", "--cache-dir", cache_dir,
    ])
    assert rc == 3
    assert "give-up" in capsys.readouterr().err


def test_prove_bad_expression_exits_2():
    assert run_cli(["prove", "not a number", "--quiet"]) == 2


def test_prove_verify_cycle(tmp_path, cache_dir, capsys):
    cert_path = str(tmp_path / "c.txt")
    report_path = str(tmp_path / "r.txt")
    rc = run_cli([
        "prove", "10^20+39", "--quiet", "--seed", "0",
        "--cache-dir", cache_dir, "--cert", cert_path, "--report", report_path,
    ])
    assert rc == 0
    assert os.path.exists(cert_path) and os.path.exists(report_path)
    with open(report_path) as f:
        assert f.read().startswith("fastecpp run report v1")

    assert run_cli(["verify", cert_path]) == 0
    out = capsys.readouterr().out
    assert "ACCEPT 100000000000000000039" in out

    with open(cert_path) as f:
        text = f.read()
    bad_path = str(tmp_path / "bad.txt")
    with open(bad_path, "w") as f:
        f.write(text.replace("py=", "py=1"))
    assert run_cli(["verify", bad_path]) == 1
    out = capsys.readouterr().out
    assert "REJECT" in out and "step 0" in out


def test_verify_missing_and_garbled_files(tmp_path, capsys):
    assert run_cli(["verify", str(tmp_path / "nope.txt")]) == 2
    path = str(tmp_path / "garbled.txt")
    with open(path, "w") as f:
        f.write("not a certificate\n")
    assert run_cli(["verify", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 1" in err


def test_stats_command(capsys, tmp_path):
    assert run_cli(["stats"]) == 0
    out = capsys.readouterr().out
    assert "BOUND" in out and "0.5615" in out

    csv_path = str(tmp_path / "hist.csv")
    rc = run_cli([
        "stats", "--sample", "--bits", "64", "--b-bits", "10",
        "--samples", "1500", "--seed", "3", "--csv", csv_path,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "acceptance rate" in out and "n_prime_conditioned" in out
    with open(csv_path) as f:
        assert f.readline().strip() == "alpha_lo,alpha_hi,count"


def test_bench_empty_prints_header_only(capsys):
    assert run_cli(["bench", "--quiet"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 1 and "digits" in out[0]


def test_bench_single_row(capsys, cache_dir):
    rc = run_cli([
        "bench", "21", "--quiet", "--seed", "0",
        "--cache-dir", cache_dir,
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    cols = lines[1].split()
    assert cols[0] == "21" and cols[1] == "20"
    assert int(cols[2]) >= 1


def test_bench_respects_digit_cap(capsys):
    assert run_cli(["bench", "1200", "--quiet"]) == 2

import os
import re

import pytest

from fastecpp import cert, cli, prover
from fastecpp.errors import CompositeDetected, PrecisionError


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


@pytest.mark.parametrize("factor, rc", [(7, 1), (13, 1), (3, 3), (91, 3), (None, 3)])
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
    ["--b-bits", "25"], ["--b-bits", "41"],
])
def test_stats_sample_bad_arguments_exit_2(capsys, argv):
    assert run_cli(["stats", "--sample", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_bench_composite_without_evidence_exits_3(monkeypatch, capsys):
    def composite(n, config, env):
        raise CompositeDetected("order-check-failed", n=n)

    monkeypatch.setattr(cli, "prove_with_report", composite)
    assert run_cli(["bench", "21", "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "give-up:" in err and "composite:" not in err


def test_bench_give_up_exits_3(monkeypatch, capsys, cache_dir):
    # no D in {-3, -4, -7, -8, -11} splits for the first prime after 10^44
    monkeypatch.setattr(prover, "_DMAX", 16)
    monkeypatch.setattr(prover, "_HMAX", 1)
    monkeypatch.setattr(prover, "_MAXPARTS", 1)
    rc = run_cli(["bench", "44", "--quiet", "--cache-dir", cache_dir])
    assert rc == 3
    assert "give-up" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["prove", "97", "--b-bits", "5"],
    ["prove", "1"],
    ["prove", "0"],
    ["bench", "20", "--b-bits", "5"],
    ["prove", "97", "--b-bits", "25"],
])
def test_bad_search_option_or_small_number_exits_2(capsys, argv):
    assert run_cli([*argv, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["prove", "97", "--hmax", "8"],
    ["prove", "97", "--pmax", "29"],
    ["prove", "97", "--dmax", "16"],
    ["bench", "21", "--maxparts", "3"],
    ["bench", "21", "--max-digits", "50"],
])
def test_removed_search_options_are_refused(capsys, argv):
    """The search shape is fixed: an old command line that sets it fails
    before any proving instead of being ignored."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_prove_bad_expression_exits_2():
    assert run_cli(["prove", "not a number", "--quiet"]) == 2


@pytest.mark.parametrize("expr", ["10^10^10", "2^(2^21)", "10^-5", "__import__('os')",
                                  "2^524000*2^524000*2^524000"])
def test_prove_unbounded_or_foreign_expression_exits_2(capsys, expr):
    assert run_cli(["prove", expr, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_verify_non_ascii_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"fastecpp certificate\n\xff\n")
    assert run_cli(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ") and "Traceback" not in captured.err
    assert "REJECT" not in captured.out


def test_verify_overlong_integer_exits_2(tmp_path, capsys, golden_text):
    path = tmp_path / "long.txt"
    terminal = golden_text.splitlines()[-1]
    path.write_text(golden_text.replace(terminal, "terminal " + "1" * 5000), encoding="ascii")
    assert run_cli(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error: ") and "Traceback" not in captured.err
    assert "REJECT" not in captured.out


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


@pytest.mark.parametrize("digits", [["30", "1200"], ["--", "-3"], ["0"], ["20", "--", "-1"]])
def test_bench_checks_every_digit_count_before_proving(monkeypatch, capsys, digits):
    def never(n, config, env):
        raise AssertionError("proved before the digit counts were checked")

    monkeypatch.setattr(cli, "prove_with_report", never)
    assert run_cli(["bench", "--quiet", *digits]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


PROGRESS = re.compile(r"step \d+ (?:round \d+ )?(\w+): (.*)")
PROGRESS_KEYS = {
    "roots": ["k", "budget", "expected_nprime", "pool", "roots"],
    "cornacchia": ["discs", "hits", "cornacchia"],
    "trialdiv": ["ms", "candidates", "trialdiv"],
    "phase2": ["D", "h", "outcome", "rootmod", "point"],
    "mr": ["tested", "retained", "mr"],
}


def test_prove_progress_lines(monkeypatch, capsys, cache_dir, golden_text):
    attempts = []
    phase2 = prover._phase2

    def counting_phase2(*args):
        attempts.append(args[1])
        return phase2(*args)

    monkeypatch.setattr(prover, "_phase2", counting_phase2)
    assert run_cli(["prove", "10^20+39", "--cache-dir", cache_dir]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden_text
    lines = [m for m in map(PROGRESS.fullmatch, captured.err.splitlines()) if m]
    kinds = "".join({"phase2": "P"}.get(m[1], m[1][0].upper()) for m in lines)
    # per round: roots, cornacchia, trialdiv, each phase-2 attempt, then mr
    assert re.fullmatch(r"(RCTP*M)+", kinds), kinds
    rounds = sum(int(r) for r in re.findall(r"^step index=.* rounds=(\d+) ", captured.err, re.M))
    assert kinds.count("R") == kinds.count("M") == rounds >= 1
    assert kinds.count("P") == len(attempts) >= 1
    for m in lines:
        fields = dict(kv.split("=", 1) for kv in m[2].split())
        assert list(fields) == PROGRESS_KEYS[m[1]]
        if m[1] != "phase2":
            assert float(fields[m[1]].removesuffix("s")) >= 0

    assert run_cli(["prove", "10^20+39", "--quiet", "--cache-dir", cache_dir]) == 0
    captured = capsys.readouterr()
    assert captured.out == golden_text and captured.err == ""


PROVE_AND_BENCH = pytest.mark.parametrize(
    "command", [["prove", "10^20+39"], ["bench", "21"]], ids=["prove", "bench"]
)


@PROVE_AND_BENCH
def test_unusable_cache_dir_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli([*command, "--quiet", "--cache-dir", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _precision_error(self, d):
    raise PrecisionError(f"class polynomial for D={d} did not stabilise")


def _self_verify_reject(certificate):
    return cert.VerifyResult(False, 0, "order-check-failed")


@PROVE_AND_BENCH
@pytest.mark.parametrize("target, fault", [
    (prover.Environment, ("class_poly", _precision_error)),
    (cert, ("verify", _self_verify_reject)),
], ids=["precision-error", "self-verify-reject"])
def test_internal_error_exits_3(monkeypatch, capsys, cache_dir, command, target, fault):
    monkeypatch.setattr(target, *fault)
    assert run_cli([*command, "--quiet", "--cache-dir", cache_dir]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("give-up: ") and "Traceback" not in captured.err
    assert "composite:" not in captured.err and "ACCEPT" not in captured.out

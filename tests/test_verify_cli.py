"""Verify-suite behavior and the command-line interface."""
import json
import subprocess
import sys

import numpy as np
import pytest

from nss import IntegerAlpha, ModelParams, failures, run_all
from nss.cli import main


def run_cli(*args):
    from io import StringIO
    import contextlib
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_passes_at_default_params():
    results = run_all(ModelParams(2.4), seed=0)
    assert failures(results) == []
    assert all(r.status in ("pass", "skipped") for r in results)


def test_suite_deterministic():
    r1 = run_all(ModelParams(2.4), seed=0)
    r2 = run_all(ModelParams(2.4), seed=0)
    assert [(r.name, r.status, r.defect) for r in r1] == \
        [(r.name, r.status, r.defect) for r in r2]


def test_suite_reports_defects_on_pass():
    results = run_all(ModelParams(2.4), seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["pentagon-restricted"].status == "pass"
    assert "skipped" in by_name["pentagon-restricted"].detail
    assert all(np.isfinite(r.defect) for r in results if r.status == "pass")


def test_skips_carry_reason_outside_definite_window():
    results = run_all(ModelParams(5.3), seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["two-qubit-signature"].status == "skipped"
    assert by_name["two-qubit-signature"].detail


def test_integer_alpha_rejected_at_construction():
    with pytest.raises(IntegerAlpha):
        ModelParams(2.0)
    with pytest.raises(IntegerAlpha):
        ModelParams(3.0 + 1e-14)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_model_roundtrip():
    code, out = run_cli("model", "--alpha", "12/5")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == pytest.approx(2.4)
    assert data["d_alpha"] == pytest.approx(-4.0)
    assert data["s"] == -1 and data["t"] == 1
    # complex entries are [re, im] pairs
    assert all(len(v) == 2 for v in data["R"].values())


def test_cli_model_integer_alpha_exit_code():
    code, out = run_cli("model", "--alpha", "3")
    assert code == 3
    assert json.loads(out)["error"] == "IntegerAlpha"


def test_cli_bad_tol_is_a_usage_error():
    # tol is validated before alpha is tested for being integral within it
    code, out = run_cli("model", "--alpha", "12/5", "--tol", "5")
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": "tol must lie in (0, 1)"}


def test_cli_bad_nss_tol_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("NSS_TOL", "abc")
    with pytest.raises(SystemExit) as exc:
        run_cli("model")
    assert exc.value.code == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def test_cli_nss_tol_sets_the_default(monkeypatch):
    monkeypatch.setenv("NSS_TOL", "0.45")  # 12/5 is 0.4 from 2
    code, out = run_cli("model", "--alpha", "12/5")
    assert code == 3 and json.loads(out)["error"] == "IntegerAlpha"


def test_cli_seed_only_on_verify():
    with pytest.raises(SystemExit) as exc:
        run_cli("model", "--seed", "0")
    assert exc.value.code == 2


def test_cli_braid_w_leakage():
    code, out = run_cli("braid", "--alpha", "12/5", "--system", "a,psi,s,s",
                        "--charge", "a", "--word", "b2^2 X b2^2 X b2^-2")
    assert code == 0
    data = json.loads(out)
    assert data["leakage"]["su2"] == pytest.approx(0.832, abs=1e-3)
    assert data["leakage"]["su11"] == pytest.approx(0.904, abs=1e-3)
    assert data["pseudo_unitarity_defect"] < 1e-10
    m = data["matrix"]
    assert len(m) == 4 and len(m[0]) == 4 and len(m[0][0]) == 2


def test_cli_matrix_json_bit_for_bit():
    code, out = run_cli("braid", "--alpha", "2.4", "--system", "a,s,s",
                        "--word", "b2")
    data = json.loads(out)
    from nss.braids import evaluate_word, BraidWord
    from nss.labels import ALPHA, SIGMA
    m = evaluate_word(ModelParams.from_string("2.4"), (ALPHA, SIGMA, SIGMA),
                      BraidWord.parse("b2"))
    for i in range(2):
        for j in range(2):
            assert data["matrix"][i][j][0] == m[i, j].real
            assert data["matrix"][i][j][1] == m[i, j].imag


def test_cli_space_encodings():
    code, out = run_cli("space", "--alpha", "2.4", "--leaves", "a,s,s,s,s")
    data = json.loads(out)
    assert code == 0
    assert data["metric_signs"] == [1, 1, 1, 1, -1, 1]
    assert data["encodings"]["10"] == "(a,s,s,s,s|a-1,a,a+1|a)"
    assert data["computational"] == [True, True, True, True, False, False]


def test_cli_space_decode():
    code, out = run_cli("space", "--alpha", "2.4", "--leaves", "a,s,s,s,s",
                        "--decode", "(a,s,s,s,s|a+1,a+2,a+1|a)")
    data = json.loads(out)
    assert data["decode"] == "noncomputational"


def test_cli_reichardt_csv():
    code, out = run_cli("reichardt", "--alpha", "12/5", "--k", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,su2,su11,ratio_law_defect,theta1,theta2,len"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.832193, abs=1e-5)


def test_cli_search_small():
    code, out = run_cli("search", "--alpha", "12/5", "--max-len", "3",
                        "--threshold", "0.9", "--top", "5")
    assert code == 0
    data = json.loads(out)
    assert data["count"] > 0
    assert all(max(r["su2"], r["su11"]) < 0.9 for r in data["results"])


@pytest.mark.parametrize("arg", [
    "--max-len=0", "--max-len=-3", "--max-power=0", "--jobs=0", "--top=-1",
    "--threshold=nan", "--threshold=inf", "--threshold=-inf"])
def test_cli_search_rejects_bad_parameters(arg):
    code, out = run_cli("search", "--alpha", "12/5", "--max-len", "3", arg)
    assert code == 2
    assert "NaN" not in out and "Infinity" not in out
    assert json.loads(out)["error"] == "ValueError"


def test_cli_verify_exit_zero():
    code, out = run_cli("verify", "--alpha", "2.4", "--seed", "0")
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["fail"] == 0
    assert data["counts"]["pass"] > 10


def test_cli_verify_deterministic_output():
    _, out1 = run_cli("verify", "--alpha", "2.4", "--seed", "0")
    _, out2 = run_cli("verify", "--alpha", "2.4", "--seed", "0")
    assert out1 == out2


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nss.cli", "model", "--alpha", "5/2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha"] == 2.5


def test_cli_out_file(tmp_path):
    target = tmp_path / "dump.json"
    code, out = run_cli("model", "--alpha", "2.4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["alpha"] == 2.4

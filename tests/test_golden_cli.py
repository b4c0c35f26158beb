"""The README's CLI commands print exactly their recorded stdout.

The files under tests/golden/ hold each command's stdout byte for byte;
GOLDEN_COMMANDS is the one list of the commands and their files.
``search`` runs serially and with ``--jobs 4``, and both print
``search.out``.  ``verify_near2`` pins the
verify defects at a second input, 0.01 from the integer end;
``model_11_2`` pins the model where s, t and F[a,s,s;a-2] take the other
sign from 12/5.  ``reichardt_extended_k4`` pins every digit of a deeper
mpmath recursion, whose elementary functions are served from the
namespace's memo.
"""
import contextlib
import io
from pathlib import Path

import pytest

from nss.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

README_COMMANDS = {
    "model": ["model", "--alpha", "12/5"],
    "space": ["space", "--alpha", "2.4", "--leaves", "a,s,s,s,s"],
    "braid": ["braid", "--alpha", "12/5", "--system", "a,psi,s,s", "--charge", "a",
              "--word", "b2^2 X b2^2 X b2^-2"],
    "reichardt_csv": ["reichardt", "--alpha", "12/5", "--k", "3", "--format", "csv"],
    "reichardt_extended": ["reichardt", "--alpha", "12/5", "--k", "3", "--extended"],
    "search": ["search", "--alpha", "12/5", "--max-len", "9", "--threshold", "0.3"],
    "verify": ["verify", "--alpha", "2.4", "--seed", "0"],
}
GOLDEN_COMMANDS = {**README_COMMANDS,
                   "verify_near2": ["verify", "--alpha", "2.01", "--seed", "7"],
                   "model_11_2": ["model", "--alpha", "11/2"],
                   "reichardt_extended_k4": ["reichardt", "--alpha", "12/5", "--k", "4",
                                             "--extended", "--dps", "100"],
                   "search_jobs4": README_COMMANDS["search"] + ["--jobs", "4"]}
# a command that prints the recorded stdout of another
GOLDEN_FILE = {"search_jobs4": "search"}


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", GOLDEN_COMMANDS)
def test_readme_command_stdout_is_golden(name):
    code, out = run_cli(GOLDEN_COMMANDS[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{GOLDEN_FILE.get(name, name)}.out").read_bytes()


@pytest.mark.parametrize("tol", ["0.1", "0.3"])
def test_loose_tol_keeps_model_output(tol):
    # the singularity guard's bound does not grow with --tol: at 12/5 the
    # B[a,psi,a] denominator is 0.19
    code, out = run_cli(README_COMMANDS["model"] + ["--tol", tol])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "model.out").read_bytes()

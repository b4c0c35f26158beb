"""Verify-suite behavior and the command-line interface."""
import cmath
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nss import (IntegerAlpha, ModelParams, braids, bubble_pop, f_matrix, failures, r_symbol,
                 run_all, spaces, verify)
from nss.anyon import (_B_TABLE, _F_FAMILIES, _R_TABLE, FLOAT_NS, _f_blocks, _symbol_stack,
                       f_channels, mp_namespace, q_power)
from nss.braids import (SPECIAL_UNITARY_PHASES, BraidWord, evaluate_word, exchange_closed_form,
                        generator_matrix, matrix_order, wrap_closed_form)
from nss.cli import main
from nss.errors import ModelError, SingularParameter
from nss.labels import ALPHA, SIGMA, VACUUM
from nss.spaces import qubit_space


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


def test_checks_are_the_chk_functions_in_name_order(monkeypatch):
    # the shared rng's draws follow this order
    names = [fn.__name__ for fn in verify._CHECKS]
    assert len(names) == 19
    assert names == sorted(n for n in vars(verify) if n.startswith("_chk_"))
    rng = np.random.default_rng(0)
    for fn in verify._CHECKS:
        res = fn(ModelParams(2.4), rng)
        # the name run_all gives a check that raises
        assert isinstance(res, verify.CheckResult)
        assert res.name == fn.__name__[len("_chk_"):].replace("_", "-")
    # run_all returns the results in _CHECKS order, with no re-sort by name,
    # and fails a check that raises in its place
    k = len(verify._CHECKS) // 2
    name = verify._CHECKS[k].__name__

    def raising(params, rng):
        raise SingularParameter("x")

    raising.__name__ = name
    monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS[:k] + [raising] + verify._CHECKS[k + 1:])
    results = run_all(ModelParams(2.4), seed=0)
    names = [r.name for r in results]
    assert len(names) == 19 and names == sorted(names)
    assert names[k] == name[len("_chk_"):].replace("_", "-")
    assert (results[k].status, results[k].defect, results[k].detail) == (
        "fail", math.inf, "SingularParameter: x")


def test_skips_carry_reason_outside_definite_window():
    results = run_all(ModelParams(5.3), seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["two-qubit-signature"].status == "skipped"
    assert by_name["two-qubit-signature"].detail


def _bubble_sign_oracle(p, ns=FLOAT_NS):
    """The F check's metric signs as products of popped bubbles, each bubble
    popped once per alpha: (family, block) -> (row signs, column signs)."""
    bubbles = {}

    def bubble(*t):
        if t not in bubbles:
            bubbles[t] = bubble_pop(*t, p, ns)
        return bubbles[t]

    def signs(fam, blk):
        # .real: an mpmath bubble may be an mpc with zero imaginary part
        a, b, c, d = fam
        return ([math.copysign(1.0, (bubble(b, c, n) * bubble(a, n, d)).real)
                 for n in blk.rows],
                [math.copysign(1.0, (bubble(a, b, mm) * bubble(mm, c, d)).real)
                 for mm in blk.cols])
    return signs


def _f_pseudo_unitarity_oracle(params, rng):
    """The f-pseudo-unitarity check as one loop over alphas and families,
    with its signs from :func:`_bubble_sign_oracle`."""
    worst_pu = 0.0
    worst_inv = 0.0
    for al in verify._sample_alphas(rng, 100):
        p = ModelParams(float(al), params.tol)
        signs = _bubble_sign_oracle(p)
        for fam in _F_FAMILIES:
            blk = f_matrix(*fam, p)
            if len(blk.rows) != 2:
                continue
            m = np.asarray(blk.matrix, dtype=complex)
            jr, jc = (np.diag(s) for s in signs(fam, blk))
            worst_pu = max(worst_pu, float(np.max(np.abs(m.conj().T @ jr @ m - jc))))
            worst_inv = max(worst_inv, float(np.max(np.abs(m @ blk.inverse() - np.eye(len(blk.rows))))))
    return verify._result("f-pseudo-unitarity", max(worst_pu, worst_inv), 1e-9,
                          "F^dag J_rows F = J_cols and F F^-1 = 1 for the 2x2 families, 100 alphas")


def test_f_pseudo_unitarity_check_matches_per_block_loop():
    alphas = (2.0005, 2.0183, 2.4, 2.9812, 2.9995, 2.01, 2.5, 2.99, 5.3, 2.0101, 2.9899)
    for seed, alpha in enumerate(alphas):
        params = ModelParams(alpha, tol=1e-12 if seed == 3 else 1e-10)
        got = verify._chk_f_pseudo_unitarity(params, np.random.default_rng(seed))
        assert got == _f_pseudo_unitarity_oracle(params, np.random.default_rng(seed))


FAMILIES_2X2 = [f for f in _F_FAMILIES if len(f_channels(*f)[0]) == 2]


def test_f_signs_from_norms_match_bubble_signs():
    assert len(FAMILIES_2X2) == 5
    alphas = np.linspace(2.0005, 2.9995, 201)
    seen = set()
    for fam in FAMILIES_2X2:
        _, _, got = _f_blocks(fam, alphas, 1e-10)
        for al, sg in zip(alphas, got.tolist()):
            p = ModelParams(float(al))
            assert sg == list(_bubble_sign_oracle(p)(fam, f_matrix(*fam, p))), (al, fam)
            seen.update(sg[0] + sg[1])
    assert seen == {-1.0, 1.0}


def test_f_block_signs_match_mp_bubble_signs():
    alphas = np.linspace(2.0005, 2.9995, 51)
    signs = [_f_blocks(fam, alphas, 1e-10)[2].tolist() for fam in FAMILIES_2X2]
    ns = mp_namespace(30)
    for k, al in enumerate(alphas):
        p = ModelParams(float(al))
        oracle = _bubble_sign_oracle(p, ns)
        for fam, sg in zip(FAMILIES_2X2, signs):
            assert sg[k] == list(oracle(fam, f_matrix(*fam, p, ns))), (al, fam)


def _alphas_mod_8(seed):
    """128 alphas in each unit interval mod 8, each shifted by a random
    multiple of 8 in [-16, 16], none nearer than 1e-3 to an integer."""
    rng = np.random.default_rng(seed)
    return np.concatenate([k + 8 * rng.integers(-2, 3, 128) + 1e-3 + 0.998 * rng.random(128)
                           for k in range(8)])


def test_f_blocks_match_f_matrix_bit_for_bit():
    alphas = _alphas_mod_8(17)
    assert sorted(set((alphas // 1 % 8).tolist())) == list(range(8))
    for fam in FAMILIES_2X2:
        blocks, invs, signs = _f_blocks(fam, alphas, 1e-10)
        assert blocks.shape == invs.shape == signs.shape == (1024, 2, 2)
        for al, m, inv, sg in zip(alphas, blocks, invs, signs.tolist()):
            p = ModelParams(float(al))
            blk = f_matrix(*fam, p)
            assert m.tobytes() == blk.matrix.tobytes(), (al, fam)
            assert inv.tobytes() == blk.inverse().tobytes(), (al, fam)
            assert sg == list(_bubble_sign_oracle(p)(fam, blk)), (al, fam)


def test_symbol_stacks_match_bubble_pop_and_r_symbol_bit_for_bit():
    alphas = _alphas_mod_8(23)
    unit = (ALPHA, VACUUM, ALPHA)
    rows = ([("B", bubble_pop, row) for row in (unit,) + tuple(_B_TABLE)]
            + [("R", r_symbol, row) for row in (unit,) + tuple(_R_TABLE)])
    assert len(rows) == 1 + 13 + 1 + 16
    for what, scalar, row in rows:
        stack = _symbol_stack(what, *row, alphas, 1e-10)
        assert stack.shape == alphas.shape
        for al, z in zip(alphas, stack):
            want = scalar(*row, ModelParams(float(al)))
            assert type(z) is type(want), (al, what, row)
            assert np.complex128(z).tobytes() == np.complex128(want).tobytes(), (al, what, row)


def _outcome(check, params, seed):
    try:
        return check(params, np.random.default_rng(seed))
    except ModelError as exc:
        return type(exc).__name__, str(exc)


def test_f_pseudo_unitarity_error_is_the_loops_first():
    # a loose tol makes ModelParams reject a sampled alpha near 2
    params = ModelParams(2.4, tol=0.3)
    for seed in range(3):
        got = _outcome(verify._chk_f_pseudo_unitarity, params, seed)
        assert got[0] == "IntegerAlpha"
        assert got == _outcome(_f_pseudo_unitarity_oracle, params, seed)
    by_name = {r.name: r for r in run_all(params, seed=0)}
    assert by_name["f-pseudo-unitarity"].detail.startswith(
        "IntegerAlpha: alpha = 2.010934651685677 ")
    # the other sampled checks fail the same way (LOOPS compares them with their loops)
    for name in ("closed-form-single-qubit", "computational-positivity", "r-unit-modulus"):
        assert by_name[name].status == "fail"
        assert by_name[name].detail.startswith("IntegerAlpha: alpha = ")


# samples forced from index 40 on, at tol 1e-12; ModelParams rejects the
# first, which is the error the F check's loop meets first
NEAR_INTEGERS = [
    ((3 - 5e-13,), "IntegerAlpha"),
    ((3 + 5e-13, 3 + 1.1e-12), "IntegerAlpha"),
]
NEAR_INTEGER_IDS = ["rejected", "rejected-first"]


def _force_samples(monkeypatch, near):
    sample = verify._sample_alphas

    def forced(rng, count, lo=2.0, hi=3.0):
        alphas = sample(rng, count, lo, hi)
        alphas[40:40 + len(near)] = near
        return alphas

    monkeypatch.setattr(verify, "_sample_alphas", forced)


@pytest.mark.parametrize("near, error", NEAR_INTEGERS, ids=NEAR_INTEGER_IDS)
def test_f_pseudo_unitarity_near_integers_matches_the_loop(monkeypatch, near, error):
    _force_samples(monkeypatch, near)
    params = ModelParams(2.4, tol=1e-12)
    got = _outcome(verify._chk_f_pseudo_unitarity, params, 3)
    assert got == _outcome(_f_pseudo_unitarity_oracle, params, 3)
    assert (got[0] if isinstance(got, tuple) else None) == error


def _closed_form_oracle(params, rng):
    """The closed-form-single-qubit check as one loop over alphas."""
    worst, leaves = 0.0, verify._WORKING_SYSTEMS[0]
    for al in verify._sample_alphas(rng, 50):
        p = ModelParams(float(al), params.tol)
        for gen, form in (("x", wrap_closed_form), ("b2", exchange_closed_form)):
            m = SPECIAL_UNITARY_PHASES[gen] * evaluate_word(p, leaves, BraidWord.parse(gen))
            worst = max(worst, float(np.max(np.abs(m - form(p, phased=True)))))
    return verify._result("closed-form-single-qubit", worst, params.tol,
                          "assembled generators match the analytic forms at 50 alphas")


def _computational_positivity_oracle(params, rng):
    """The computational-positivity check as one loop over alphas and registers."""
    bad = 0
    for al in verify._sample_alphas(rng, 100):
        p = ModelParams(float(al), params.tol)
        for n in (1, 2, 3):
            space = qubit_space(p, n)
            if np.any(space.metric_signs[space.computational_mask] != 1):
                bad += 1
    return verify._result("computational-positivity", float(bad), 0.5,
                          "computational vectors have +1 norm for n=1..3, 100 alphas in (2,3)")


def _r_unit_modulus_oracle(params, rng):
    """The r-unit-modulus check as one loop over alphas and rows."""
    worst = 0.0
    for al in verify._sample_alphas(rng, 100):
        p = ModelParams(float(al), params.tol)
        for (b, a, c) in _R_TABLE:
            worst = max(worst, abs(abs(r_symbol(b, a, c, p)) - 1.0))
    return verify._result("r-unit-modulus", worst, params.tol, "all table rows at 100 alphas")


# the array-pass checks besides f-pseudo-unitarity, each with the loop it replaced
LOOPS = {
    "closed-form-single-qubit": (verify._chk_closed_form_single_qubit, _closed_form_oracle),
    "computational-positivity": (verify._chk_computational_positivity,
                                 _computational_positivity_oracle),
    "r-unit-modulus": (verify._chk_r_unit_modulus, _r_unit_modulus_oracle),
}


@pytest.mark.parametrize("name", LOOPS)
def test_sampled_check_matches_its_loop(name):
    # the check reads only tol from params: 0.3 calls a sampled alpha integral
    check, oracle = LOOPS[name]
    alphas, tols = (2.4, 2.6, 5.5, 0.5, 6.6), (1e-10, 1e-12, 1e-7, 0.3)
    seen = set()
    for seed in range(200):
        params = ModelParams(alphas[seed % 5], tol=tols[seed % 4])
        got = _outcome(check, params, seed)
        assert got == _outcome(oracle, params, seed), (seed, params)
        seen.add(got[0] if isinstance(got, tuple) else got.status)
    assert seen == {"pass", "IntegerAlpha"}


@pytest.mark.parametrize("name", LOOPS)
@pytest.mark.parametrize("near", [n for n, _ in NEAR_INTEGERS], ids=NEAR_INTEGER_IDS)
def test_sampled_check_near_integers_matches_its_loop(monkeypatch, name, near):
    _force_samples(monkeypatch, near)
    check, oracle = LOOPS[name]
    params = ModelParams(2.4, tol=1e-12)
    assert _outcome(check, params, 3) == _outcome(oracle, params, 3)


class _BandEndsRng:
    """An rng whose draws are the ends of [0, 1)."""

    def random(self, count):
        return np.array([0.0, 1 - 2 ** -53])


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
def test_sampled_checks_match_their_loops_at_the_band_ends(monkeypatch, tol):
    # an accepted sample is 1e-3 from an integer: no guard, sign check or
    # tree-by-tree sign can fire there, so nothing needs a rerun
    ends = tuple(verify._sample_alphas(_BandEndsRng(), 2))
    assert ends == (2.001, np.nextafter(2.999, 2.0))
    assert spaces._TABLE_RADIUS < 1e-3
    _force_samples(monkeypatch, ends)
    params = ModelParams(2.4, tol=tol)
    checks = {**LOOPS, "f-pseudo-unitarity": (verify._chk_f_pseudo_unitarity,
                                              _f_pseudo_unitarity_oracle)}
    for name, (check, oracle) in checks.items():
        got = _outcome(check, params, 3)
        assert isinstance(got, verify.CheckResult), name
        assert got == _outcome(oracle, params, 3), name


def _closed_forms_oracle(p, phased):
    """wrap_closed_form and exchange_closed_form as they were written for one alpha."""
    al = p.alpha
    wrap = np.diag([q_power(3 + al), q_power(3 - al)])
    bp = bubble_pop(ALPHA.shifted(1), SIGMA, ALPHA, p)
    bm = bubble_pop(ALPHA, SIGMA, ALPHA.shifted(-1), p)
    rt = cmath.sqrt(bp) / cmath.sqrt(bm)
    q2 = q_power(2)
    exchange = q_power(-1) * np.array(
        [[(1 + q2) / (1 - q_power(2 * al)), q_power(-1) * rt],
         [q_power(-1) * rt, (1 + q2) / (1 - q_power(-2 * al))]])
    if phased:
        return SPECIAL_UNITARY_PHASES["x"] * wrap, exchange
    return wrap, exchange / SPECIAL_UNITARY_PHASES["b2"]


def test_letter_and_closed_form_stacks_match_the_scalar_path_bit_for_bit():
    alphas = _alphas_mod_8(29)
    leaves = verify._WORKING_SYSTEMS[0]
    letters = [braids._letter_stack(leaves, gen, alphas, 1e-10) for gen in ("x", "b2")]
    forms = braids._closed_form_stacks(alphas, 1e-10)
    assert letters[0].shape == letters[1].shape == forms[0].shape == forms[1].shape == (1024, 2, 2)
    # the check's per-alpha defects, from numpy's complex * - and abs on the stacks
    defects = [np.max(np.abs(SPECIAL_UNITARY_PHASES[gen] * m - f), axis=(1, 2))
               for gen, m, f in zip(("x", "b2"), letters, forms)]
    for k, al in enumerate(alphas):
        p = ModelParams(float(al))
        for gen, m, form, f, d in zip(("x", "b2"), letters,
                                      (wrap_closed_form, exchange_closed_form), forms, defects):
            assert m[k].tobytes() == braids.letter_matrix(p, leaves, gen, 1)[0].tobytes(), (al, gen)
            word = evaluate_word(p, leaves, BraidWord.parse(gen))
            assert m[k].tobytes() == word.tobytes(), (al, gen)
            assert f[k].tobytes() == form(p, phased=True).tobytes(), (al, gen)
            want = np.max(np.abs(SPECIAL_UNITARY_PHASES[gen] * word - form(p, phased=True)))
            assert d[k].tobytes() == want.tobytes(), (al, gen)
        for phased in (False, True):
            got = (wrap_closed_form(p, phased), exchange_closed_form(p, phased))
            for g, w in zip(got, _closed_forms_oracle(p, phased)):
                assert g.tobytes() == w.tobytes(), (al, phased)


@pytest.mark.parametrize("leaves", verify._WORKING_SYSTEMS[1:], ids=["a,s^4", "a,psi,s,s"])
def test_phase_only_letter_stack_matches_letter_matrix_bit_for_bit(leaves):
    # x has no F blocks: its entries are products of R phases alone
    alphas = _alphas_mod_8(31)
    stack = braids._letter_stack(leaves, "x", alphas, 1e-10)
    assert stack.shape[0] == 1024
    for al, m in zip(alphas, stack):
        want = braids.letter_matrix(ModelParams(float(al)), leaves, "x", 1)[0]
        assert m.tobytes() == want.tobytes(), al


def _word_12_5():
    """The phased x and b2 at 12/5 and the word b2 x b2^2."""
    space = qubit_space(ModelParams.from_string("12/5"), 1)
    x = generator_matrix(space, "x", 1, SPECIAL_UNITARY_PHASES["x"]).matrix
    b = generator_matrix(space, "b2", 1, SPECIAL_UNITARY_PHASES["b2"]).matrix
    return b, b @ x @ b @ b


def test_infinite_order_proof_passes_on_the_word():
    _, word = _word_12_5()
    res = verify._infinite_order(word)
    assert res.status == "pass"
    assert res.defect == abs(abs(np.trace(word)) - math.sqrt(3 - math.sqrt(5)))


def test_infinite_order_proof_fails_on_mutations():
    b, word = _word_12_5()
    root = math.sqrt(3 - math.sqrt(5))
    # a finite-order special unitary with the wrong trace
    assert matrix_order(b, 16, 1e-10).projective == 4
    theta = 2 * math.pi / 7
    finite = [b, np.diag([cmath.exp(1j * theta), cmath.exp(-1j * theta)])]
    # the right |trace| without the hypotheses: not unitary (det 1), or
    # unitary with det != 1
    s = np.diag([1 + 1e-6, 1.0])
    skewed = [s @ word @ np.linalg.inv(s), cmath.exp(0.1j) * word]
    for m in skewed:
        assert abs(abs(np.trace(m)) - root) < 1e-12
    for m in finite + skewed + [word * (1 + 1e-6)]:
        res = verify._infinite_order(m)
        assert res.status == "fail" and res.defect >= 1e-9


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


@pytest.mark.parametrize("tree", ["(a,s,s|a|a)", "(a,s,s|psi|a)"])
def test_cli_space_decodes_other_odd_labels_as_noncomputational(tree):
    # odd labels that are neither a+1 nor a-1
    code, out = run_cli("space", "--leaves", "a,s,s", "--decode", tree)
    assert code == 0
    assert json.loads(out)["decode"] == "noncomputational"


@pytest.mark.parametrize("args, message", [
    (("--leaves", "a,s,s", "--decode", "a,s,s"), "bad tree literal 'a,s,s'"),
    (("--leaves", "a,s,s", "--decode", "(a,s,s|a+1)"), "bad tree literal '(a,s,s|a+1)'"),
    (("--leaves", "a,s,s", "--decode", "(a,s,s||a)"),
     "internal labels must number len(leaves) - 2"),
    (("--leaves", "a,q"), "cannot parse label token 'q'"),
    (("--leaves", "a+x,s,s"), "cannot parse label token 'a+x'"),
])
def test_cli_space_bad_label_or_tree_is_a_usage_error(args, message):
    code, out = run_cli("space", *args)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("args, want_code", [
    (("--alpha", "2.4", "--leaves", "a+1,s,s", "--charge", "a+1"), 0),
    (("--leaves", "a,s,s", "--encode", "101"), 2),
    (("--leaves", "a,psi,s,s", "--decode", "(a,s,s|a+1|a)"), 2),
    (("--leaves", "a,s,s", "--decode", "(a,s,s,s,s|a+1,a,a-1|a)"), 2),
])
def test_cli_space_encodes_only_its_own_register(args, want_code):
    code, out = run_cli("space", *args)
    data = json.loads(out)
    assert code == want_code
    if code == 0:
        assert list(data["encodings"].values()) == data["basis"]
    else:
        assert data["error"] == "ValueError"


def test_cli_reichardt_csv():
    code, out = run_cli("reichardt", "--alpha", "12/5", "--k", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,su2,su11,ratio_law_defect,theta1,theta2,len"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.832193, abs=1e-5)


def test_cli_reichardt_empty_word_is_the_empty_word():
    code, out = run_cli("reichardt", "--word", "", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == ""
    assert [(r["k"], r["word"], r["len"]) for r in data["reports"]] == [(0, "", 0), (1, "x^16", 1)]


def test_cli_reichardt_defaults_to_the_w_word():
    code, out = run_cli("reichardt", "--k", "0")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == data["reports"][0]["word"] == "b2^2 x b2^2 x b2^-2"


def test_cli_search_small():
    code, out = run_cli("search", "--alpha", "12/5", "--max-len", "3",
                        "--threshold", "0.9", "--top", "5")
    assert code == 0
    data = json.loads(out)
    assert data["count"] > 0
    assert all(max(r["su2"], r["su11"]) < 0.9 for r in data["results"])


@pytest.mark.parametrize("arg", [
    "--max-len=0", "--max-len=-3", "--max-power=0", "--max-power=1000000000", "--jobs=0",
    "--top=-1", "--max-len=2000",
    "--threshold=nan", "--threshold=inf", "--threshold=-inf"])
def test_cli_search_rejects_bad_parameters(arg):
    code, out = run_cli("search", "--alpha", "12/5", "--max-len", "3", arg)
    assert code == 2
    assert "NaN" not in out and "Infinity" not in out
    assert json.loads(out)["error"] == "ValueError"


def test_cli_verify_rejects_negative_seed():
    code, out = run_cli("verify", "--seed", "-1")
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "ValueError" and "--seed" in data["message"]


@pytest.mark.parametrize("args", [
    ("space", "--leaves", ""),
    ("braid", "--system", "", "--word", "x"),
    ("model", "--alpha", "1e400"),
    ("reichardt", "--k", "-1"),
    ("reichardt", "--extended", "--dps", "-5"),
    ("reichardt", "--extended", "--dps", "50001"),
    ("model", "--alpha", "2/0"),
    ("braid", "--system", "a,s,s", "--word", "b2^999999999"),
    ("model", "--out", "<tmp>/missing/x.json"),
    ("reichardt", "--extended", "--dps", "10000000"),
])
def test_cli_bad_input_is_a_usage_error(args, tmp_path):
    code, out = run_cli(*(a.replace("<tmp>", str(tmp_path)) for a in args))
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("args, error, message", [
    (("space", "--leaves", "a,s32"), "EmptyBasis", "no admissible labeling for a,s32 at charge a"),
    (("space", "--leaves", "a-2,s,s32,1"), "EmptyBasis",
     "no admissible labeling for a-2,s,s32,1 at charge a-2"),
    (("braid", "--system", "a,s,s", "--word", "h1"), "LeakyPermutation",
     "word leaves the system as s,a,s"),
    (("space", "--leaves", "s,s", "--charge", "psi"), "UnsupportedTriple",
     "metric is defined for alpha-type total charge"),
    (("braid", "--system", "a,psi,psi", "--word", "b2"), "UnsupportedFamily",
     "F[a,psi,psi;a] not tabulated"),
    (("reichardt", "--k", "5"), "PrecisionExhausted",
     "k > 4 needs the extended-precision mode"),
    (("space", "--leaves", "a,psi,s,s", "--alpha", "1.000001"), "SingularParameter",
     "B[a,psi,a]: denominator ~ 0"),
    (("space", "--leaves", "a,s,s", "--alpha", "4.00000000011"), "SingularParameter",
     "B[a,s,a-1] cot: denominator ~ 0"),
], ids=["space", "space-shifted", "braid", "space-psi-charge", "braid-untabulated-f",
        "reichardt-k5",
        "space-near-1", "space-near-4"])
def test_cli_model_errors_spell_systems_as_leaves(args, error, message):
    code, out = run_cli(*args)
    assert code == 3
    assert json.loads(out) == {"error": error, "message": message}


@pytest.mark.parametrize("args", [
    ("space", "--leaves", "a,s,s", "--charge", ""),
    ("braid", "--system", "a,s,s", "--charge", "", "--word", "x"),
    # the charge is reported before a bad word
    ("braid", "--system", "a,s,s", "--charge", "", "--word", "("),
], ids=["space", "braid", "braid-bad-word"])
def test_cli_empty_charge_is_a_usage_error(args):
    code, out = run_cli(*args)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": "cannot parse label token ''"}


@pytest.mark.parametrize("word, message", [("x", "letter x needs strand 2"),
                                           ("b2 y", "unknown letter 'y'"),
                                           ("b2^", "bad braid token 'b2^'")])
def test_cli_braid_bad_letter_is_a_usage_error(word, message):
    code, out = run_cli("braid", "--system", "a", "--word", word)
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("command", ["model", "space --leaves a,s,s", "braid --system a,s,s --word b2",
                                     "search --max-len 2", "verify"])
def test_cli_csv_only_on_reichardt(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*command.split(), "--format", "csv")
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["model --alpha 12/5", "reichardt --k 1"])
def test_cli_pretty_is_the_json_object(command):
    _, plain = run_cli(*command.split())
    _, pretty = run_cli(*command.split(), "--format", "pretty")
    assert "\n  " in pretty
    assert json.loads(pretty) == json.loads(plain)


def test_cli_verify_exit_zero():
    code, out = run_cli("verify", "--alpha", "2.4", "--seed", "0")
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["fail"] == 0
    assert data["counts"]["pass"] > 10


def test_cli_verify_near_two_passes_the_pentagon_and_fails_on_the_guard():
    # B[a,psi,a]'s guard fires at 2.000001; the pentagon check evaluates no symbol
    code, out = run_cli("verify", "--alpha", "2.000001", "--seed", "0")
    assert code == 1
    data = json.loads(out)
    by_name = {r["name"]: r for r in data["results"]}
    pentagon = by_name["pentagon-restricted"]
    assert (pentagon["status"], pentagon["defect"]) == ("pass", 0.0)
    for name in ("affine-relation", "pseudo-unitarity", "two-qubit-blocks"):
        assert (by_name[name]["status"], by_name[name]["detail"]) == \
            ("fail", "SingularParameter: B[a,psi,a]: denominator ~ 0")
    assert data["counts"] == {"pass": 16, "fail": 3, "skipped": 0}


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

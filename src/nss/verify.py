"""One-command battery of property checks with measured defects.

Every check returns a CheckResult rather than raising; the suite is
deterministic for a fixed (params, seed) and reports are ordered by name.
Sampled alphas are drawn from (2, 3) with a guard band of 1e-3 around the
integer endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import anyon, braids, gates
from .anyon import f_matrix, pentagon_sweep, r_symbol, s_sign, t_sign
from .braids import (BraidWord, evaluate_word, matrix_order,
                     pseudo_unitarity_defect, two_qubit_block_form,
                     wrap_closed_form, exchange_closed_form,
                     SPECIAL_UNITARY_PHASES)
from .errors import ModelError
from .labels import ALPHA, PSI, SIGMA, ModelParams
from .spaces import IndefSpace, QubitCode, control_basis_transform, qubit_space


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str        # "pass" | "fail" | "skipped"
    defect: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "defect": self.defect, "detail": self.detail}


def _sample_alphas(rng, count, lo=2.0, hi=3.0):
    return lo + 1e-3 + (hi - lo - 2e-3) * rng.random(count)


def _result(name, defect, tol, detail=""):
    status = "pass" if defect < tol else "fail"
    return CheckResult(name, status, float(defect), detail)


def _wrap_check(fn):
    def run(params, rng):
        try:
            return fn(params, rng)
        except ModelError as exc:
            return CheckResult(fn.__name__[len("_chk_"):].replace("_", "-"),
                               "fail", math.inf, f"{type(exc).__name__}: {exc}")
    return run


# ---------------------------------------------------------------------------

def _chk_affine_relation(params, rng):
    worst = 0.0
    for leaves in ((ALPHA, SIGMA, SIGMA),
                   (ALPHA,) + (SIGMA,) * 4,
                   (ALPHA, PSI, SIGMA, SIGMA)):
        # on the psi system each side nets one exchange, so compare the two
        # open evaluations into the common permuted target space
        lhs, end1 = braids.evaluate_word_open(params, leaves, BraidWord.parse("x b2 x b2"))
        rhs, end2 = braids.evaluate_word_open(params, leaves, BraidWord.parse("b2 x b2 x"))
        assert end1 == end2
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result("affine-relation", worst, params.tol,
                   "x b2 x b2 = b2 x b2 x on the three working systems")


def _chk_closed_form_single_qubit(params, rng):
    worst = 0.0
    for al in _sample_alphas(rng, 50):
        p = ModelParams(float(al), params.tol)
        leaves = (ALPHA, SIGMA, SIGMA)
        x = evaluate_word(p, leaves, BraidWord.parse("x"))
        b = evaluate_word(p, leaves, BraidWord.parse("b2"))
        dx = np.max(np.abs(SPECIAL_UNITARY_PHASES["x"] * x - wrap_closed_form(p, phased=True)))
        db = np.max(np.abs(SPECIAL_UNITARY_PHASES["b2"] * b - exchange_closed_form(p, phased=True)))
        worst = max(worst, float(dx), float(db))
    return _result("closed-form-single-qubit", worst, params.tol,
                   "assembled generators match the analytic forms at 50 alphas")


def _chk_computational_positivity(params, rng):
    bad = 0
    for al in _sample_alphas(rng, 100):
        p = ModelParams(float(al), params.tol)
        for n in (1, 2, 3):
            space = qubit_space(p, n)
            if np.any(space.metric_signs[space.computational_mask] != 1):
                bad += 1
    return _result("computational-positivity", float(bad), 0.5,
                   "computational vectors have +1 norm for n=1..3, 100 alphas in (2,3)")


def _chk_two_qubit_signature(params, rng):
    if not params.definite_regime:
        return CheckResult("two-qubit-signature", "skipped", 0.0,
                           "alpha outside (2,3): stated signature applies there")
    space = qubit_space(params, 2)
    want = np.array([1, 1, 1, 1, -1, 1])
    defect = float(np.max(np.abs(space.metric_signs - want)))
    return _result("two-qubit-signature", defect, 0.5, "(+,+,+,+,-,+) in listing order")


def _chk_exchange_order_four(params, rng):
    space = qubit_space(params, 1)
    b = braids.generator_matrix(space, "b2", 1,
                                global_phase=SPECIAL_UNITARY_PHASES["b2"]).matrix
    res = matrix_order(b, 16, params.tol)
    ok = res.projective == 4
    return CheckResult("exchange-order-four", "pass" if ok else "fail",
                       res.defect, f"projective order {res.projective}, strict {res.strict}")


def _chk_infinite_order_word(params, rng):
    p = ModelParams(12 / 5, params.tol)
    space = qubit_space(p, 1)
    x = braids.generator_matrix(space, "x", 1, SPECIAL_UNITARY_PHASES["x"]).matrix
    b = braids.generator_matrix(space, "b2", 1, SPECIAL_UNITARY_PHASES["b2"]).matrix
    return _infinite_order(b @ x @ b @ b)


def _infinite_order(m):
    """Prove that the 2x2 matrix m has infinite projective order.

    A special unitary m has trace 2 cos theta.  If a power of m were scalar,
    theta would be a rational multiple of pi and the trace a sum of two roots
    of unity, whose conjugates all lie in [-2, 2] (Kronecker).  But |trace|
    sqrt(3 - sqrt 5) is a root of the irreducible x^4 - 6x^2 + 4, whose
    conjugate sqrt(3 + sqrt 5) exceeds 2.  So only the hypotheses are tested.
    """
    unitary = max(abs(np.linalg.det(m) - 1),
                  float(np.max(np.abs(m.conj().T @ m - np.eye(2)))))
    tr = abs(complex(np.trace(m)))
    root = math.sqrt(3 - math.sqrt(5))
    match = abs(tr - root)
    return _result("infinite-order-word", max(unitary, match), 1e-9,
                   f"special unitary, |trace| = {tr:.12f} matches the root {root:.12f} "
                   f"of x^4 - 6x^2 + 4; its conjugate {math.sqrt(3 + math.sqrt(5)):.12f} "
                   "exceeds 2, so no power is a scalar (Kronecker)")


def _chk_wrap_square_diagonal(params, rng):
    p = ModelParams(12 / 5, params.tol)
    d = gates.build_D(p).matrix
    al = p.alpha
    expected = np.diag([anyon.q_power(12 + 4 * al), 1.0, 1.0, anyon.q_power(12 - 4 * al)])
    defect = float(np.max(np.abs(d - expected)))
    lit = np.exp(3j * math.pi / 5)
    detail = (f"diag matches (q^(12+4a),1,1,q^(12-4a)); entry (3,3) = exp(3 i pi/5) "
              f"to {abs(d[3, 3] - lit):.2e}, entry (0,0) is its conjugate "
              f"(off the claimed value by {abs(d[0, 0] - lit):.3f})")
    return _result("wrap-square-diagonal", defect, 1e-9, detail)


def _chk_leakage_norms(params, rng):
    p = ModelParams(12 / 5, params.tol)
    w = gates.build_W(p).matrix
    n1, n2 = gates.leakage_norms(w)
    b2sq = evaluate_word(p, gates.PSI_LEAVES, BraidWord.parse("b2^2"))
    n3, _ = gates.leakage_norms(b2sq)
    defect = max(abs(n1 - 0.832), abs(n2 - 0.904), abs(n3 - 1.943) / 10)
    return _result("leakage-norms", defect, 1e-3,
                   f"W: ({n1:.6f}, {n2:.6f}); b2^2 upper: {n3:.6f}")


def _chk_fifth_power_law(params, rng):
    p = ModelParams(12 / 5, params.tol)
    reports = gates.reichardt_iterate(p, gates.W_WORD, k=3)
    worst = 0.0
    for r in reports[1:]:
        tol = 1e-6 if r.k <= 2 else 1e-3
        worst = max(worst, r.law_defect_su2 / tol, r.law_defect_su11 / tol)
    return _result("fifth-power-law", worst, 1.0,
                   "relative law defect within 1e-6 (k<=2) / 1e-3 (k=3) for W")


def _chk_pentagon_restricted(params, rng):
    rep = pentagon_sweep(params)
    ok = rep.verified > 0 and rep.skipped > 0 and rep.max_defect < params.tol
    reasons = ", ".join(sorted(rep.skip_reasons)[:4])
    return CheckResult("pentagon-restricted", "pass" if ok else "fail",
                       rep.max_defect,
                       f"verified {rep.verified}, skipped {rep.skipped} "
                       f"(missing e.g. {reasons})")


def _chk_pseudo_unitarity(params, rng):
    worst = 0.0
    cases = [((ALPHA, SIGMA, SIGMA), (("x", 1), ("b2", 1))),
             ((ALPHA,) + (SIGMA,) * 4, (("x", 1), ("b2", 1), ("b3", 1), ("b4", 1))),
             ((ALPHA, PSI, SIGMA, SIGMA), (("x", 1), ("b2", 2), ("b3", 1)))]
    for leaves, gens in cases:
        space = IndefSpace.build(params, leaves)
        for g, pw in gens:
            m = braids.generator_matrix(space, g, pw)
            worst = max(worst, pseudo_unitarity_defect(m.matrix, space))
    return _result("pseudo-unitarity", worst, params.tol,
                   "M^dag J M = J for generators on all working spaces")


def _chk_two_qubit_blocks(params, rng):
    space = qubit_space(params, 2)
    worst = 0.0
    for gen, word in (("x", "x"), ("b2", "b2"), ("b4", "b4"), ("j4", "b3 b2 x b2 b3")):
        m = evaluate_word(params, space.leaves, BraidWord.parse(word))
        worst = max(worst, float(np.max(np.abs(m - two_qubit_block_form(params, gen)))))
    return _result("two-qubit-blocks", worst, params.tol,
                   "x, b2, b4 and b3 b2 x b2 b3 match their block closed forms")


def _chk_r_unit_modulus(params, rng):
    worst = 0.0
    for al in _sample_alphas(rng, 100):
        p = ModelParams(float(al), params.tol)
        for (b, a, c) in anyon._R_TABLE:
            worst = max(worst, abs(abs(r_symbol(b, a, c, p)) - 1.0))
    return _result("r-unit-modulus", worst, params.tol, "all table rows at 100 alphas")


def _metric_signs(blk):
    """Per-channel norm signs of the two tree shapes a 2x2 F block relates:
    each of ``blk.norms`` is a product of principal roots of real bubbles,
    each root exactly real or exactly imaginary, so its square is real with
    the sign of the bubbles' product."""
    return [[math.copysign(1.0, (z * z).real) for z in zs] for zs in blk.norms]


def _chk_f_pseudo_unitarity(params, rng):
    fams = [f for f in anyon._F_FAMILIES if len(anyon.f_channels(*f)[0]) == 2]
    mats, invs, signs = [], [], []
    for al in _sample_alphas(rng, 100):
        p = ModelParams(float(al), params.tol)
        for fam in fams:
            blk = f_matrix(*fam, p)
            mats.append(blk.matrix)
            invs.append(blk.inverse())
            signs.append(_metric_signs(blk))
    m = np.array(mats, dtype=complex)
    signs = np.array(signs)  # (block, rows then columns, channel)
    jr, jc = np.zeros((2,) + m.shape)
    jr[:, (0, 1), (0, 1)], jc[:, (0, 1), (0, 1)] = signs[:, 0], signs[:, 1]
    pu = np.max(np.abs(m.conj().transpose(0, 2, 1) @ jr @ m - jc), axis=(1, 2))
    inv = np.max(np.abs(m @ np.array(invs) - np.eye(2)), axis=(1, 2))
    # fmax skips a NaN block, as max(worst, x) does in a loop over blocks
    worst = max(np.fmax.reduce(pu, initial=0.0), np.fmax.reduce(inv, initial=0.0))
    return _result("f-pseudo-unitarity", worst, 1e-9,
                   "F^dag J_rows F = J_cols and F F^-1 = 1 for the 2x2 families, 100 alphas")


def _chk_st_periodicity(params, rng):
    bad = 0
    for al in _sample_alphas(rng, 100, lo=0.0, hi=8.0):
        p = float(al)
        if abs(p - round(p)) < 1e-3:
            continue
        if s_sign(p) != s_sign(p + 8) or t_sign(p) != t_sign(p + 4):
            bad += 1
    return _result("st-periodicity", float(bad), 0.5, "s mod 8, t mod 4")


def _chk_gram_transport(params, rng):
    space = qubit_space(params, 2)
    cb = control_basis_transform(space)
    t = cb.matrix
    lhs = t.conj().T @ np.diag(cb.metric_signs.astype(float)) @ t
    defect = float(np.max(np.abs(lhs - space.J)))
    return _result("gram-transport", defect, 1e-9,
                   "T^dag J_control T = J_comb on the two-qubit space")


def _chk_dimension_binomial(params, rng):
    bad = 0
    for n in range(1, 5):
        space = qubit_space(params, n)
        if space.dim != math.comb(2 * n, n):
            bad += 1
        if int(np.sum(space.computational_mask)) != 2 ** n:
            bad += 1
    return _result("dimension-binomial", float(bad), 0.5,
                   "dim H_n = C(2n, n) and 2^n computational, n=1..4")


def _chk_encode_decode(params, rng):
    bad = 0
    for n in range(1, 5):
        code = QubitCode(n)
        for bits in code.bitstrings():
            if code.decode(code.encode(bits)) != bits:
                bad += 1
    return _result("encode-decode", float(bad), 0.5, "round trip for n=1..4")


def _chk_vacuum_triviality(params, rng):
    p = ModelParams(12 / 5, params.tol)
    worst = 0.0
    for word in (gates.W_WORD, gates.D_WORD):
        m = gates.vacuum_sector_matrix(p, word)
        worst = max(worst, float(np.max(np.abs(m - np.eye(m.shape[0])))))
    return _result("vacuum-triviality", worst, 1e-9,
                   "W and x^2 act as the identity on the vacuum control channel")


_CHECKS = [
    _chk_affine_relation,
    _chk_closed_form_single_qubit,
    _chk_computational_positivity,
    _chk_dimension_binomial,
    _chk_encode_decode,
    _chk_exchange_order_four,
    _chk_f_pseudo_unitarity,
    _chk_fifth_power_law,
    _chk_gram_transport,
    _chk_infinite_order_word,
    _chk_leakage_norms,
    _chk_pentagon_restricted,
    _chk_pseudo_unitarity,
    _chk_r_unit_modulus,
    _chk_st_periodicity,
    _chk_two_qubit_blocks,
    _chk_two_qubit_signature,
    _chk_vacuum_triviality,
    _chk_wrap_square_diagonal,
]


def run_all(params: ModelParams, seed: int = 0) -> list[CheckResult]:
    """Run every check; deterministic for fixed (params, seed)."""
    rng = np.random.default_rng(seed)
    results = [_wrap_check(fn)(params, rng) for fn in _CHECKS]
    results.sort(key=lambda r: r.name)
    return results


def failures(results) -> list[CheckResult]:
    return [r for r in results if r.status == "fail"]

"""One-command battery of property checks with measured defects.

run_all gives every check a CheckResult, a model error included; the suite
is deterministic for a fixed (params, seed) and reports are ordered by name.
Sampled alphas are drawn from (2, 3), or from (0, 8) for st-periodicity,
with a guard band of 1e-3 at both ends.

The four checks that sample 50 or 100 alphas in (2, 3) (closed-form-single-
qubit, computational-positivity, f-pseudo-unitarity and r-unit-modulus)
have ModelParams accept each alpha once, in draw order, and then evaluate
them in one array pass each, bit for bit with a loop over alphas
(:func:`_accepted_alphas`); nothing is rerun.  An accepted sample is at
least 1e-3 from an integer, where no guard or sign check can fire, so
computational-positivity reads one interval sign row per residue.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import anyon, braids, gates, spaces
from .anyon import pentagon_sweep, s_sign, t_sign
from .braids import (BraidWord, evaluate_word, matrix_order,
                     pseudo_unitarity_defect, two_qubit_block_form,
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


def _accepted_alphas(rng, count, tol):
    """``count`` alphas drawn in (2, 3), once ModelParams accepts each in draw order."""
    alphas = _sample_alphas(rng, count)
    for al in alphas:  # a loose tol may call a sampled alpha integral
        ModelParams(float(al), tol)
    return alphas


# ---------------------------------------------------------------------------

_WORKING_SYSTEMS = ((ALPHA, SIGMA, SIGMA), (ALPHA,) + (SIGMA,) * 4, (ALPHA, PSI, SIGMA, SIGMA))
_TWO_QUBIT_SIGNATURE = (1, 1, 1, 1, -1, 1)  # acceptance criterion 3 reads it too
_LEAKAGE_TARGETS = (0.832, 0.904, 1.943)  # acceptance criterion 6 reads them too


def _affine_defect(params):
    """Acceptance criterion 2: max |x b2 x b2 - b2 x b2 x| over the working systems."""
    worst = 0.0
    for leaves in _WORKING_SYSTEMS:
        # on the psi system each side nets one exchange: compare in the permuted space
        lhs, end1 = braids.evaluate_word_open(params, leaves, BraidWord.parse("x b2 x b2"))
        rhs, end2 = braids.evaluate_word_open(params, leaves, BraidWord.parse("b2 x b2 x"))
        assert end1 == end2
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _chk_affine_relation(params, rng):
    return _result("affine-relation", _affine_defect(params), params.tol,
                   "x b2 x b2 = b2 x b2 x on the three working systems")


def _closed_form_defect(alphas, tol):
    """Acceptance criterion 1: max |phased x or b2 on a,s,s - its closed form| over the alphas."""
    leaves = _WORKING_SYSTEMS[0]
    words = [braids._letter_stack(leaves, gen, alphas, tol) for gen in ("x", "b2")]
    forms = braids._closed_form_stacks(alphas, tol)
    defects = [np.max(np.abs(SPECIAL_UNITARY_PHASES[gen] * m - form), axis=(1, 2))
               for gen, m, form in zip(("x", "b2"), words, forms)]
    # fmax skips a NaN matrix, as max(worst, x) does in a loop over alphas
    return float(np.fmax.reduce(np.concatenate(defects), initial=0.0))


def _chk_closed_form_single_qubit(params, rng):
    worst = _closed_form_defect(_accepted_alphas(rng, 50, params.tol), params.tol)
    return _result("closed-form-single-qubit", worst, params.tol,
                   "assembled generators match the analytic forms at 50 alphas")


def _chk_computational_positivity(params, rng):
    alphas = _accepted_alphas(rng, 100, params.tol)
    counts = Counter(math.floor(al) % 8 for al in alphas.tolist())  # samples per residue
    bad = 0  # (alpha, n) pairs with a computational sign that is not +1
    for n in (1, 2, 3):
        leaves = QubitCode(n).leaves
        mask = spaces._space_plan(leaves, ALPHA).computational_mask
        bad += sum(c for r, c in counts.items()
                   if np.any(spaces._interval_signs(leaves, ALPHA, r)[mask] != 1))
    return _result("computational-positivity", float(bad), 0.5,
                   "computational vectors have +1 norm for n=1..3, 100 alphas in (2,3)")


def _chk_two_qubit_signature(params, rng):
    if not params.definite_regime:
        return CheckResult("two-qubit-signature", "skipped", 0.0,
                           "alpha outside (2,3): stated signature applies there")
    defect = float(np.max(np.abs(qubit_space(params, 2).metric_signs - _TWO_QUBIT_SIGNATURE)))
    return _result("two-qubit-signature", defect, 0.5, "(+,+,+,+,-,+) in listing order")


def _b2_order(params):
    """Acceptance criterion 4: the order of the phased b2 on one qubit, up to 16."""
    b = braids.generator_matrix(qubit_space(params, 1), "b2", 1, SPECIAL_UNITARY_PHASES["b2"])
    return matrix_order(b.matrix, 16, params.tol)


def _b2_x_b2_squared(params):
    """Acceptance criterion 4 scans 10,000 powers of this phased b2 x b2^2 on one qubit."""
    space = qubit_space(params, 1)
    x = braids.generator_matrix(space, "x", 1, SPECIAL_UNITARY_PHASES["x"]).matrix
    b = braids.generator_matrix(space, "b2", 1, SPECIAL_UNITARY_PHASES["b2"]).matrix
    return b @ x @ b @ b


def _chk_exchange_order_four(params, rng):
    res = _b2_order(params)
    return CheckResult("exchange-order-four", "pass" if res.projective == 4 else "fail",
                       res.defect, f"projective order {res.projective}, strict {res.strict}")


def _chk_infinite_order_word(params, rng):
    return _infinite_order(_b2_x_b2_squared(ModelParams(12 / 5, params.tol)))


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


def _leakage(params):
    """Acceptance criterion 6: (|W[0,1]|, |W[2,3]|, |b2^2[0,1]|)."""
    w = gates.leakage_norms(gates.build_W(params).matrix)
    b2sq = evaluate_word(params, gates.PSI_LEAVES, BraidWord.parse("b2^2"))
    return (*w, gates.leakage_norms(b2sq)[0])


def _chk_leakage_norms(params, rng):
    (n1, n2, n3), (t1, t2, t3) = _leakage(ModelParams(12 / 5, params.tol)), _LEAKAGE_TARGETS
    defect = max(abs(n1 - t1), abs(n2 - t2), abs(n3 - t3) / 10)
    return _result("leakage-norms", defect, 1e-3,
                   f"W: ({n1:.6f}, {n2:.6f}); b2^2 upper: {n3:.6f}")


def _law_limit(k):
    """Acceptance criterion 7, in mpmath on W and LOW_LEAKAGE_WORD: the law's limit at step k."""
    return 1e-6 if k <= 2 else 1e-3


def _chk_fifth_power_law(params, rng):
    p = ModelParams(12 / 5, params.tol)
    reports = gates.reichardt_iterate(p, gates.W_WORD, k=3)
    worst = 0.0
    for r in reports[1:]:
        worst = max(worst, r.law_defect_su2 / _law_limit(r.k), r.law_defect_su11 / _law_limit(r.k))
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
    cases = ((("x", 1), ("b2", 1)), (("x", 1), ("b2", 1), ("b3", 1), ("b4", 1)),
             (("x", 1), ("b2", 2), ("b3", 1)))
    for leaves, gens in zip(_WORKING_SYSTEMS, cases):
        space = IndefSpace.build(params, leaves)
        for g, pw in gens:
            m = braids.generator_matrix(space, g, pw)
            worst = max(worst, pseudo_unitarity_defect(m.matrix, space))
    return _result("pseudo-unitarity", worst, params.tol,
                   "M^dag J M = J for generators on all working spaces")


def _chk_two_qubit_blocks(params, rng):
    space = qubit_space(params, 2)
    worst = 0.0
    for gen, word in (("x", BraidWord.parse("x")), ("b2", BraidWord.parse("b2")),
                      ("b4", BraidWord.parse("b4")), ("j4", braids.J4_WORD)):
        m = evaluate_word(params, space.leaves, word)
        worst = max(worst, float(np.max(np.abs(m - two_qubit_block_form(params, gen)))))
    return _result("two-qubit-blocks", worst, params.tol,
                   "x, b2, b4 and b3 b2 x b2 b3 match their block closed forms")


def _chk_r_unit_modulus(params, rng):
    alphas = _accepted_alphas(rng, 100, params.tol)
    r = np.array([anyon._symbol_stack("R", *row, alphas, params.tol) for row in anyon._R_TABLE],
                 dtype=object)
    # abs of Python numbers: numpy's complex abs differs in the last bit
    worst = np.fmax.reduce(abs(abs(r) - 1.0).astype(float), axis=None, initial=0.0)
    return _result("r-unit-modulus", worst, params.tol, "all table rows at 100 alphas")


def _chk_f_pseudo_unitarity(params, rng):
    alphas = _accepted_alphas(rng, 100, params.tol)
    fams = [f for f in anyon._F_FAMILIES if len(anyon.f_channels(*f)[0]) == 2]
    m, invs, signs = map(np.concatenate,
                         zip(*(anyon._f_blocks(fam, alphas, params.tol) for fam in fams)))
    # signs: (block, rows then columns, channel)
    jr, jc = np.zeros((2,) + m.shape)
    jr[:, (0, 1), (0, 1)], jc[:, (0, 1), (0, 1)] = signs[:, 0], signs[:, 1]
    pu = np.max(np.abs(m.conj().transpose(0, 2, 1) @ jr @ m - jc), axis=(1, 2))
    inv = np.max(np.abs(m @ invs - np.eye(2)), axis=(1, 2))
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


def _vacuum_defect(params, word):
    """Acceptance criterion 11: max |M - 1| of the word on the vacuum control channel."""
    return float(np.max(np.abs(gates.vacuum_sector_matrix(params, word) - np.eye(2))))


def _chk_vacuum_triviality(params, rng):
    p = ModelParams(12 / 5, params.tol)
    worst = max(_vacuum_defect(p, word) for word in (gates.W_WORD, gates.D_WORD))
    return _result("vacuum-triviality", worst, 1e-9,
                   "W and x^2 act as the identity on the vacuum control channel")


# in name order, which the shared rng's draws follow; a list, so a tracer can
# wrap its items in place
_CHECKS = [fn for name, fn in sorted(globals().items()) if name.startswith("_chk_")]


def run_all(params: ModelParams, seed: int = 0) -> list[CheckResult]:
    """Run every check in name order; deterministic for fixed (params, seed).
    A check that raises a model error fails with an infinite defect."""
    rng = np.random.default_rng(seed)
    results = []
    for fn in _CHECKS:
        try:
            results.append(fn(params, rng))
        except ModelError as exc:
            results.append(CheckResult(fn.__name__[len("_chk_"):].replace("_", "-"),
                                       "fail", math.inf, f"{type(exc).__name__}: {exc}"))
    return results


def failures(results) -> list[CheckResult]:
    return [r for r in results if r.status == "fail"]

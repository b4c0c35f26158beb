"""Acceptance criteria, one test per criterion, each printing a verdict line.

Two criteria assert published values that are provably inconsistent with the
model's own tabulated data; they are marked strict-xfail with the analysis
in the reason string, and their assertions are kept faithful to the stated
targets (see notes in the repository README).
"""
import cmath
import functools
import math
from collections import Counter

import numpy as np
import pytest

from nss import (BraidWord, LOW_LEAKAGE_WORD, ModelParams, build_D, build_W,
                 controlled_gate, evaluate_word, matrix_order, pentagon_sweep,
                 qubit_space, reichardt_iterate, reichardt_step,
                 search_low_leakage, verify, W_WORD)
from nss.gates import PSI_LEAVES
from nss.spaces import tree_norm_sign, QubitCode

P125 = ModelParams.from_string("12/5")
RNG = np.random.default_rng(2024)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_closed_form_braid_agreement():
    worst = verify._closed_form_defect(2.0 + 1e-3 + (1 - 2e-3) * RNG.random(50), 1e-10)
    _verdict(1, worst < 1e-10, f"closed-form agreement, max defect {worst:.2e} (50 alphas)")
    assert worst < 1e-10


def test_criterion_02_affine_relation():
    worst = max(verify._affine_defect(ModelParams.from_string(al)) for al in ("2.4", "2.7", "12/5"))
    _verdict(2, worst < 1e-10, f"affine relation defect {worst:.2e} on H1/H2/H2^psi")
    assert worst < 1e-10


def test_criterion_03_signatures():
    space = qubit_space(ModelParams(2.4), 2)
    sig_ok = tuple(space.metric_signs) == verify._TWO_QUBIT_SIGNATURE
    pos_ok = True
    for al in 2.0 + 1e-3 + (1 - 2e-3) * RNG.random(100):
        p = ModelParams(float(al))
        for n in (1, 2, 3):
            code = QubitCode(n)
            for i in range(2 ** n):
                bits = tuple((i >> j) & 1 for j in range(n))
                if tree_norm_sign(code.encode(bits), p) != 1:
                    pos_ok = False
    ok = sig_ok and pos_ok
    _verdict(3, ok, f"two-qubit signature {'ok' if sig_ok else 'WRONG'}; "
                    f"computational positivity n=1..3 {'ok' if pos_ok else 'WRONG'}")
    assert ok


def test_criterion_04_order_facts():
    res = verify._b2_order(ModelParams(2.4))
    order_ok = res.projective == 4 and res.defect < 1e-10

    res2 = matrix_order(verify._b2_x_b2_squared(P125), 10_000, 1e-8)
    inf_ok = res2.projective is None
    _verdict(4, order_ok and inf_ok,
             f"b2 projective order {res.projective} (defect {res.defect:.1e}); "
             f"b2 x b2^2 projective order within 1e4: {res2.projective}")
    assert order_ok and inf_ok


@pytest.mark.xfail(
    strict=True,
    reason="the stated diagonal exp(3i pi/5),1,1,exp(3i pi/5) is unreachable: "
           "the tabulated exchange phases force the two outer entries of the "
           "double wrap to be exact complex conjugates (their product is "
           "q^24 = 1), so only the lower one can equal exp(3i pi/5); the "
           "computed matrix is diag(exp(-3i pi/5), 1, 1, exp(3i pi/5))")
def test_criterion_05_d_identity():
    d = build_D(P125).matrix
    lit = cmath.exp(3j * math.pi / 5)
    want = np.diag([lit, 1.0, 1.0, lit])
    defect = float(np.max(np.abs(d - want)))
    _verdict(5, defect < 1e-9,
             f"X^2 vs stated diagonal: defect {defect:.3f} "
             f"(measured diag {np.round(np.diag(d), 6)})")
    assert defect < 1e-9


def test_criterion_06_w_leakage():
    (su2, su11, cand), (t2, t11, tc) = verify._leakage(P125), verify._LEAKAGE_TARGETS
    ok = abs(su2 - t2) <= 1e-3 and abs(su11 - t11) <= 1e-3 and abs(cand - tc) <= 1e-2
    _verdict(6, ok, f"W leakage ({su2:.6f}, {su11:.6f}); b2^2 leakage {cand:.6f}")
    assert ok


def test_criterion_07_reichardt_convergence():
    ok = True
    details = []
    for word, label in ((W_WORD, "W"), (LOW_LEAKAGE_WORD, "search")):
        reports = reichardt_iterate(P125, word, k=3, extended=True, dps=120)
        for r in reports[1:]:
            lim = verify._law_limit(r.k)
            if r.law_defect_su2 > lim or r.law_defect_su11 > lim:
                ok = False
        details.append(f"{label}: law defects " +
                       " ".join(f"{max(r.law_defect_su2, r.law_defect_su11):.1e}"
                                for r in reports[1:]))
    sw = reichardt_iterate(P125, LOW_LEAKAGE_WORD, k=2, extended=True, dps=120)
    k1 = sw[1].su2_offdiag
    k2 = sw[2].su2_offdiag
    win1 = abs(k1 - 1.914e-3) <= 1e-5
    win2 = abs(k2 - 2.565e-14) <= 1e-15
    ok = ok and win1 and win2
    _verdict(7, ok, "; ".join(details) +
             f"; search word k1 {k1:.4e} (target 1.914e-3 +- 1e-5), "
             f"k2 {k2:.4e} (target 2.565e-14 +- 1e-15)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the published pair (-1.772, -1.682) is unreachable: with W, the "
           "recursion and the evaluated double wrap all pinned by the other "
           "criteria, the reachable computational phases at k=3 are "
           "(-1.683, -2.281) up to the global-phase gauge, whose difference "
           "+0.598 cannot be gauged to the published difference -0.090; "
           "-1.682 does match the first computational phase to 8e-4")
def test_criterion_08_diagonal_phases():
    from nss.gates import D_WORD, W_WORD
    reports = reichardt_iterate(P125, k=3)
    r = reports[3]
    # raw arguments for transparency
    wm = evaluate_word(P125, PSI_LEAVES, W_WORD)
    dm = evaluate_word(P125, PSI_LEAVES, D_WORD)
    cur = wm
    for _ in range(3):
        cur = reichardt_step(cur, dm)
    raw = [cmath.phase(cur[i, i]) for i in range(4)]
    ok = abs(r.theta1 + 1.772) <= 0.01 and abs(r.theta2 + 1.682) <= 0.01
    _verdict(8, ok, f"theta (gauged) = ({r.theta1:+.4f}, {r.theta2:+.4f}); "
                    f"raw computational args = ({raw[1]:+.4f}, {raw[2]:+.4f}); "
                    f"targets (-1.772, -1.682)")
    assert ok


@functools.cache
def _l11_hits():
    """Criterion 9's search, run once for every test that reads it."""
    return tuple(search_low_leakage(P125, max_len=11, threshold=0.3, jobs=1))


def test_criterion_09_brute_force_search():
    hits = _l11_hits()
    nonempty = len(hits) > 0
    best = hits[0].report if hits else None
    best_ok = (best is not None and best.su2_offdiag <= 0.29
               and best.su11_offdiag <= 0.29)
    paper_pair = any(abs(h.report.su2_offdiag - 0.285869) < 5e-4
                     and abs(h.report.su11_offdiag - 0.284849) < 5e-4
                     for h in hits)
    ok = nonempty and best_ok and paper_pair
    _verdict(9, ok, f"{len(hits)} hits; best ({best.su2_offdiag:.4f}, "
                    f"{best.su11_offdiag:.4f}); 0.286/0.285 word found: {paper_pair}")
    assert ok


def test_l11_hits_are_diagonal_words_and_four_leaky_norm_pairs():
    # criterion 9's 533 hits, by norm pair rounded to 6 digits: the diagonal
    # words (norms <= 4.2e-15) and four pairs with real leakage
    pairs = Counter((round(h.report.su2_offdiag, 6), round(h.report.su11_offdiag, 6))
                    for h in _l11_hits())
    assert pairs == {(0.0, 0.0): 83, (0.285869, 0.284849): 348, (0.221762, 0.283063): 70,
                     (0.107929, 0.189743): 24, (0.263822, 0.206601): 8}
    diagonal = [h.report for h in _l11_hits() if h.report.su2_offdiag < 1e-6]
    assert max(max(r.su2_offdiag, r.su11_offdiag) for r in diagonal) <= 4.2e-15


def test_criterion_10_pentagon_sweep():
    verified = skipped = 0
    worst = 0.0
    for al in 2.0 + 1e-3 + (1 - 2e-3) * RNG.random(20):
        rep = pentagon_sweep(ModelParams(float(al)))
        verified += rep.verified
        skipped += rep.skipped
        worst = max(worst, rep.max_defect)
    ok = verified > 0 and skipped > 0 and worst < 1e-10
    _verdict(10, ok, f"verified {verified}, skipped {skipped}, max defect {worst:.1e}")
    assert ok


def test_criterion_11_entanglement():
    w = build_W(P125).matrix
    d = build_D(P125).matrix
    cur = w
    for _ in range(3):
        cur = reichardt_step(cur, d)
    gate = controlled_gate(qubit_space(P125, 2), cur, leak_tol=1e-4)
    vac = verify._vacuum_defect(P125, BraidWord.parse("b2^2 x b2^2 x b2^-2"))
    ok = gate.schmidt_rank >= 2 and vac <= 1e-9
    _verdict(11, ok, f"operator-Schmidt rank {gate.schmidt_rank}; "
                     f"vacuum-sector action identity to {vac:.1e}")
    assert ok

"""Braid-engine tests: closed forms, relations, blocks, orders."""
import cmath
import functools
import math
import operator
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from nss import (ALPHA, PSI, SIGMA, BraidWord, LeakyPermutation, ModelParams,
                 NotBlockDiagonal, SPECIAL_UNITARY_PHASES, block_decompose,
                 evaluate_word, generator_matrix, matrix_order,
                 pseudo_unitarity_defect, q_power, qubit_space,
                 wrap_closed_form, exchange_closed_form)
from nss import braids
from nss.anyon import FLOAT_NS, f_channels, f_matrix, mp_namespace, r_symbol
from nss.braids import (apply_letter_to_leaves, evaluate_word_open, letter_matrix,
                        two_qubit_block_form, J4_WORD)
from nss.errors import UnsupportedFamily
from nss.gates import D_WORD, LOW_LEAKAGE_WORD, PSI_LEAVES, W_WORD, psi_sector
from nss.labels import parse_leaves
from nss.spaces import enumerate_basis

RNG = np.random.default_rng(3)
H1 = (ALPHA, SIGMA, SIGMA)


def sample_alphas(n):
    return 2.0 + 1e-3 + (1 - 2e-3) * RNG.random(n)


# ---------------------------------------------------------------------------
# word plumbing
# ---------------------------------------------------------------------------

def test_word_parse_roundtrip():
    w = BraidWord.parse("b2^2 X b2^-3 h1 x^-1")
    assert w.letters == (("b2", 2), ("x", 1), ("b2", -3), ("h1", 1), ("x", -1))
    assert str(w) == "b2^2 x b2^-3 h1 x^-1"
    assert BraidWord.parse(str(w)) == w


def test_word_parse_rejects_garbage():
    with pytest.raises(ValueError):
        BraidWord.parse("b1")
    with pytest.raises(ValueError):
        BraidWord.parse("y^2")


def _unknown(tok):
    return ValueError(f"unknown letter {tok!r}")


@pytest.mark.parametrize("call, expected", [
    # parse reads case and leading zeros away, so these syllables cancel
    pytest.param(lambda: BraidWord.parse("b2 b02^-1").free_reduce(), BraidWord(()),
                 id="b02-cancels-b2"),
    pytest.param(lambda: BraidWord.parse("B02^-1 X"), BraidWord.parse("b2^-1 x"),
                 id="case-and-zeros"),
    pytest.param(lambda: str(BraidWord.parse("b02 H01^2")), "b2 h1^2", id="prints-canonical"),
    # from_letters checks each token and power and drops zero powers
    pytest.param(lambda: BraidWord.from_letters([("b1", 1)]), _unknown("b1"), id="b1"),
    pytest.param(lambda: BraidWord.from_letters([("y", 1)]), _unknown("y"), id="y"),
    pytest.param(lambda: BraidWord.from_letters([("B2", 1)]), _unknown("B2"), id="B2"),
    pytest.param(lambda: BraidWord.from_letters([("x2", 1)]), _unknown("x2"), id="x2"),
    pytest.param(lambda: BraidWord.from_letters([("b2", 1.5)]),
                 ValueError("power 1.5 of b2 is not an integer"), id="power-1.5"),
    pytest.param(lambda: BraidWord.from_letters([("b2", 0), ("x", np.int64(2))]),
                 BraidWord((("x", 2),)), id="zero-power-dropped"),
    # every letter reaches the leaves through the same rule
    pytest.param(lambda: apply_letter_to_leaves(H1 + (SIGMA,), "y2"), _unknown("y2"),
                 id="leaves-y2"),
    pytest.param(lambda: apply_letter_to_leaves(H1, "bx"), _unknown("bx"), id="leaves-bx"),
    pytest.param(lambda: generator_matrix(qubit_space(ModelParams(2.4), 1), "b02"), _unknown("b02"),
                 id="generator-b02"),
    # x, like h1, needs two strands
    pytest.param(lambda: apply_letter_to_leaves((ALPHA,), "x"),
                 ValueError("letter x needs strand 2"), id="leaves-x-one-strand"),
    pytest.param(lambda: letter_matrix(ModelParams(2.4), (ALPHA,), "x", 1),
                 ValueError("letter x needs strand 2"), id="letter-x-one-strand"),
])
def test_one_letter_grammar(call, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected))}$"):
            call()
    else:
        assert call() == expected


def test_word_free_reduce_and_inverse():
    w = BraidWord.parse("b2 b2 x x^-1 b2^-2")
    assert w.free_reduce().letters == ()
    w2 = BraidWord.parse("b2 x^2")
    assert w2.inverse().letters == (("x", -2), ("b2", -1))


def _memo_free_letter(*args):
    """letter_matrix(*args)'s matrix built from its plan and symbols, the memo emptied."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(braids, "_LETTER_MEMO", {})
        return letter_matrix(*args)[0]


def test_memo_hit_returns_a_fresh_writable_letter(monkeypatch):
    monkeypatch.setattr(braids, "_LETTER_MEMO", {})
    p = ModelParams(2.4)
    miss, _ = letter_matrix(p, H1, "b2", 1)
    want = miss.tobytes()
    hit, leaves = letter_matrix(p, H1, "b2", 1)
    assert list(braids._LETTER_MEMO) == [(p, H1, ALPHA, "b2", 1)] and leaves == H1
    assert hit is not miss and hit.flags.writeable and hit.tobytes() == want
    # writing into a returned letter changes no later call's result
    hit *= 2
    miss[...] = 0
    assert letter_matrix(p, H1, "b2", 1)[0].tobytes() == want


def test_letter_memo_is_bounded_and_recomputes_evicted_letters(monkeypatch):
    monkeypatch.setattr(braids, "_LETTER_MEMO", {})
    bound = braids._LETTER_MEMO_SIZE
    first = ModelParams(2.4)
    letter_matrix(first, H1, "b2", 1)
    for k in range(2 * bound):
        letter_matrix(ModelParams(2.1 + 0.8 * k / (2 * bound)), H1, "x", 1)
        assert len(braids._LETTER_MEMO) <= bound
    assert (first, H1, ALPHA, "b2", 1) not in braids._LETTER_MEMO
    m1, _ = letter_matrix(first, H1, "b2", 1)
    assert m1.tobytes() == _memo_free_letter(first, H1, "b2", 1).tobytes()


def test_letter_memo_bytes_grow_with_nonzeros_not_dim_squared(monkeypatch):
    # a letter has at most two nonzeros per column, so its memo entry holds
    # at most 2 dim values; ten dense letters at dim 252 would hold 10 MB
    monkeypatch.setattr(braids, "_LETTER_MEMO", {})
    space = qubit_space(ModelParams.from_string("12/5"), 5)
    dim = len(space.basis)
    assert dim == 252
    word = BraidWord.parse("x " + " ".join(f"b{i}" for i in range(2, 11)))
    evaluate_word(space.params, space.leaves, word, charge=space.charge)
    assert len(braids._LETTER_MEMO) == 10
    kept = 0
    for plan, vals in braids._LETTER_MEMO.values():
        assert vals.dtype == np.complex128 and vals.shape == (len(plan.entries),)
        assert len(plan.entries) <= 2 * dim
        kept += vals.nbytes + plan.entries.nbytes
    assert kept < dim * dim * 16


def test_letter_memo_under_concurrent_callers(monkeypatch):
    # more threads than cores share a memo of 8; eviction must never raise,
    # let the memo pass its bound or hand a thread a letter that differs
    # from a memo-free build
    import sys
    import threading
    monkeypatch.setattr(braids, "_LETTER_MEMO", {})
    monkeypatch.setattr(braids, "_LETTER_MEMO_SIZE", 8)
    params = [ModelParams(2.1 + 0.8 * j / 50) for j in range(50)]
    want = [_memo_free_letter(p, H1, "x", 1).tobytes() for p in params]
    errors = []

    def work(seed):
        try:
            for k in range(150):
                j = (seed * 37 + k) % 50
                m, _ = letter_matrix(params[j], H1, "x", 1)
                assert len(braids._LETTER_MEMO) <= 8
                assert m.tobytes() == want[j]
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_empty_word_is_identity():
    p = ModelParams(2.4)
    m = evaluate_word(p, H1, BraidWord(()))
    assert np.allclose(m, np.eye(2))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_wrap_matches_closed_form_sampled():
    for al in sample_alphas(50):
        p = ModelParams(float(al))
        x = evaluate_word(p, H1, BraidWord.parse("x"))
        assert np.max(np.abs(SPECIAL_UNITARY_PHASES["x"] * x
                             - wrap_closed_form(p, phased=True))) < 1e-10


def test_exchange_matches_closed_form_sampled():
    for al in sample_alphas(50):
        p = ModelParams(float(al))
        b = evaluate_word(p, H1, BraidWord.parse("b2"))
        assert np.max(np.abs(SPECIAL_UNITARY_PHASES["b2"] * b
                             - exchange_closed_form(p, phased=True))) < 1e-10


def test_phased_wrap_is_q_powers():
    p = ModelParams(2.4)
    m = wrap_closed_form(p, phased=True)
    assert m[0, 0] == pytest.approx(q_power(2.4))
    assert m[1, 1] == pytest.approx(q_power(-2.4))


def test_phased_generators_special_unitary():
    for al in sample_alphas(20):
        p = ModelParams(float(al))
        for mat in (wrap_closed_form(p, phased=True), exchange_closed_form(p, phased=True)):
            assert abs(np.linalg.det(mat) - 1) < 1e-10
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(2))) < 1e-10


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", ["2.4", "2.7", "12/5"])
def test_affine_relation(alpha):
    p = ModelParams.from_string(alpha)
    for leaves in (H1, (ALPHA,) + (SIGMA,) * 4, (ALPHA, PSI, SIGMA, SIGMA)):
        lhs, e1 = evaluate_word_open(p, leaves, BraidWord.parse("x b2 x b2"))
        rhs, e2 = evaluate_word_open(p, leaves, BraidWord.parse("b2 x b2 x"))
        assert e1 == e2
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_braid_relation_adjacent_exchanges():
    p = ModelParams(2.4)
    leaves = (ALPHA,) + (SIGMA,) * 4
    lhs = evaluate_word(p, leaves, BraidWord.parse("b2 b3 b2"))
    rhs = evaluate_word(p, leaves, BraidWord.parse("b3 b2 b3"))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_inverse_composes_to_identity():
    p = ModelParams(2.4)
    for word in ("x x^-1", "b2 b2^-1", "b3^2 b3^-2"):
        m = evaluate_word(p, (ALPHA,) + (SIGMA,) * 4, BraidWord.parse(word))
        assert np.allclose(m, np.eye(6), atol=1e-12)


# ---------------------------------------------------------------------------
# two-qubit block structure
# ---------------------------------------------------------------------------

def test_two_qubit_block_forms():
    p = ModelParams(2.4)
    leaves = (ALPHA,) + (SIGMA,) * 4
    for gen, word in (("x", "x"), ("b2", "b2"), ("b4", "b4"),
                      ("j4", "b3 b2 x b2 b3")):
        m = evaluate_word(p, leaves, BraidWord.parse(word))
        assert np.max(np.abs(m - two_qubit_block_form(p, gen))) < 1e-10


def test_two_qubit_block_form_has_no_other_generator():
    with pytest.raises(ValueError, match="no closed block form for 'b3'"):
        two_qubit_block_form(ModelParams(2.4), "b3")


def test_letter_with_an_untabulated_f_family_raises():
    # b2 on a,psi,psi exchanges two psi legs, whose F[a,psi,psi;a] has no row
    with pytest.raises(UnsupportedFamily, match=re.escape("F[a,psi,psi;a] not tabulated")):
        letter_matrix(ModelParams(2.4), (ALPHA, PSI, PSI), "b2", 1)


def test_j4_acts_trivially_on_first_qubit():
    # the composite pole braid slides through earlier fusions: its
    # computational block is the same single-qubit gate for both values of
    # the first qubit
    p = ModelParams(2.4)
    space = qubit_space(p, 2)
    m = evaluate_word(p, space.leaves, J4_WORD)
    blocks = block_decompose(m, space)
    comp = blocks.computational
    # basis 00,10,01,11: first qubit fast; fix first qubit = 0 and 1
    sub0 = comp[np.ix_((0, 2), (0, 2))]
    sub1 = comp[np.ix_((1, 3), (1, 3))]
    assert np.allclose(sub0, sub1, atol=1e-10)
    assert np.max(np.abs(comp[np.ix_((0, 2), (1, 3))])) < 1e-12


def test_same_word_on_j4_b4_gives_second_qubit_gate():
    p = ModelParams(2.4)
    leaves = (ALPHA,) + (SIGMA,) * 4
    seq_first = BraidWord.parse("x b2 x^-1 b2^2")
    m_first = evaluate_word(p, leaves, seq_first)
    # the same sequence with x -> b3 b2 x b2 b3 and b2 -> b4
    letters = []
    for tok, pw in seq_first.letters:
        if tok == "x":
            s = 1 if pw > 0 else -1
            letters.extend([("b3", s), ("b2", s), ("x", pw), ("b2", s), ("b3", s)])
        else:
            letters.append(("b4", pw))
    m_second = evaluate_word(p, leaves, BraidWord.from_letters(letters))
    space = qubit_space(p, 2)
    c1 = block_decompose(m_first, space).computational
    c2 = block_decompose(m_second, space).computational
    u1 = c1[np.ix_((0, 1), (0, 1))]      # action on first qubit (second = 0)
    u2 = c2[np.ix_((0, 2), (0, 2))]      # action on second qubit (first = 0)
    assert np.allclose(u1, u2, atol=1e-10)


def test_block_decompose_rejects_mixing():
    p = ModelParams(2.4)
    space = qubit_space(p, 2)
    m = np.eye(6, dtype=complex)
    m[0, 4] = 0.5
    with pytest.raises(NotBlockDiagonal) as err:
        block_decompose(m, space)
    assert err.value.norm == pytest.approx(0.5)


@pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
def test_block_decompose_rejects_a_nan_off_block_entry(entry):
    # on the psi sector (computational 1, 2) a NaN in either off-block raises,
    # so no NaN passes as block-diagonal
    space = psi_sector(ModelParams(2.4))
    m = np.eye(4, dtype=complex)
    m[entry] = np.nan
    with pytest.raises(NotBlockDiagonal) as err:
        block_decompose(m, space)
    assert math.isnan(err.value.norm)


# ---------------------------------------------------------------------------
# pseudo-unitarity
# ---------------------------------------------------------------------------

def test_generator_pseudo_unitarity():
    p = ModelParams(2.4)
    for leaves, gens in ((H1, ["x", "b2"]),
                         ((ALPHA,) + (SIGMA,) * 4, ["x", "b2", "b3", "b4"])):
        space = qubit_space(p, (len(leaves) - 1) // 2)
        for g in gens:
            bm = generator_matrix(space, g, 1)
            assert pseudo_unitarity_defect(bm.matrix, space) < 1e-12
            assert abs(abs(np.linalg.det(bm.matrix)) - 1) < 1e-12


def test_identity_has_zero_defect():
    space = qubit_space(ModelParams(2.4), 1)
    assert pseudo_unitarity_defect(np.eye(2), space) == 0.0


def test_defect_grows_linearly_in_perturbation():
    # first-order growth checked by halving epsilon
    space = qubit_space(ModelParams(2.4), 1)
    m = evaluate_word(space.params, H1, BraidWord.parse("b2"))
    e = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    d1 = pseudo_unitarity_defect(m + 1e-6 * e, space)
    d2 = pseudo_unitarity_defect(m + 5e-7 * e, space)
    assert d1 / d2 == pytest.approx(2.0, rel=0.05)


def test_generator_matrix_rejects_open_letter():
    p = ModelParams(2.4)
    from nss import IndefSpace
    psi_space = IndefSpace.build(p, (ALPHA, PSI, SIGMA, SIGMA))
    with pytest.raises(LeakyPermutation):
        generator_matrix(psi_space, "b2", 1)
    with pytest.raises(LeakyPermutation):
        evaluate_word(p, psi_space.leaves, BraidWord.parse("b2 x b2^2"))


def test_word_unit_letters_are_capped_before_any_letter_is_built(monkeypatch):
    p = ModelParams(2.4)
    space = qubit_space(p, 1)

    def no_letter(*args, **kwargs):
        raise AssertionError("a letter was built")

    monkeypatch.setattr(braids, "letter_matrix", no_letter)
    for word in ("b2^100001", "b2^60000 x^-40001", "b2^999999999"):
        with pytest.raises(ValueError, match="unit letters"):
            evaluate_word_open(p, space.leaves, BraidWord.parse(word))
    with pytest.raises(ValueError, match="100001 unit letters"):
        generator_matrix(space, "x", -100001)


def test_half_exchange_letter_closes_at_even_count():
    p = ModelParams(2.4)
    m = evaluate_word(p, (ALPHA, PSI, SIGMA, SIGMA), BraidWord.parse("h1^2"))
    x = evaluate_word(p, (ALPHA, PSI, SIGMA, SIGMA), BraidWord.parse("x"))
    assert np.allclose(m, x, atol=1e-12)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def test_exchange_has_projective_order_four():
    space = qubit_space(ModelParams(2.4), 1)
    b = generator_matrix(space, "b2", 1, SPECIAL_UNITARY_PHASES["b2"]).matrix
    res = matrix_order(b, 20, 1e-10)
    assert res.projective == 4
    assert res.scalar == pytest.approx(-1.0)
    assert res.strict == 8


def test_identity_order_one():
    res = matrix_order(np.eye(3), 5)
    assert res.projective == 1 and res.strict == 1


def test_infinite_order_word_and_eigenphase():
    p = ModelParams.from_string("12/5")
    space = qubit_space(p, 1)
    x = generator_matrix(space, "x", 1, SPECIAL_UNITARY_PHASES["x"]).matrix
    b = generator_matrix(space, "b2", 1, SPECIAL_UNITARY_PHASES["b2"]).matrix
    m = b @ x @ b @ b
    res = matrix_order(m, 10_000, 1e-8)
    assert res.projective is None
    # 2 cos(theta) matches the smaller positive root of x^4 - 6x^2 + 4
    tr = complex(np.trace(m))
    assert abs(tr.imag) < 1e-12
    assert abs(tr.real) == pytest.approx(math.sqrt(3 - math.sqrt(5)), abs=1e-10)


def _order_cases():
    """(matrix, max_n, tol, projective, strict): each case with the orders it
    is built to have."""
    p125 = ModelParams.from_string("12/5")
    s125 = qubit_space(p125, 1)
    x = generator_matrix(s125, "x", 1, SPECIAL_UNITARY_PHASES["x"]).matrix
    b = generator_matrix(s125, "b2", 1, SPECIAL_UNITARY_PHASES["b2"]).matrix
    # b x b b has infinite order (test_infinite_order_word_and_eigenphase)
    cases = [(b @ x @ b @ b, 300, 1e-8, None, None),
             (np.eye(2), 5, 1e-10, 1, 1), (-np.eye(2), 5, 1e-10, 1, 2),
             (np.diag([1j, 1j]), 5, 1e-10, 1, 4),
             # exp(i) is no root of unity: scalar at k = 1, never the identity
             (cmath.exp(1j) * np.eye(2), 40, 1e-10, 1, None)]
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    two = qubit_space(ModelParams(2.4), 2)
    cases += [(u, 300, 1e-10, None, None),
              (generator_matrix(two, "b2").matrix, 100, 1e-10, 4, 16)]
    # projective at k=5 within a loose tol, exit at 80; k=485 is closer still
    cases.append((cmath.exp(1j) * np.diag([1, cmath.exp(2j * math.pi * 98 / 485)]),
                  1_000, 0.05, 5, None))
    # b2^4 is a scalar whatever the phase; the phase sets the strict order
    for al in (2.15, 2.4, 2.85):
        space = qubit_space(ModelParams(al), 1)
        for phase, strict in ((SPECIAL_UNITARY_PHASES["b2"], 8), (None, 16),
                              (cmath.exp(1j), None)):
            m = generator_matrix(space, "b2", 1, phase).matrix
            cases += [(m, 16, 1e-10, 4, strict), (m, 1_000, 1e-10, 4, strict)]
    # exits at k = 257 (strict) and k = 4,096 (projective 256 times 2 * 8)
    cases.append((np.diag([1, cmath.exp(2j * math.pi / 257)]), 600, 1e-10, 257, 257))
    cases.append((cmath.exp(1j) * np.diag([1, cmath.exp(2j * math.pi / 256)]), 5_000, 1e-10,
                  256, None))
    # projective at 100, strict at 300
    cases.append((cmath.exp(2j * math.pi / 300) * np.diag([1, cmath.exp(2j * math.pi / 100)]),
                  1_000, 1e-10, 100, 300))
    # projective at 32; its cap, 8 * 2 * 32 = 512, ends the scan, and k = 513
    # (not covered) would have the best defect
    cases.append((cmath.exp(1j) * np.diag([1, cmath.exp(2j * math.pi * 16 / 513)]), 1_000, 0.01,
                  32, None))
    # every defect is NaN, which min() never takes over inf
    cases.append((np.array([[1, math.nan], [0, 1]]), 600, 1e-10, None, None))
    return cases


def test_matrix_order_finds_the_built_orders():
    exits = set()
    for m, max_n, tol, projective, strict in _order_cases():
        res = matrix_order(m, max_n, tol)
        assert (res.projective, res.strict, res.max_checked) == (projective, strict, max_n)
        assert (res.defect < tol) == (projective is not None)
        assert res.scalar is None or type(res.scalar) is complex
        if res.strict is not None:
            exits.add("strict")
        elif res.projective is not None and 8 * len(m) * res.projective <= max_n:
            exits.add("projective*n*8")
        else:
            exits.add("max_n")
    assert exits == {"strict", "projective*n*8", "max_n"}


def test_wrap_memo_consistency():
    # repeated evaluation hits the memo and stays identical
    p = ModelParams(2.4)
    m1 = evaluate_word(p, H1, BraidWord.parse("x b2"))
    m2 = evaluate_word(p, H1, BraidWord.parse("x b2"))
    assert np.array_equal(m1, m2)


# ---------------------------------------------------------------------------
# random-word properties
# ---------------------------------------------------------------------------

def _random_word(rng, length, toks=("x", "b2", "b3", "b4")):
    letters = []
    prev = None
    for _ in range(length):
        tok = str(rng.choice([t for t in toks if t != prev]))
        prev = tok
        letters.append((tok, int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)))
    return BraidWord.from_letters(letters)


def test_random_words_pseudo_unitary_and_invertible():
    p = ModelParams(2.4)
    space = qubit_space(p, 2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = _random_word(rng, 6)
        m = evaluate_word(p, space.leaves, w)
        assert pseudo_unitarity_defect(m, space) < 1e-10
        mi = evaluate_word(p, space.leaves, w.inverse())
        assert np.max(np.abs(m @ mi - np.eye(6))) < 1e-9


def test_leakage_free_alphabet_preserves_partition():
    # words avoiding the middle exchange stay block diagonal over the
    # computational split; the middle exchange itself leaks into the
    # noncomputational pair, which is what the gate construction fights
    from nss import block_decompose
    p = ModelParams(2.4)
    space = qubit_space(p, 2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = _random_word(rng, 5, toks=("x", "b2", "b4"))
        m = evaluate_word(p, space.leaves, w)
        blocks = block_decompose(m, space, tol=1e-9)
        assert blocks.leakage < 1e-9
    b3 = evaluate_word(p, space.leaves, BraidWord.parse("b3"))
    with pytest.raises(NotBlockDiagonal):
        block_decompose(b3, space, tol=1e-6)


# ---------------------------------------------------------------------------
# letter plans against the per-column builders they replaced
# ---------------------------------------------------------------------------

def _oracle_wrap(leaves, basis, params, inverse, ns):
    n = len(basis)
    m = np.zeros((n, n), dtype=ns.dtype)
    for j, tree in enumerate(basis):
        c1 = tree.chain[1]
        ph = (r_symbol(leaves[1], leaves[0], c1, params, ns)
              * r_symbol(leaves[0], leaves[1], c1, params, ns))
        m[j, j] = 1 / ph if inverse else ph
    return m, tuple(leaves)


def _oracle_half_exchange(leaves, basis, i, params, inverse, ns):
    new_leaves = apply_letter_to_leaves(leaves, f"b{i + 1}")
    new_basis = enumerate_basis(new_leaves, basis[0].root)
    idx = {t.chain: k for k, t in enumerate(new_basis)}
    m = np.zeros((len(new_basis), len(basis)), dtype=ns.dtype)
    P, Q = leaves[i], leaves[i + 1]
    f_blocks = {}
    r_phases = {}
    for j, tree in enumerate(basis):
        ch = tree.chain
        outer = (ch[i - 1], ch[i + 1])
        if outer not in f_blocks:
            f_src = f_matrix(ch[i - 1], P, Q, ch[i + 1], params, ns)
            f_tgt = f_matrix(ch[i - 1], Q, P, ch[i + 1], params, ns)
            f_blocks[outer] = (f_src, f_tgt, f_tgt.inverse())
        f_src, f_tgt, f_tgt_inv = f_blocks[outer]
        col = f_src.cols.index(ch[i])
        for tj, mt in enumerate(f_tgt.cols):
            amp = 0
            for wi, w in enumerate(f_src.rows):
                if w not in r_phases:
                    r_phases[w] = (1 / r_symbol(P, Q, w, params, ns) if inverse
                                   else r_symbol(Q, P, w, params, ns))
                r = r_phases[w]
                wt = f_tgt.rows.index(w)
                amp = amp + f_tgt_inv[tj, wt] * r * f_src.matrix[wi, col]
            target = ch[:i] + (mt,) + ch[i + 1:]
            if target in idx:
                m[idx[target], j] = m[idx[target], j] + amp
    return m, new_leaves


def _oracle_half_pole(leaves, basis, params, inverse, ns):
    new_leaves = apply_letter_to_leaves(leaves, "h1")
    new_basis = enumerate_basis(new_leaves, basis[0].root)
    idx = {t.chain: k for k, t in enumerate(new_basis)}
    m = np.zeros((len(new_basis), len(basis)), dtype=ns.dtype)
    for j, tree in enumerate(basis):
        ch = tree.chain
        if inverse:
            r = 1 / r_symbol(leaves[0], leaves[1], ch[1], params, ns)
        else:
            r = r_symbol(leaves[1], leaves[0], ch[1], params, ns)
        m[idx[(new_leaves[0],) + ch[1:]], j] = r
    return m, new_leaves


def _oracle_letter(params, leaves, tok, sign, ns):
    """The letter as the parent's per-column builders computed it."""
    basis = enumerate_basis(leaves, leaves[0])
    if tok == "x":
        return _oracle_wrap(leaves, basis, params, sign < 0, ns)
    if tok == "h1":
        return _oracle_half_pole(leaves, basis, params, sign < 0, ns)
    return _oracle_half_exchange(leaves, basis, int(tok[1:]) - 1, params, sign < 0, ns)


def _letter_cases():
    systems = [parse_leaves(t) for t in ("a,s,s", "a,psi,s,s", "a,s,psi,s", "a,s,s,s,s")]
    systems.append(qubit_space(ModelParams(2.4), 4).leaves)
    for leaves in systems:
        toks = ["x", "h1"] + [f"b{k}" for k in range(2, len(leaves))]
        for tok in toks:
            for sign in (1, -1):
                yield leaves, tok, sign


def _per_column_plan(leaves, charge, tok):
    """A letter's plan built column by column: every column looks up its own
    two F blocks and labels the terms of each entry it keeps, so blocks,
    labels and amplitudes are numbered in order of first appearance."""
    new_leaves, i = apply_letter_to_leaves(leaves, tok), braids._strand(tok)
    basis = enumerate_basis(leaves, charge)
    idx = {t.chain: k for k, t in enumerate(enumerate_basis(new_leaves, charge))}
    blocks, labels, amps, entries = {}, {}, {}, []

    def block(args):
        return (blocks.setdefault(args, len(blocks)),) + f_channels(*args)

    def label(*triples):
        return labels.setdefault(triples, len(labels))

    for j, tree in enumerate(basis):
        ch = tree.chain
        if tok in ("x", "h1"):
            L0, L1 = leaves[:2]
            triples = ((L1, L0, ch[1]), (L0, L1, ch[1]))[:2 if tok == "x" else 1]
            entries.append((idx[(new_leaves[0],) + ch[1:]], j, label(*triples)))
            continue
        P, Q = leaves[i], leaves[i + 1]
        sb, s_rows, s_cols = block((ch[i - 1], P, Q, ch[i + 1]))
        tb, t_rows, t_cols = block((ch[i - 1], Q, P, ch[i + 1]))
        col = s_cols.index(ch[i])
        for tj, mt in enumerate(t_cols):
            target = ch[:i] + (mt,) + ch[i + 1:]
            if target in idx:
                terms = tuple(((tb, tj, t_rows.index(w)), label((Q, P, w)), (sb, wi, col))
                              for wi, w in enumerate(s_rows))
                entries.append((idx[target], j, amps.setdefault(terms, len(amps))))
    return (new_leaves, (len(idx), len(basis)), tuple(blocks), tuple(labels), tuple(amps),
            np.array(entries, dtype=np.intp).reshape(-1, 3))


def test_letter_plans_equal_the_per_column_plans():
    # the plans visit each local vertex once; on the 4-qubit space a b-letter's
    # 70 columns share 4 to 14 of them
    n = 0
    for leaves, tok, sign in _letter_cases():
        if sign < 0:
            continue
        plan = braids._letter_plan(leaves, leaves[0], tok)
        want = _per_column_plan(leaves, leaves[0], tok)
        got = (plan.leaves, plan.shape, plan.f_args, plan.r_args, plan.amplitudes)
        assert got == want[:5], (leaves, tok)
        assert plan.entries.dtype == want[5].dtype
        assert np.array_equal(plan.entries, want[5]), (leaves, tok)
        n += 1
    assert n == 3 + 4 + 4 + 5 + 9


def test_letter_plan_refuses_a_target_basis_missing_a_tree(monkeypatch):
    # a target tree that the basis lacks would drop an amplitude from the
    # letter; building the plan must raise instead
    leaves = parse_leaves("a,psi,s,s")
    target = apply_letter_to_leaves(leaves, "b2")
    real = braids.enumerate_basis

    def short(lv, charge):
        basis = real(lv, charge)
        return basis[1:] if tuple(lv) == target else basis

    braids._letter_plan.cache_clear()
    monkeypatch.setattr(braids, "enumerate_basis", short)
    try:
        with pytest.raises(KeyError):
            braids._letter_plan(leaves, leaves[0], "b2")
    finally:
        braids._letter_plan.cache_clear()


LETTER_ALPHAS = (Fraction(12, 5), Fraction(2003, 1000), Fraction(293, 100))


@pytest.mark.parametrize("alpha", LETTER_ALPHAS, ids=str)
def test_float_letters_bit_identical_to_oracle(alpha):
    p = ModelParams(float(alpha), exact=alpha)
    n = 0
    for leaves, tok, sign in _letter_cases():
        m, out = letter_matrix(p, leaves, tok, sign, ns=FLOAT_NS, symbols={})
        want, want_out = _oracle_letter(p, leaves, tok, sign, FLOAT_NS)
        assert out == want_out
        assert m.dtype == want.dtype and m.shape == want.shape
        assert m.tobytes() == want.tobytes(), (leaves, tok, sign)
        n += 1
    assert n == 2 * (3 + 4 + 4 + 5 + 9)


@pytest.mark.parametrize("alpha", LETTER_ALPHAS, ids=str)
def test_mp_letters_equal_to_oracle(alpha):
    p = ModelParams(float(alpha), exact=alpha)
    ns = mp_namespace(40)
    symbols = {}
    for leaves, tok, sign in _letter_cases():
        m, out = letter_matrix(p, leaves, tok, sign, ns=ns, symbols=symbols)
        # the oracle's own namespace, so a memo fault cannot hide on both sides
        want, want_out = _oracle_letter(p, leaves, tok, sign, mp_namespace(40))
        assert out == want_out and m.shape == want.shape
        assert all(a == b for a, b in zip(m.ravel(), want.ravel())), (leaves, tok, sign)


# ---------------------------------------------------------------------------
# letter values against amplitudes formed from numpy scalars
# ---------------------------------------------------------------------------

def _numpy_scalar_entry_values(plan, blocks, phases, dtype):
    """The values at plan.entries with each amplitude term read from the 2-D
    (block, inverse) arrays, multiplying and summing their numpy scalars."""
    values = phases
    if plan.amplitudes:
        values = []
        for terms in plan.amplitudes:
            amp = 0
            for (tb, tj, wt), lab, (sb, wi, col) in terms:
                amp = amp + blocks[tb][1][tj, wt] * phases[lab] * blocks[sb][0][wi, col]
            values.append(amp)
    return np.array(values, dtype)[plan.entries[:, 2]]


def _numpy_scalar_letter(params, leaves, tok, sign, ns):
    """letter_matrix's matrix, from the same plan, F blocks and R symbols,
    with the F blocks kept as arrays."""
    plan = braids._letter_plan(leaves, leaves[0], tok)
    blocks = []
    for args in plan.f_args:
        blk = f_matrix(*args, params, ns)
        blocks.append((blk.matrix, blk.inverse()))
    phases = []
    for triples in plan.r_args:
        if sign < 0:
            triples = tuple((a, b, c) for b, a, c in reversed(triples))
        ph = functools.reduce(operator.mul, [r_symbol(*args, params, ns) for args in triples])
        phases.append(1 / ph if sign < 0 else ph)
    m = np.zeros(plan.shape, dtype=ns.dtype)
    m[plan.entries[:, 0], plan.entries[:, 1]] = _numpy_scalar_entry_values(
        plan, blocks, phases, ns.dtype)
    return m


# both ends of the bench's alpha range and 20 seeded alphas in (2, 3)
ORACLE_ALPHAS = (2.001, 2.999) + tuple(np.random.default_rng(41).uniform(2, 3, 20).tolist())


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_float_letters_match_numpy_scalar_amplitudes_bit_for_bit(alpha):
    # every letter and sign on a,s,s, both arrangements of a,psi,s,s, a,s^4
    # and a,s^8: Python-number amplitudes round as numpy's scalars do
    p = ModelParams(alpha)
    n = 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(braids, "_LETTER_MEMO", {})
        symbols = {}
        for leaves, tok, sign in _letter_cases():
            got = letter_matrix(p, leaves, tok, sign, symbols=symbols)[0]
            want = _numpy_scalar_letter(p, leaves, tok, sign, FLOAT_NS)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (leaves, tok, sign)
            n += 1
    assert n == 2 * (3 + 4 + 4 + 5 + 9)


@pytest.mark.parametrize("alpha", [Fraction(2001, 1000), Fraction(12, 5), Fraction(2999, 1000)],
                         ids=str)
def test_mp_letters_match_numpy_scalar_amplitudes(alpha):
    p = ModelParams(float(alpha), exact=alpha)
    ns = mp_namespace(50)
    symbols = {}
    for leaves, tok, sign in _letter_cases():
        got = letter_matrix(p, leaves, tok, sign, ns=ns, symbols=symbols)[0]
        want = _numpy_scalar_letter(p, leaves, tok, sign, mp_namespace(50))
        assert got.shape == want.shape
        assert all(a == b for a, b in zip(got.ravel(), want.ravel())), (leaves, tok, sign)


def test_letter_stack_matches_the_scalar_letters_bit_for_bit():
    # every positive letter whose F blocks are all 2x2 families (the ones
    # _letter_stack takes), at the oracle alphas
    alphas = np.array(ORACLE_ALPHAS)
    n = 0
    for leaves, tok, sign in _letter_cases():
        plan = braids._letter_plan(leaves, leaves[0], tok)
        if sign < 0 or any(len(f_channels(*args)[0]) != 2 for args in plan.f_args):
            continue
        stack = braids._letter_stack(leaves, tok, alphas, 1e-10)
        assert stack.shape == (len(alphas),) + plan.shape
        for al, m in zip(ORACLE_ALPHAS, stack):
            want = letter_matrix(ModelParams(al), leaves, tok, 1)[0]
            assert m.tobytes() == want.tobytes(), (leaves, tok, al)
        n += 1
    assert n == 14


def test_mp_word_evaluates_each_f_block_once(monkeypatch):
    calls = []
    real = braids.f_matrix

    def counting(*args, **kwargs):
        calls.append(args[:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(braids, "f_matrix", counting)
    p = ModelParams.from_string("12/5")
    ns = mp_namespace(40)
    evaluate_word(p, PSI_LEAVES, W_WORD, ns=ns)
    assert len(calls) == 4 and len(set(calls)) == 4
    evaluate_word(p, PSI_LEAVES, W_WORD, ns=ns)
    assert len(calls) == 8


class _NeverHits(dict):
    """A letter memo that stores every letter and never returns one."""

    def get(self, key, default=None):
        return default


def _count_entry_values(monkeypatch):
    """The plans that braids._entry_values is called with from now on."""
    plans = []
    real = braids._entry_values

    def counting(plan, *args):
        plans.append(plan)
        return real(plan, *args)

    monkeypatch.setattr(braids, "_entry_values", counting)
    return plans


@pytest.mark.parametrize("word, distinct", [(W_WORD, 5), (D_WORD, 1), (LOW_LEAKAGE_WORD, 7)],
                         ids=["W", "D", "low-leakage"])
def test_mp_word_builds_each_distinct_letter_once(monkeypatch, word, distinct):
    # W's 8 unit letters are 5 distinct (leaves, generator, sign) letters, D's
    # 2 are 1 and LOW_LEAKAGE_WORD's 14 are 7; a repeated letter is scattered
    # from the values its first build kept, which changes no bit of the word
    p, ns = ModelParams.from_string("12/5"), mp_namespace(40)
    plans = _count_entry_values(monkeypatch)
    got = evaluate_word(p, PSI_LEAVES, word, ns=ns)
    assert len(plans) == distinct
    want, cur = None, PSI_LEAVES
    for tok, power in word.letters:
        for _ in range(abs(power)):  # each letter built apart, with symbols of its own
            lm, cur = letter_matrix(p, cur, tok, 1 if power > 0 else -1, ns=ns)
            want = lm if want is None else lm @ want
    assert [str(z) for z in got.ravel()] == [str(z) for z in want.ravel()]


@pytest.mark.parametrize("memo", [dict, _NeverHits], ids=["empty-memo", "memo-never-hits"])
def test_float_word_builds_each_distinct_letter_once(monkeypatch, memo):
    monkeypatch.setattr(braids, "_LETTER_MEMO", memo())
    plans = _count_entry_values(monkeypatch)
    got = evaluate_word(ModelParams(2.4), PSI_LEAVES, LOW_LEAKAGE_WORD)
    assert len(plans) == 7
    monkeypatch.setattr(braids, "_LETTER_MEMO", {})
    assert got.tobytes() == evaluate_word(ModelParams(2.4), PSI_LEAVES, LOW_LEAKAGE_WORD).tobytes()


@pytest.mark.parametrize("ns", [FLOAT_NS, mp_namespace(40)], ids=["float", "mp"])
def test_a_repeated_letter_is_a_fresh_copy(monkeypatch, ns):
    # writing into one returned letter changes no later copy of it within
    # the same evaluation
    monkeypatch.setattr(braids, "_LETTER_MEMO", _NeverHits())
    p, symbols = ModelParams.from_string("12/5"), {}
    first, leaves = letter_matrix(p, PSI_LEAVES, "b2", -1, ns=ns, symbols=symbols)
    want = [str(z) for z in first.ravel()]
    plan, vals = symbols[(p, PSI_LEAVES, ALPHA, "b2", -1)]
    assert plan.leaves == leaves and not vals.flags.writeable
    first[...] = 0
    second, _ = letter_matrix(p, PSI_LEAVES, "b2", -1, ns=ns, symbols=symbols)
    assert second is not first and [str(z) for z in second.ravel()] == want


def test_mp_word_follows_the_working_precision():
    # the working precision is the namespace's dps, whatever mpmath's global precision
    p = ModelParams.from_string("12/5")
    ns30, ns60 = mp_namespace(30), mp_namespace(60)

    def at(ns):
        m = evaluate_word(p, PSI_LEAVES, W_WORD, ns=ns)
        return [str(z) for z in m.ravel()]

    first30, first60 = at(ns30), at(ns60)
    assert first30 != first60
    assert first30 == at(ns30) and first60 == at(ns60)
    with mpmath.workdps(5):
        assert at(ns30) == first30 and at(mp_namespace(60)) == first60

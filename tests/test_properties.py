"""Property tests over random alpha: F-move identities, the integer ends and
double against mpmath precision; over random words: the search's rank text,
w w^-1 = 1 and double against mpmath precision.

Deterministic (derandomized, no example database) with fixed example counts.
"""
import math

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nss import (ALPHA, PSI, SIGMA, BraidWord, IntegerAlpha, ModelParams,  # noqa: E402
                 SingularParameter, bubble_pop, evaluate_word, f_matrix, r_symbol)
from nss.braids import evaluate_word_open, letter_matrix  # noqa: E402
from nss.anyon import _B_TABLE, _F_FAMILIES, _R_TABLE, mp_namespace  # noqa: E402
from nss.gates import _syllable_powers, _word_text  # noqa: E402

FAMILIES_2X2 = [f for f in _F_FAMILIES if f_matrix(*f, ModelParams(2.4)).matrix.shape == (2, 2)]
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

alphas = st.floats(2.001, 2.999)


def _metric(blk, a, b, c, d, p):
    """The bubble-sign metrics of the two tree shapes, as the verify check forms them."""
    jr = np.diag([math.copysign(1.0, bubble_pop(b, c, n, p) * bubble_pop(a, n, d, p))
                  for n in blk.rows])
    jc = np.diag([math.copysign(1.0, bubble_pop(a, b, m, p) * bubble_pop(m, c, d, p))
                  for m in blk.cols])
    return jr, jc


@PROPERTY
@given(alpha=alphas, fam=st.sampled_from(FAMILIES_2X2))
def test_f_blocks_are_pseudo_unitary(alpha, fam):
    p = ModelParams(alpha)
    blk = f_matrix(*fam, p)
    jr, jc = _metric(blk, *fam, p)
    m = blk.matrix
    assert np.max(np.abs(m.conj().T @ jr @ m - jc)) < 1e-9


@PROPERTY
@given(alpha=alphas, fam=st.sampled_from(_F_FAMILIES))
def test_f_times_inverse_is_identity(alpha, fam):
    blk = f_matrix(*fam, ModelParams(alpha))
    assert np.max(np.abs(blk.matrix @ blk.inverse() - np.eye(len(blk.rows)))) < 1e-9


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(end=st.sampled_from([2, 3]), offset=st.floats(-1e-6, 1e-6))
def test_near_integer_alpha_raises_or_stays_finite(end, offset):
    try:
        p = ModelParams(end + offset)
        values = [f_matrix(*fam, p).matrix for fam in _F_FAMILIES]
        values.append(np.array([r_symbol(*row, p) for row in _R_TABLE]))
        values.append(evaluate_word(p, (ALPHA, SIGMA, SIGMA), BraidWord.parse("x b2 x^-1 b2^2")))
    except (IntegerAlpha, SingularParameter):
        return
    assert all(np.all(np.isfinite(v)) for v in values)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(alpha=alphas)
def test_float_symbols_match_mpmath(alpha):
    # every table row in double precision against mpmath at 50 digits; the
    # F rows lose most (~1e-11) near the ends of (2, 3)
    p = ModelParams(alpha)
    with mpmath.workdps(50):
        ns = mp_namespace()
        pairs = [(bubble_pop(*row, p), bubble_pop(*row, p, ns)) for row in _B_TABLE]
        pairs += [(r_symbol(*row, p), r_symbol(*row, p, ns)) for row in _R_TABLE]
        for fam in _F_FAMILIES:
            pairs += zip(f_matrix(*fam, p).matrix.flat, f_matrix(*fam, p, ns).matrix.flat)
        for fl, exact in pairs:
            assert abs(fl - complex(exact)) <= 1e-10 * max(1.0, abs(exact))


@PROPERTY
@given(max_power=st.integers(1, 3), length=st.integers(1, 11), data=st.data())
def test_search_rank_text_is_the_word_text(max_power, length, data):
    # the search ranks equal-length words by this text
    syllables = [(t, p) for t in ("x", "b2") for p in _syllable_powers(max_power)]
    word = st.lists(st.sampled_from(syllables), min_size=length, max_size=length).map(tuple)
    words = data.draw(st.lists(word, min_size=2, max_size=20))
    text = _word_text(syllables)
    assert [text(w) for w in words] == [str(BraidWord(w)) for w in words]
    assert sorted(words, key=text) == sorted(words, key=lambda w: str(BraidWord(w)))


LETTERS = ["x", "h1", "b2", "b3", "b10"]


@PROPERTY
@given(letters=st.lists(st.tuples(
    st.sampled_from(LETTERS + ["B2", "b02", "X", "H1", "b1", "b0", "h2", "x2", "y", "bx", ""]),
    st.integers(-3, 3)), max_size=8))
def test_checked_words_print_and_parse_back(letters):
    # the one letter rule: canonical tokens only, zero powers dropped
    if any(tok not in LETTERS for tok, _ in letters):
        with pytest.raises(ValueError):
            BraidWord.from_letters(letters)
        return
    w = BraidWord.from_letters(letters)
    assert w.letters == tuple((t, p) for t, p in letters if p)
    assert BraidWord.parse(str(w)) == w == BraidWord.from_letters(w.letters)


SYSTEMS = [(ALPHA, SIGMA, SIGMA), (ALPHA,) + (SIGMA,) * 4, (ALPHA, PSI, SIGMA, SIGMA)]


@st.composite
def system_words(draw, max_syllables=8, max_power=3):
    """A working system and a word of up to max_syllables syllables over x
    and b2..b{n-1}, each power in -max_power..max_power."""
    leaves = draw(st.sampled_from(SYSTEMS))
    letters = ["x"] + [f"b{i}" for i in range(2, len(leaves))]
    syllables = draw(st.lists(st.tuples(st.sampled_from(letters),
                                        st.integers(-max_power, max_power)),
                              min_size=1, max_size=max_syllables))
    return leaves, BraidWord.from_letters(syllables)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(alpha=alphas, system_word=system_words())
def test_word_times_inverse_is_identity(alpha, system_word):
    # w ends on a permuted system; w^-1 is evaluated from there.  Near the
    # range ends letters reach |entries| ~ 1e3 and cancel, so the defect is
    # bounded relative to max|M| max|M^-1|: at most 7.4e-7 of it in 6,000
    # draws at 2.001 and 2.999, against 1e-15 typically and order 1 for an
    # inverse letter of the wrong sign
    leaves, w = system_word
    p = ModelParams(alpha)
    m, end = evaluate_word_open(p, leaves, w, charge=ALPHA)
    mi, back = evaluate_word_open(p, end, w.inverse(), charge=ALPHA)
    assert back == leaves
    defect = np.max(np.abs(mi @ m - np.eye(len(m))))
    assert defect <= 1e-5 * np.max(np.abs(m)) * np.max(np.abs(mi))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(alpha=alphas, system_word=system_words(max_syllables=6, max_power=2))
def test_float_words_match_mpmath(alpha, system_word):
    # the float word against mpmath at 50 digits.  Near the range ends the
    # letters reach |entries| ~ 1e3 and cancel, so the error is bounded
    # relative to the product of the unit letters' largest entries (relative
    # to max|M| it reached 2.2e-9).  One letter, b2 on (a, psi, s, s) just
    # above 2.001, loses 2.2e-11 of it, as the F rows do near the ends
    # (test_float_symbols_match_mpmath); sqrt(2) or exp off by 1e-9 in one
    # precision fails it
    leaves, w = system_word
    p = ModelParams(alpha)
    m, end = evaluate_word_open(p, leaves, w)
    with mpmath.workdps(50):
        mm, mp_end = evaluate_word_open(p, leaves, w, ns=mp_namespace())
        exact = np.array(mm.tolist(), dtype=complex)
    assert mp_end == end
    scale, cur = 1.0, leaves
    for tok, pw in w.letters:
        for _ in range(abs(pw)):
            lm, cur = letter_matrix(p, cur, tok, 1 if pw > 0 else -1, ALPHA)
            scale *= max(1.0, np.max(np.abs(lm)))
    assert np.max(np.abs(m - exact)) <= 1e-10 * scale

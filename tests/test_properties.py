"""Property tests over random alpha: F-move identities, the integer ends and
double against mpmath precision; over random words: the search's rank text.

Deterministic (derandomized, no example database) with fixed example counts.
"""
import math

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nss import (ALPHA, SIGMA, BraidWord, IntegerAlpha, ModelParams,  # noqa: E402
                 SingularParameter, bubble_pop, evaluate_word, f_matrix, r_symbol)
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

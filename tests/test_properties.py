"""Property tests over random alpha: F-move identities, the integer ends,
double against mpmath precision and the braid relations of the letters; over
random words: the search's text order, w w^-1 = 1, double against mpmath
precision and the fifth-power law.

Deterministic (derandomized, no example database) with fixed example counts.
"""
import math
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from nss import (ALPHA, PSI, SIGMA, BraidWord, IntegerAlpha, ModelParams,  # noqa: E402
                 SingularParameter, bubble_pop, evaluate_word, f_matrix, r_symbol)
from nss import braids  # noqa: E402
from nss.braids import evaluate_word_open, letter_matrix  # noqa: E402
from nss.anyon import _B_TABLE, _F_FAMILIES, _R_TABLE, mp_namespace  # noqa: E402
from nss import gates  # noqa: E402
from nss.gates import (PSI_LEAVES, VAC_LEAVES, _syllables, leakage_norms,  # noqa: E402
                       reichardt_iterate, search_low_leakage, vacuum_sector_matrix)

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
    ns = mp_namespace(50)
    pairs = [(bubble_pop(*row, p), bubble_pop(*row, p, ns)) for row in _B_TABLE]
    pairs += [(r_symbol(*row, p), r_symbol(*row, p, ns)) for row in _R_TABLE]
    for fam in _F_FAMILIES:
        pairs += zip(f_matrix(*fam, p).matrix.flat, f_matrix(*fam, p, ns).matrix.flat)
    for fl, exact in pairs:
        assert abs(fl - complex(exact)) <= 1e-10 * max(1.0, abs(exact))


@settings(PROPERTY, max_examples=20)
@given(alpha=alphas, max_power=st.sampled_from([1, 2, 3, 11]),
       threshold=st.floats(0.05, 1.5), data=st.data())
def test_search_enumerates_in_text_order(alpha, max_power, threshold, data):
    # max_power 11 puts x^-10 before x^-2 in text order, unlike the pool's
    # power order; a max_len of 3 keeps it at 22,308 nodes
    max_len = data.draw(st.integers(1, 3 if max_power == 11 else 6))
    params = ModelParams(alpha)
    real, raw = gates._search_range, []

    def recording(*args):
        raw.extend(real(*args))
        return list(raw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "_search_range", recording)
        serial = search_low_leakage(params, max_len, threshold, max_power=max_power)
    # the raw words of each length come out in str(BraidWord) order
    for length in range(1, max_len + 1):
        texts = [str(BraidWord(w)) for w, *_ in raw if len(w) == length]
        assert texts == sorted(texts)
    # so a stable sort by (leakage, length) ranks as the (leakage, length,
    # text) key does, serial and split over processes alike
    ranked = sorted(raw, key=lambda h: (round(max(h[1], h[2]), 12), len(h[0]),
                                        str(BraidWord(h[0]))))
    want = gates._phase_dedupe(ranked)
    assert serial == want
    with pytest.MonkeyPatch.context() as mp:
        # the split in threads: its order without a process pool per example
        mp.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
        assert search_low_leakage(params, max_len, threshold, jobs=3, max_power=max_power) == want


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
def system_words(draw, max_syllables=8, max_power=3, systems=SYSTEMS):
    """A system of ``systems`` and a word of up to max_syllables syllables
    over x and b2..b{n-1}, each power in -max_power..max_power."""
    leaves = draw(st.sampled_from(systems))
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
    mm, mp_end = evaluate_word_open(p, leaves, w, ns=mp_namespace(50))
    exact = np.array(mm.tolist(), dtype=complex)
    assert mp_end == end
    assert np.max(np.abs(m - exact)) <= _word_bound(p, leaves, w)


def _word_bound(p, leaves, w):
    """The float-word error bound: 1e-10 times the product of max(1, max|L|)
    over the word's unit letters L."""
    scale, cur = 1.0, leaves
    for tok, pw in w.letters:
        for _ in range(abs(pw)):
            lm, cur = letter_matrix(p, cur, tok, 1 if pw > 0 else -1, ALPHA)
            scale *= max(1.0, np.max(np.abs(lm)))
    return 1e-10 * scale


# the relations the search's x, b2 alphabet obeys on both leaf arrangements
# of the control sector, and the braid relation of the sigma strands; each
# reads the F and R rows that the letter plans assemble
ARRANGEMENTS = [PSI_LEAVES, (ALPHA, SIGMA, PSI, SIGMA)]
DELTA = BraidWord.parse("x b2 x b2")


@PROPERTY
@given(alpha=alphas, leaves=st.sampled_from(ARRANGEMENTS))
def test_type_b_relation(alpha, leaves):
    # x b2 x b2 = b2 x b2 x; both sides hold the same unit letters
    p = ModelParams(alpha)
    defect = np.abs(evaluate_word(p, leaves, DELTA)
                    - evaluate_word(p, leaves, BraidWord.parse("b2 x b2 x")))
    assert np.max(defect) <= _word_bound(p, leaves, DELTA)


@PROPERTY
@given(alpha=alphas, leaves=st.sampled_from(ARRANGEMENTS),
       text=st.sampled_from(["b2 x b2", "b2^-1 x^-1 b2^-1"]))
def test_y_and_its_inverse_are_diagonal(alpha, leaves, text):
    p, y = ModelParams(alpha), BraidWord.parse(text)
    m = evaluate_word(p, leaves, y)
    assert np.max(np.abs(m - np.diag(np.diag(m)))) <= _word_bound(p, leaves, y)


@PROPERTY
@given(alpha=alphas, leaves=st.sampled_from(ARRANGEMENTS))
def test_delta_is_a_scalar_on_each_block(alpha, leaves):
    # on the blocks of basis vectors (0, 1) and (2, 3)
    p = ModelParams(alpha)
    m = evaluate_word(p, leaves, DELTA)
    scalars = [np.trace(m[k:k + 2, k:k + 2]) / 2 for k in (0, 2)]
    assert np.max(np.abs(m - np.diag(np.repeat(scalars, 2)))) <= _word_bound(p, leaves, DELTA)


@PROPERTY
@given(alpha=alphas, i=st.sampled_from([2, 3]))
def test_sigma_strands_obey_the_braid_relation(alpha, i):
    # b_i b_{i+1} b_i = b_{i+1} b_i b_{i+1} on a,s,s,s,s
    p, leaves = ModelParams(alpha), (ALPHA,) + (SIGMA,) * 4
    lhs = BraidWord.parse(f"b{i} b{i + 1} b{i}")
    defect = np.abs(evaluate_word(p, leaves, lhs)
                    - evaluate_word(p, leaves, BraidWord.parse(f"b{i + 1} b{i} b{i + 1}")))
    assert np.max(defect) <= _word_bound(p, leaves, lhs)


@st.composite
def closed_search_words(draw, max_syllables=8):
    """A word over the search alphabet whose total b2 power is even, so that
    it closes on the control sector and on its vacuum channel."""
    letters = draw(st.lists(st.sampled_from(_syllables(2)), min_size=1, max_size=max_syllables))
    assume(sum(pw for tok, pw in letters if tok == "b2") % 2 == 0)
    return BraidWord.from_letters(letters)


@PROPERTY
@given(alpha=st.floats(2.05, 2.95), word=closed_search_words())
def test_vacuum_action_is_a_power_of_the_vacuum_action_of_y(alpha, word):
    # on the vacuum channel (a, 1, s, s) only an x after an odd running b2
    # power acts, as X_v, the vacuum action of y = b2 x b2; so a word acts
    # as X_v^m with m the sum of those x powers
    p = ModelParams(alpha)
    run = m = 0
    for tok, pw in word.letters:
        if tok == "b2":
            run += pw
        elif run % 2:
            m += pw
    xv = vacuum_sector_matrix(p, BraidWord.parse("b2 x b2"))
    defect = np.abs(vacuum_sector_matrix(p, word) - np.linalg.matrix_power(xv, m))
    assert np.max(defect) <= _word_bound(p, VAC_LEAVES, word)


class _NoHits(dict):
    """A letter memo that stores every letter and never returns one."""

    def get(self, key, default=None):
        return default


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(alpha=alphas, system_word=system_words(
    max_syllables=6, max_power=2,
    systems=[(ALPHA,) + (SIGMA,) * 4, (ALPHA, PSI, SIGMA, SIGMA), (ALPHA,) + (SIGMA,) * 8]))
def test_warm_letter_memo_changes_no_bit(alpha, system_word):
    # a word of letters built from their plans and symbols (a repeat from
    # the values its first build kept in that evaluation), of letters
    # some of which an empty memo returns, and of letters a warm memo returns
    # all (evaluate_word's body, which may end on permuted leaves) have the
    # same bytes
    leaves, w = system_word
    p = ModelParams(alpha)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(braids, "_LETTER_MEMO", _NoHits())
        built = evaluate_word_open(p, leaves, w)
        m.setattr(braids, "_LETTER_MEMO", {})
        cold = evaluate_word_open(p, leaves, w)
        warm = evaluate_word_open(p, leaves, w)
    assert built[1] == cold[1] == warm[1]
    assert built[0].tobytes() == cold[0].tobytes() == warm[0].tobytes()


@st.composite
def closed_psi_words(draw, max_syllables=5, max_power=3):
    """A word of alternating x and b2 syllables on the control sector whose
    total b2 power is even, so that it ends on the leaves it starts from (an
    odd total ends on (a, s, psi, s) and raises LeakyPermutation)."""
    first = draw(st.sampled_from([0, 1]))
    powers = draw(st.lists(st.sampled_from([p for p in range(-max_power, max_power + 1) if p]),
                           min_size=1, max_size=max_syllables))
    letters = [(("x", "b2")[(i + first) % 2], pw) for i, pw in enumerate(powers)]
    assume(sum(pw for tok, pw in letters if tok == "b2") % 2 == 0)
    return BraidWord.from_letters(letters)


@PROPERTY
@given(word=closed_psi_words())
def test_recursion_obeys_the_fifth_power_law(word, full_precision_recursion):
    # each recursion step raises both off-diagonals to their fifth power; two
    # steps from eps leave eps^25, so the working precision covers 25 times
    # its digits.  The smaller off-diagonal is the SU(2) block's, at most 1
    p = ModelParams.from_string("12/5")
    eps = min(leakage_norms(evaluate_word(p, PSI_LEAVES, word)))
    assume(eps >= 1e-6)
    dps = math.ceil(-25 * math.log10(eps)) + 30
    reports = reichardt_iterate(p, word, k=2, extended=True, dps=dps)
    assert max(max(r.law_defect_su2, r.law_defect_su11) for r in reports[1:]) <= 1e-12
    # the word and step 1 work at fewer digits, and give the doubles of a run at dps
    got = [(r.word, r.su2_offdiag, r.su11_offdiag, (r.theta1, r.theta2), r.word_length)
           for r in reports]
    assert got == full_precision_recursion(p, word, 2, dps)


def test_a_failing_property_test_fails_without_crashing_the_session(tmp_path):
    # on a failure hypothesis imports its patch writer, which imports libcst
    # when installed; libcst's import warns a DeprecationWarning that the
    # project's error:: filters must not turn into an INTERNALERROR that
    # stops every later test
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers(min_value=0))\n"
        "def test_fails(n):\n"
        "    assert n < 0\n\n"
        "def test_passes():\n"
        "    pass\n")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out

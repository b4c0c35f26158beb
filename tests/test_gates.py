"""Gate compilation: D, W, the recursion, search, and the controlled gate."""
import cmath
import functools
import math
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nss import (ALPHA, PSI, SIGMA, BraidWord, LOW_LEAKAGE_WORD, ModelParams,
                 NotBlockDiagonal, PrecisionExhausted, UnsupportedTriple, W_WORD,
                 build_D, build_W, controlled_gate, leakage_norms,
                 operator_schmidt_rank, psi_sector, q_power,
                 reichardt_iterate, reichardt_step, search_low_leakage,
                 vacuum_sector_matrix, qubit_space)
from nss.anyon import mp_namespace
from nss.braids import evaluate_word, evaluate_word_open, pseudo_unitarity_defect
from nss.errors import ModelError
from nss import gates
from nss.gates import D_WORD, PSI_LEAVES, LeakageReport, SearchHit, step_word

P = ModelParams.from_string("12/5")


# ---------------------------------------------------------------------------
# D
# ---------------------------------------------------------------------------

def test_build_D_diagonal():
    d = build_D(P).matrix
    off = d - np.diag(np.diag(d))
    assert np.max(np.abs(off)) < 1e-14
    al = P.alpha
    want = np.diag([q_power(12 + 4 * al), 1, 1, q_power(12 - 4 * al)])
    assert np.max(np.abs(d - want)) < 1e-12
    # the lower noncomputational phase is exp(3 i pi / 5); the upper one is
    # forced to its conjugate (their product is q^24 = 1 identically)
    assert d[3, 3] == pytest.approx(cmath.exp(3j * math.pi / 5))
    assert d[0, 0] == pytest.approx(cmath.exp(-3j * math.pi / 5))
    assert d[1, 1] == pytest.approx(1.0)
    assert d[2, 2] == pytest.approx(1.0)


def test_D_trivial_on_vacuum_sector():
    m = vacuum_sector_matrix(P, D_WORD)
    assert np.allclose(m, np.eye(2), atol=1e-12)


def test_D_inverse():
    d = build_D(P).matrix
    m = evaluate_word(P, PSI_LEAVES, BraidWord.parse("x^2 x^-2"))
    assert np.allclose(m, np.eye(4), atol=1e-12)
    assert np.allclose(d @ np.linalg.inv(d), np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# W
# ---------------------------------------------------------------------------

def test_build_W_leakage_norms():
    w = build_W(P)
    su2, su11 = leakage_norms(w.matrix)
    assert su2 == pytest.approx(0.832, abs=1e-3)
    assert su11 == pytest.approx(0.904, abs=1e-3)
    assert pseudo_unitarity_defect(w.matrix, w.space) < 1e-12


def test_candidate_exchange_square_exceeds_unity():
    m = evaluate_word(P, PSI_LEAVES, BraidWord.parse("b2^2"))
    su2, _ = leakage_norms(m)
    assert su2 == pytest.approx(1.943, abs=1e-2)


def test_W_block_structure():
    w = build_W(P).matrix
    assert np.max(np.abs(w[:2, 2:])) < 1e-14
    assert np.max(np.abs(w[2:, :2])) < 1e-14
    # upper block preserves diag(-1, 1); lower block is unitary
    ju = np.diag([-1.0, 1.0])
    u, v = w[:2, :2], w[2:, 2:]
    assert np.max(np.abs(u.conj().T @ ju @ u - ju)) < 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12


def test_W_trivial_on_vacuum_sector():
    m = vacuum_sector_matrix(P, W_WORD)
    assert np.allclose(m, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------

def test_step_identity_gives_d_eighth():
    d = build_D(P).matrix
    out = reichardt_step(np.eye(4, dtype=complex), d)
    assert np.allclose(out, np.linalg.matrix_power(d, 8), atol=1e-12)


def test_step_shape_mismatch():
    with pytest.raises(ValueError):
        reichardt_step(np.eye(4), np.eye(2))


def test_step_rejects_off_block_entry():
    w = build_W(P).matrix.copy()
    w[1, 2] = 1e-3
    with pytest.raises(NotBlockDiagonal):
        reichardt_step(w, build_D(P).matrix)


def test_step_float_matches_mp():
    ns = mp_namespace(50)
    w = evaluate_word(P, PSI_LEAVES, W_WORD, ns=ns)
    d = evaluate_word(P, PSI_LEAVES, D_WORD, ns=ns)
    m = reichardt_step(w, d)
    assert m.dtype == object
    want = reichardt_step(build_W(P).matrix, build_D(P).matrix)
    assert np.max(np.abs(np.asarray(m, dtype=complex) - want)) < 1e-12


def test_step_matches_expanded_word():
    # evaluating the expanded braid word reproduces the matrix recursion
    w = build_W(P).matrix
    d = build_D(P).matrix
    w1 = reichardt_step(w, d)
    word1 = step_word(W_WORD)
    m1 = evaluate_word(P, PSI_LEAVES, word1)
    assert np.max(np.abs(w1 - m1)) < 1e-10
    assert len(word1) == 29


def test_iterate_fifth_power_law():
    reports = reichardt_iterate(P, W_WORD, k=3)
    assert [r.k for r in reports] == [0, 1, 2, 3]
    assert reports[0].su2_offdiag == pytest.approx(0.832193, abs=1e-6)
    assert reports[1].su2_offdiag == pytest.approx(0.832193 ** 5, rel=1e-5)
    for r in reports[1:3]:
        assert r.law_defect_su2 < 1e-6
        assert r.law_defect_su11 < 1e-6
    assert reports[3].law_defect_su2 < 1e-3
    assert reports[3].law_defect_su11 < 1e-3
    assert [r.word_length for r in reports] == [5, 29, 149, 749]


def test_iterate_extended_precision_exact_law():
    reports = reichardt_iterate(P, W_WORD, k=3, extended=True, dps=80)
    for r in reports[1:]:
        assert r.law_defect_su2 < 1e-12
        assert r.law_defect_su11 < 1e-12


def test_iterate_extended_law_checked_below_double_range():
    # the k=6 off-diagonal is ~1e-1246; dps 600 leaves ~1e-848 of rounding,
    # which reads 0.0 as a double just like the prediction
    with pytest.raises(PrecisionExhausted):
        reichardt_iterate(P, W_WORD, k=6, extended=True, dps=600)
    reports = reichardt_iterate(P, W_WORD, k=6, extended=True, dps=1277)
    assert reports[6].su2_offdiag == 0.0  # underflows as a double
    assert max(reports[6].law_defect_su2, reports[6].law_defect_su11) < 1e-3


def test_iterate_extended_dps_is_capped():
    reichardt_iterate(P, W_WORD, k=0, extended=True, dps=1)
    for dps in (0, gates._MAX_DPS + 1, 10_000_000):
        with pytest.raises(ValueError, match="dps"):
            reichardt_iterate(P, W_WORD, k=0, extended=True, dps=dps)
    # the cap holds only where dps is used
    reichardt_iterate(P, W_WORD, k=0, dps=10_000_000)


def test_iterate_extended_keeps_global_precision():
    before = mpmath.mp.dps
    reichardt_iterate(P, W_WORD, k=1, extended=True, dps=before + 40)
    assert mpmath.mp.dps == before


# two extended recursions far apart in precision, whose off-diagonals reach
# 1.4e-50 (W_WORD, k=4) and 6.7e-69 (LOW_LEAKAGE_WORD, k=3)
_PRECISION_JOBS = ((W_WORD, 4, 650), (LOW_LEAKAGE_WORD, 3, 150))


@functools.cache
def _serial_reports(word, k, dps):
    return reichardt_iterate(P, word, k=k, extended=True, dps=dps)


def test_iterate_extended_ignores_global_precision(monkeypatch):
    # a step that resets mpmath's global precision, as other code in the
    # process may, changes nothing: the recursion works at its own dps
    step = gates.reichardt_step

    def resetting_step(w, d):
        mpmath.mp.dps = 15
        return step(w, d)

    word, k, dps = _PRECISION_JOBS[0]
    want = _serial_reports(word, k, dps)
    before = mpmath.mp.prec
    monkeypatch.setattr(gates, "reichardt_step", resetting_step)
    try:
        assert reichardt_iterate(P, word, k=k, extended=True, dps=dps) == want
    finally:
        mpmath.mp.prec = before


def test_concurrent_extended_recursions_are_independent():
    barrier = threading.Barrier(len(_PRECISION_JOBS))

    def run(job):
        word, k, dps = job
        barrier.wait()
        return reichardt_iterate(P, word, k=k, extended=True, dps=dps)

    want = [_serial_reports(*job) for job in _PRECISION_JOBS]
    before = mpmath.mp.prec
    try:
        with ThreadPoolExecutor(len(_PRECISION_JOBS)) as pool:
            assert list(pool.map(run, _PRECISION_JOBS)) == want
    finally:
        mpmath.mp.prec = before


def test_iterate_diagonal_fixed_point():
    # a word that is already diagonal keeps zero off-diagonals
    reports = reichardt_iterate(P, BraidWord.parse("x"), k=2)
    for r in reports:
        assert r.su2_offdiag == pytest.approx(0.0, abs=1e-14)
        assert r.su11_offdiag == pytest.approx(0.0, abs=1e-14)


def test_iterate_search_word_needs_extended():
    with pytest.raises(PrecisionExhausted):
        reichardt_iterate(P, LOW_LEAKAGE_WORD, k=3)


def test_search_word_series_extended():
    reports = reichardt_iterate(P, LOW_LEAKAGE_WORD, k=2, extended=True, dps=80)
    assert reports[0].su2_offdiag == pytest.approx(0.285869, abs=1e-5)
    assert reports[0].su11_offdiag == pytest.approx(0.284849, abs=1e-5)
    assert reports[1].su2_offdiag == pytest.approx(1.914e-3, abs=1e-5)
    assert reports[2].su2_offdiag == pytest.approx(2.565e-14, abs=1e-15)


def test_deep_iteration_capped_without_extended():
    with pytest.raises(PrecisionExhausted):
        reichardt_iterate(P, W_WORD, k=5)


@pytest.mark.parametrize("alpha", ["13/5", "37/14"])
@pytest.mark.parametrize("extended", [False, True])
def test_law_failure_names_the_alpha_condition(alpha, extended):
    # D's ratio e^{i pi (3 + alpha)} is no primitive 10th root of unity here,
    # so no precision makes the law hold
    with pytest.raises(PrecisionExhausted) as err:
        reichardt_iterate(ModelParams.from_string(alpha), W_WORD, k=2, extended=extended)
    assert str(err.value).endswith(f"the law does not hold at alpha = {alpha}: it needs "
                                   "5(3 + alpha) to be an odd integer prime to 5")


def test_law_failure_asks_for_precision_where_the_law_holds():
    with pytest.raises(PrecisionExhausted, match="; rerun with a larger dps$"):
        reichardt_iterate(P, W_WORD, k=5, extended=True, dps=30)
    # 14/5 is the other law alpha in (2, 3); without an exact alpha nothing is ruled out
    with pytest.raises(PrecisionExhausted, match="; rerun with extended=True$"):
        reichardt_iterate(ModelParams.from_string("14/5"), W_WORD, k=2)
    with pytest.raises(PrecisionExhausted, match="; rerun with extended=True$"):
        reichardt_iterate(ModelParams(2.6), W_WORD, k=2)



def _free_reduce_oracle(word):
    """Free reduction on a stack of [generator, power] lists, written apart
    from BraidWord.free_reduce: a syllable adds to the top when their
    generators match, and a top whose power reaches 0 is popped."""
    out = []
    for tok, p in word.letters:
        if out and out[-1][0] == tok:
            out[-1][1] += p
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([tok, p])
    return BraidWord(tuple((t, p) for t, p in out))


def _step_word_oracle(word, d_word=D_WORD):
    """Free-reduce the whole concatenation."""
    d3 = BraidWord.from_letters([(t, 3 * p) for t, p in d_word.letters])
    parts = (word, d_word, word.inverse(), d3, word, d3, word.inverse(), d_word, word)
    return _free_reduce_oracle(BraidWord(tuple(l for part in parts for l in part.letters)))


_SYLLABLES = st.tuples(st.sampled_from(["x", "b2", "b3"]), st.integers(-3, 3))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(letters=st.lists(_SYLLABLES, max_size=30))
def test_free_reduce_matches_the_stack_oracle(letters):
    # the bare constructor keeps zero powers; a checked word drops them
    raw, w = BraidWord(tuple(letters)), BraidWord.from_letters(letters)
    assert raw.free_reduce() == _free_reduce_oracle(raw)
    assert w.free_reduce() == _free_reduce_oracle(w)
    assert w.free_reduce().free_reduce() == w.free_reduce()
    assert w.free_reduce().inverse() == w.inverse().free_reduce()


def _random_letters(rng, n, toks=("x", "b2", "b3")):
    # repeated tokens are allowed, so the words are not free-reduced
    return BraidWord.from_letters([(rng.choice(toks), rng.choice((-2, -1, 1, 2)))
                                   for _ in range(n)])


def test_step_word_matches_reducing_the_concatenation():
    rng = random.Random(4)
    cases = [(W_WORD, D_WORD), (LOW_LEAKAGE_WORD, D_WORD), (BraidWord(()), D_WORD),
             (BraidWord.parse("b2 x^-2"), D_WORD),            # D cancels a whole syllable
             (BraidWord.parse("x^2 b2 x^-2"), D_WORD),        # ... on both sides
             (BraidWord.parse("x^-2"), D_WORD),               # W cancels against D entirely
             (BraidWord.parse("b2 x b2^-1"), BraidWord.parse("b2 b2^-1 x")),
             (BraidWord.parse("x b2 x"), BraidWord.parse("x^-1"))]
    for _ in range(300):
        d = _random_letters(rng, rng.randrange(0, 4))
        cases.append((_random_letters(rng, rng.randrange(0, 9)), d))
    cancelled = 0
    for word, d in cases:
        got = step_word(word, d)
        assert got == _step_word_oracle(word, d), (str(word), str(d))
        assert got.free_reduce() == got
        cancelled += len(got) < 5 * len(word.free_reduce()) + 4 * len(d.free_reduce())
    assert cancelled > 100
    # iterating keeps agreeing
    w = W_WORD
    for _ in range(3):
        assert step_word(w) == _step_word_oracle(w)
        w = step_word(w)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_zero_threshold_empty():
    assert search_low_leakage(P, 4, 0.0) == []


def test_search_finds_w_norms():
    hits = search_low_leakage(P, 5, 0.95)
    pairs = [(h.report.su2_offdiag, h.report.su11_offdiag) for h in hits]
    assert any(abs(a - 0.832193) < 1e-4 and abs(b - 0.904372) < 1e-4
               for a, b in pairs)


def test_search_deterministic_and_deduplicated():
    h1 = search_low_leakage(P, 5, 0.9)
    h2 = search_low_leakage(P, 5, 0.9)
    assert [str(h.word) for h in h1] == [str(h.word) for h in h2]
    mats = [evaluate_word(P, PSI_LEAVES, h.word) for h in h1]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ratio = mats[i] @ np.linalg.inv(mats[j])
            off = ratio - ratio[0, 0] * np.eye(4)
            assert np.max(np.abs(off)) > 1e-6  # not equal up to phase


def test_search_contains_low_leakage_word():
    hits = search_low_leakage(P, 9, 0.3)
    best_nonzero = [h for h in hits
                    if max(h.report.su2_offdiag, h.report.su11_offdiag) > 1e-9]
    assert any(abs(h.report.su2_offdiag - 0.285869) < 1e-4
               and abs(h.report.su11_offdiag - 0.284849) < 1e-4
               for h in best_nonzero)


def test_search_parallel_matches_serial():
    s1 = search_low_leakage(P, 4, 0.9, jobs=1)
    s2 = search_low_leakage(P, 4, 0.9, jobs=2)
    assert [str(h.word) for h in s1] == [str(h.word) for h in s2]


def test_search_four_jobs_match_serial():
    s1 = search_low_leakage(P, 5, 0.9, jobs=1)
    s4 = search_low_leakage(P, 5, 0.9, jobs=4)
    assert [(str(h.word), h.report.su2_offdiag, h.report.su11_offdiag) for h in s4] \
        == [(str(h.word), h.report.su2_offdiag, h.report.su11_offdiag) for h in s1]


def test_search_splits_by_first_syllable(monkeypatch):
    from concurrent.futures import Future

    class InlinePool:
        """Runs each task at submit and records it."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            tasks.append(args[-1])
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    workers, tasks = [], []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    hits = search_low_leakage(P, 4, 0.9, jobs=4)
    assert workers == [4]
    assert tasks == [((t, p),) for t in ("x", "b2") for p in (1, -1, 2, -2)]
    assert [str(h.word) for h in hits] == [str(h.word) for h in search_low_leakage(P, 4, 0.9)]


def _powers(max_power):
    """The syllable powers the oracles step through, written out apart from gates."""
    return [p for a in range(1, max_power + 1) for p in (a, -a)]


def _numpy_dfs(params, max_len, threshold, max_power):
    """Raw hits (word, n1, n2, product) of the 4x4 numpy DFS the scalar
    kernel replaced."""
    pool = {key: (gates._from_blocks(np.array(entries).reshape(2, 2, 2)), si2)
            for key, (entries, si2) in gates._letter_pool(params, max_power).items()}
    powers = _powers(max_power)
    hits = []

    def dfs(tok, mat, si, depth, letters, tok_powers):
        nxt = "b2" if tok == "x" else "x"
        for p in tok_powers:
            m2, si2 = pool[(si, tok, p)]
            prod = m2 @ mat
            w2 = letters + ((tok, p),)
            if si2 == 0:
                n1, n2 = leakage_norms(prod)
                if max(n1, n2) < threshold:
                    hits.append((w2, n1, n2, prod))
            if depth + 1 < max_len:
                dfs(nxt, prod, si2, depth + 1, w2, powers)

    for tok in ("x", "b2"):
        for p in powers:
            dfs(tok, np.eye(4, dtype=complex), 0, 0, (), (p,))
    return hits


@pytest.mark.parametrize("max_power", [2, 3])
def test_search_kernel_matches_numpy_dfs(max_power):
    syllables = gates._syllables(max_power)
    for alpha in ("2.001", "2.05", "12/5", "2.5", "2.999"):
        params = ModelParams.from_string(alpha)
        want = _numpy_dfs(params, 6, 0.5, max_power)
        got = gates._search_range(params, 6, 0.5, max_power, syllables)
        assert [h[0] for h in got] == [h[0] for h in want]
        if alpha == "2.999":
            # pool entries reach 1.8e3 here, so the norms are cancellation
            # noise: the two kernels differ by up to 9e-7 at 7 syllables,
            # enough to change the deduplicated list (59 against 58 results
            # at threshold 0.5); only the raw words are compared
            continue
        for (_, n1, n2, entries), (_, m1, m2, prod) in zip(got, want):
            assert abs(n1 - m1) < 1e-12 and abs(n2 - m2) < 1e-12
            # the norms depend only on the second column of each block
            assert np.max(np.abs(np.array(entries) - gates._blocks(prod).ravel())) < 1e-12


def _search_range_oracle(params, max_len, threshold, max_power, first_syllables):
    """The scalar DFS with one _block_product call per node that the
    unpacked kernel replaced."""
    pool = gates._letter_pool(params, max_power)
    powers = _powers(max_power)
    last = max_len - 1
    hits = []
    word = []

    def dfs(tok, m, si, depth, tok_powers):
        if depth == last:
            _, u01, _, u11, _, l01, _, l11 = m
            for p in tok_powers:
                s, si2 = pool[(si, tok, p)]
                if si2:
                    continue
                n1 = abs(s[0] * u01 + s[1] * u11)
                n2 = abs(s[4] * l01 + s[5] * l11)
                if n1 < threshold and n2 < threshold:
                    hits.append((tuple(word) + ((tok, p),), n1, n2,
                                 gates._block_product(s, m)))
            return
        nxt = "b2" if tok == "x" else "x"
        for p in tok_powers:
            s, si2 = pool[(si, tok, p)]
            prod = gates._block_product(s, m)
            word.append((tok, p))
            if not si2:
                n1, n2 = abs(prod[1]), abs(prod[5])
                if n1 < threshold and n2 < threshold:
                    hits.append((tuple(word), n1, n2, prod))
            dfs(nxt, prod, si2, depth + 1, powers)
            word.pop()

    ident = (1 + 0j, 0j, 0j, 1 + 0j) * 2
    for tok, p in first_syllables:
        dfs(tok, ident, 0, 0, (p,))
    return hits


def _hit_bits(hit):
    word, n1, n2, entries = hit
    return word, n1.hex(), n2.hex(), [_hex(z) for z in entries]


@pytest.mark.parametrize("alpha, max_len, max_power", [
    ("2.001", 7, 2), ("12/5", 7, 2), ("37/14", 7, 2), ("2.999", 7, 2),
    ("12/5", 7, 1), ("12/5", 7, 3), ("12/5", 1, 2), ("12/5", 2, 2),
    ("12/5", 8, 2), ("2.05", 7, 2),
    # the shallowest b2 nodes whose x children are leaves
    ("12/5", 3, 2), ("2.001", 3, 1)])
def test_search_kernel_matches_block_product_dfs(alpha, max_len, max_power):
    # raw hits (word, n1, n2, 8 entries) equal bit for bit, in the same order
    params = ModelParams.from_string(alpha)
    threshold = 0.5 if max_len > 2 else 2.0
    syllables = gates._syllables(max_power)
    want = _search_range_oracle(params, max_len, threshold, max_power, syllables)
    got = gates._search_range(params, max_len, threshold, max_power, syllables)
    assert len(want) > 0
    assert got == want
    # == takes -0.0 for 0.0; the bits of every norm and entry match too
    assert list(map(_hit_bits, got)) == list(map(_hit_bits, want))
    # the jobs > 1 split: one first syllable per call
    assert [h for s in syllables
            for h in gates._search_range(params, max_len, threshold, max_power, (s,))] == want


def _rank_oracle(h):
    word, n1, n2, _ = h
    return (round(max(n1, n2), 12), len(word), str(BraidWord(word)))


def _phase_dedupe_oracle(raw):
    """The per-row dedupe loop the chunked pass replaced."""
    out = []
    buckets = {}
    for word, n1, n2, entries in raw:
        v = np.array(entries)
        vv = np.outer(v, v.conj())
        bucket = buckets.setdefault((np.round(vv, 6) + 0.0).tobytes(), [])
        if any(np.max(np.abs(vv - seen)) < 1e-8 for seen in bucket):
            continue
        bucket.append(vv)
        bw = BraidWord(word)
        th1, th2 = gates._diag_phases([entries[i] for i in (0, 3, 4, 7)])
        out.append(SearchHit(bw, LeakageReport(bw, 0, n1, n2, th1, th2, len(bw))))
    return out


@pytest.mark.parametrize("alpha, max_len, threshold, kept", [
    ("12/5", 9, 0.3, 83), ("37/14", 9, 0.3, 939),
    # a family whose norms straddle the rank key's 12-digit rounding boundary
    ("436/165", 9, 0.3, 939),
    ("2.999", 7, 0.5, 58), ("12/5", 11, 0.3, 533)])
def test_phase_dedupe_matches_per_row_loop(monkeypatch, alpha, max_len, threshold, kept):
    params = ModelParams.from_string(alpha)
    raw = gates._search_range(params, max_len, threshold, 2, gates._syllables(2))
    ranked = sorted(raw, key=_rank_oracle)
    want = _phase_dedupe_oracle(ranked)
    assert len(want) == kept
    # chunk sizes 1 and 7 put rows of one bucket in different chunks
    for chunk in (1, 7, gates._DEDUPE_CHUNK):
        monkeypatch.setattr(gates, "_DEDUPE_CHUNK", chunk)
        assert gates._phase_dedupe(ranked) == want
    # search_low_leakage ranks the same raw hits the same way
    monkeypatch.setattr(gates, "_search_range", lambda *args: list(raw))
    assert search_low_leakage(params, max_len, threshold) == want


def test_import_does_not_load_multiprocessing():
    # the process pool is imported only when a search runs with jobs > 1, and
    # mpmath only on an arbitrary-precision path
    report = ("print(sorted(m for m in sys.modules if m.startswith("
              "('multiprocessing', 'concurrent.futures.process', 'mpmath'))))")
    for run in ("import sys, nss.cli",
                "import contextlib, io, sys, nss.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert nss.cli.main(['verify', '--alpha', '2.4']) == 0"):
        proc = subprocess.run([sys.executable, "-c", f"{run}\n{report}"],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]", run


def _hex(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("max_power", [1, 2, 4])
def test_letter_pool_is_each_power_evaluated_alone(monkeypatch, max_power):
    letters = []
    real = gates.letter_matrix
    monkeypatch.setattr(gates, "letter_matrix", lambda *a: letters.append(a) or real(*a))
    arrangements = [PSI_LEAVES, (ALPHA, SIGMA, PSI, SIGMA)]
    for alpha in ("12/5", "2.001", "2.999"):
        params = ModelParams.from_string(alpha)
        letters.clear()
        pool = gates._letter_pool(params, max_power)
        assert len(letters) == 8 * max_power
        keys = [(si, tok, p) for si in (0, 1) for tok in ("x", "b2") for p in _powers(max_power)]
        # the search alphabet the kernel and its tests step through
        assert [(si, *syl) for si in (0, 1) for syl in gates._syllables(max_power)] == keys
        assert list(pool) == keys
        for si, tok, p in keys:
            m, cur = evaluate_word_open(params, arrangements[si], BraidWord(((tok, p),)))
            want = tuple(complex(z) for z in gates._blocks(m).ravel())
            entries, si2 = pool[si, tok, p]
            assert entries == want and list(map(_hex, entries)) == list(map(_hex, want))
            assert si2 == arrangements.index(cur)


@pytest.mark.parametrize("max_power", [1, 2, 3])
def test_search_reads_pool_once_per_node(monkeypatch, max_power):
    # the benchmark counts search nodes as lookups on the letter pool; one
    # level, and leaves scored in their parent's loop, count the same
    class CountingPool(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return dict.__getitem__(self, key)

    lookups, pools = [], []
    letter_pool = gates._letter_pool
    monkeypatch.setattr(gates, "_letter_pool",
                        lambda *a: pools.append(CountingPool(letter_pool(*a))) or pools[-1])
    for max_len in (1, 2, 5):
        lookups.clear()
        pools.clear()
        search_low_leakage(P, max_len, 0.3, jobs=1, max_power=max_power)
        assert len(lookups) == 2 * sum((2 * max_power) ** d for d in range(1, max_len + 1))
        # every lookup is made with one of the pool's own key objects
        [pool] = pools
        own = {id(key) for key in pool}
        assert all(id(key) in own for key in lookups)


@pytest.mark.parametrize("position", [(0, 1), (2, 3), (1, 0), (3, 2)])
def test_letter_pool_rejects_an_x_that_is_not_diagonal(monkeypatch, position):
    # the search steps every x syllable as a diagonal, so an off-diagonal
    # entry, however small, must stop it instead of giving wrong norms
    real = gates.letter_matrix

    def leaky(params, leaves, tok, sign):
        lm, cur = real(params, leaves, tok, sign)
        if tok == "x" and sign == -1:
            lm = lm.copy()
            lm[position] = 1e-9
        return lm, cur

    monkeypatch.setattr(gates, "letter_matrix", leaky)
    with pytest.raises(ModelError, match=r"syllable x\^-1 on a,psi,s,s is not diagonal"):
        search_low_leakage(P, 3, 0.5)


# ---------------------------------------------------------------------------
# controlled gate
# ---------------------------------------------------------------------------

def test_controlled_identity_is_identity():
    space = qubit_space(P, 2)
    gate = controlled_gate(space, np.eye(4))
    assert np.allclose(gate.matrix, np.eye(6), atol=1e-10)
    assert gate.schmidt_rank == 1


def test_schmidt_rank_of_product_operator():
    a = np.array([[1, 0], [0, 1j]])
    b = np.array([[0, 1], [1, 0]])
    # first qubit fast: product gate = kron(b_second, a_first)
    assert operator_schmidt_rank(np.kron(b, a)) == 1


def test_compiled_gate_entangles():
    w = build_W(P).matrix
    d = build_D(P).matrix
    cur = w
    for _ in range(3):
        cur = reichardt_step(cur, d)
    space = qubit_space(P, 2)
    gate = controlled_gate(space, cur, leak_tol=1e-4)
    assert gate.schmidt_rank >= 2
    assert gate.leakage < 1e-4
    # unitary on the computational block to the leakage level
    g = gate.computational
    assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-4


def test_controlled_gate_rejects_leaky_action():
    space = qubit_space(P, 2)
    u = np.eye(4, dtype=complex)
    u[0, 1] = 0.5   # large coupling between control-sector vectors
    with pytest.raises(NotBlockDiagonal):
        controlled_gate(space, u, leak_tol=1e-6)


def test_controlled_gate_needs_the_two_qubit_space():
    with pytest.raises(UnsupportedTriple, match="needs the two-qubit space"):
        controlled_gate(qubit_space(P, 1), np.eye(4))


def test_controlled_gate_needs_a_4x4_control_sector_gate():
    with pytest.raises(ValueError, match=r"^u_psi must be 4x4, not of shape \(3, 3\)$"):
        controlled_gate(qubit_space(P, 2), np.eye(3))


def test_low_leakage_word_not_vacuum_trivial():
    # unlike W, the brute-force word wraps sigma inside odd exchange windows,
    # so it does not act as the identity when the control channel is vacuum
    m = vacuum_sector_matrix(P, LOW_LEAKAGE_WORD)
    assert np.max(np.abs(m - np.eye(2))) > 0.1

"""Controlled-gate construction: the D and W braids, leakage-suppressing
iteration, brute-force word search, and assembly of the entangling gate.

Everything acts on the four-dimensional control sector: the fusion trees of
(alpha, psi, sigma, sigma) at total charge alpha, ordered so that vectors
0 and 3 are noncomputational and 1, 2 computational.  Every word in the
wrap/first-exchange alphabet preserves the (0,1) and (2,3) pairs, so each
operator splits into an upper and a lower 2x2 block; the off-diagonal
magnitudes |M[0,1]| and |M[2,3]| are the leakage figures tracked here.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anyon import FLOAT_NS, _inv_small, mp_namespace
from .braids import (_MAX_UNIT_LETTERS, BraidMatrix, BraidWord, block_decompose,
                     evaluate_word, letter_matrix)
from .errors import ModelError, NotBlockDiagonal, PrecisionExhausted, UnsupportedTriple
from .labels import ALPHA, PSI, SIGMA, VACUUM, ModelParams
from .spaces import IndefSpace, QubitCode, control_basis_transform

PSI_LEAVES = (ALPHA, PSI, SIGMA, SIGMA)
VAC_LEAVES = (ALPHA, VACUUM, SIGMA, SIGMA)

W_WORD = BraidWord.parse("b2^2 x b2^2 x b2^-2")
D_WORD = BraidWord.parse("x^2")

# largest relative fifth-power-law defect a recursion step may show
_LAW_TOL = 1e-3
# an mpmath step costs about dps^2; W_WORD k=8 needs 31,200, LOW_LEAKAGE_WORD k=7 42,700
_MAX_DPS = 50_000

# canonical representative of the word family found by the exhaustive search
# at <= 11 syllables whose leakage norms are ~0.2859 and ~0.2848, one of four
# norm pairs below 0.30 with nonzero leakage in that range; the others are
# (0.2218, 0.2831), (0.1079, 0.1897) and (0.2638, 0.2066)
LOW_LEAKAGE_WORD = BraidWord.parse("b2^-2 x b2^-1 x^2 b2^-2 x b2^2 x^-2 b2^-1")


def psi_sector(params: ModelParams) -> IndefSpace:
    return IndefSpace.build(params, PSI_LEAVES, ALPHA)


def vacuum_sector_matrix(params: ModelParams, word: BraidWord) -> np.ndarray:
    """The same word evaluated with the control channel replaced by vacuum."""
    return evaluate_word(params, VAC_LEAVES, word)


def build_D(params: ModelParams) -> BraidMatrix:
    """The double wrap x^2 on the control sector: a diagonal phase gate.

    Diagonal entries are (q^(12+4a), 1, 1, q^(12-4a)); at a = 12/5 the last
    is exp(3i pi/5) and the first its conjugate.  The two middle
    (computational) phases are exactly 1, which is what makes the iteration
    below leave the computational action untouched.
    """
    space = psi_sector(params)
    m = evaluate_word(params, PSI_LEAVES, D_WORD)
    return BraidMatrix(m, space)


def build_W(params: ModelParams) -> BraidMatrix:
    """The initializing braid b2^2 x b2^2 x b2^-2 on the control sector."""
    space = psi_sector(params)
    m = evaluate_word(params, PSI_LEAVES, W_WORD)
    return BraidMatrix(m, space)


def leakage_norms(matrix) -> tuple[float, float]:
    """(|M[0,1]|, |M[2,3]|): upper- and lower-block off-diagonal magnitudes.

    abs() is taken on the raw entries so arbitrary-precision values survive
    until the final float conversion.
    """
    return float(abs(matrix[0, 1])), float(abs(matrix[2, 3]))


# ---------------------------------------------------------------------------
# the leakage-suppressing recursion
# ---------------------------------------------------------------------------

def _blocks(m: np.ndarray) -> np.ndarray:
    """The upper and lower 2x2 blocks of a 4x4 operator (or a stack), stacked.

    Raises NotBlockDiagonal if an entry coupling the two blocks is nonzero.
    """
    off = np.concatenate([m[..., :2, 2:].ravel(), m[..., 2:, :2].ravel()])
    if off.any():
        raise NotBlockDiagonal(float(np.max(np.abs(off))))
    return np.stack([m[..., :2, :2], m[..., 2:, 2:]], axis=-3)


def _from_blocks(b: np.ndarray) -> np.ndarray:
    """The 4x4 operator with the stacked 2x2 blocks on its diagonal."""
    out = np.zeros((4, 4), dtype=b.dtype)
    out[:2, :2], out[2:, 2:] = b
    return out


def reichardt_step(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One recursion step W -> W D W^-1 D^3 W D^3 W^-1 D W.

    Raises the off-diagonal magnitude of each 2x2 block to its fifth power;
    float and mpmath (object) matrices share this blockwise path.  Raises
    NotBlockDiagonal when W or D couples the two blocks.
    """
    w = np.asarray(w)
    d = np.asarray(d)
    if w.shape != d.shape:
        raise ValueError("W and D must have the same shape")
    w, d = _blocks(w), _blocks(d)
    wi = np.stack([_inv_small(b) for b in w])
    d3 = d @ d @ d
    return _from_blocks(w @ d @ wi @ d3 @ w @ d3 @ wi @ d @ w)


def step_word(word: BraidWord, d_word: BraidWord = D_WORD) -> BraidWord:
    """The free-reduced braid word realizing one recursion step of `word`.

    With each part reduced, syllables merge only where two parts meet; a
    whole cancellation there runs on into the parts on either side.
    """
    w, d = word.free_reduce(), d_word.free_reduce()
    wi, d3 = w.inverse(), BraidWord.from_letters([(t, 3 * p) for t, p in d.letters])
    out = []
    for part in (w, d, wi, d3, w, d3, wi, d, w):
        letters, k = part.letters, 0
        while k < len(letters) and out and out[-1][0] == letters[k][0]:
            tok, p = letters[k]
            k += 1
            if out[-1][1] + p:
                out[-1] = (tok, out[-1][1] + p)
                break
            out.pop()
        out.extend(letters[k:])
    return BraidWord(tuple(out))


@dataclass(frozen=True)
class LeakageReport:
    """Per-iteration record of the recursion's leakage and phases."""

    word: BraidWord
    k: int
    su2_offdiag: float
    su11_offdiag: float
    theta1: float
    theta2: float
    word_length: int
    law_defect_su2: Optional[float] = None
    law_defect_su11: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "word": str(self.word),
            "k": self.k,
            "su2": self.su2_offdiag,
            "su11": self.su11_offdiag,
            "theta": [self.theta1, self.theta2],
            "len": self.word_length,
            "law_defect": [self.law_defect_su2, self.law_defect_su11],
        }


def _diag_phases(diag) -> tuple[float, float]:
    """Computational diagonal arguments after dividing out the mean phase.

    ``diag`` is the operator's diagonal, four complex numbers.

    The mean phase is the circular mean of the four diagonal phases (the
    argument of the sum of their unit vectors), which is branch-stable; for
    a special near-diagonal matrix it vanishes and the raw arguments are
    returned.  Results lie in (-pi, pi].
    """
    d = [complex(z) for z in diag]
    vec = sum(z / abs(z) for z in d)
    mean = cmath.phase(vec) if abs(vec) > 1e-12 else 0.0
    th1 = _wrap_angle(cmath.phase(d[1]) - mean)
    th2 = _wrap_angle(cmath.phase(d[2]) - mean)
    return th1, th2


def _wrap_angle(x: float) -> float:
    y = math.fmod(x + math.pi, 2 * math.pi)
    if y <= 0:
        y += 2 * math.pi
    return y - math.pi


def _rel_defect(measured: float, predicted: float) -> float:
    if predicted == 0:
        return 0.0 if measured == 0 else math.inf
    return abs(measured - predicted) / predicted


def _law_remedy(params: ModelParams, extended: bool) -> str:
    """What to do about a fifth-power-law defect.  The law needs D's ratio
    e^{i pi (3 + alpha)} to be a primitive 10th root of unity, so at an exact
    alpha with 5 (3 + alpha) not an odd integer prime to 5 no precision helps."""
    m = None if params.exact is None else 5 * (3 + params.exact)
    if m is not None and not (m.denominator == 1 and m.numerator % 10 in (1, 3, 7, 9)):
        return (f"the law does not hold at alpha = {params.exact}: it needs "
                "5(3 + alpha) to be an odd integer prime to 5")
    return "rerun with a larger dps" if extended else "rerun with extended=True"


def reichardt_iterate(params: ModelParams, word: BraidWord = W_WORD, k: int = 3,
                      extended: bool = False, dps: int = 120) -> list[LeakageReport]:
    """Iterate the recursion k times starting from the given braid word.

    Returns reports for iterations 0..k.  ``extended`` switches the whole
    evaluation to an mpmath namespace of its own at ``dps`` digits (see
    :func:`~nss.anyon.mp_namespace`), needed when an off-diagonal
    falls below the double-precision cancellation floor (~1e-16); without
    it, a fifth-power-law violation beyond ``_LAW_TOL`` raises
    PrecisionExhausted.  Raises ValueError when k < 0 or an extended run's
    dps lies outside 1.._MAX_DPS.
    """
    if k < 0:
        raise ValueError("k must be at least 0")
    if extended and not 1 <= dps <= _MAX_DPS:
        raise ValueError(f"dps must lie in 1..{_MAX_DPS}")
    if k > 4 and not extended:
        raise PrecisionExhausted("k > 4 needs the extended-precision mode")
    ns = mp_namespace(dps) if extended else FLOAT_NS
    cur = evaluate_word(params, PSI_LEAVES, word, ns=ns)
    dm = evaluate_word(params, PSI_LEAVES, D_WORD, ns=ns)
    reports = []
    cur_word = word
    for step in range(k + 1):
        # the law is checked in the working precision: extended-mode
        # off-diagonals fall far below the smallest double
        mags = abs(cur[0, 1]), abs(cur[2, 3])
        su2, su11 = float(mags[0]), float(mags[1])
        ld2 = ld11 = None
        if step > 0:
            ld2 = float(_rel_defect(mags[0], prev_mags[0] ** 5))
            ld11 = float(_rel_defect(mags[1], prev_mags[1] ** 5))
            if max(ld2, ld11) > _LAW_TOL:
                raise PrecisionExhausted(
                    f"fifth-power law defect {max(ld2, ld11):.2e} at k={step}; "
                    + _law_remedy(params, extended))
        th1, th2 = _diag_phases(np.diag(cur))
        reports.append(LeakageReport(cur_word, step, su2, su11, th1, th2,
                                     len(cur_word), ld2, ld11))
        prev_mags = mags
        if step < k:
            cur = reichardt_step(cur, dm)
            cur_word = step_word(cur_word)
    return reports


# ---------------------------------------------------------------------------
# brute-force search
# ---------------------------------------------------------------------------

# raw hits deduplicated per numpy pass
_DEDUPE_CHUNK = 128
# syllables a search may reach; see search_low_leakage
_MAX_SEARCH_LEN = 64


@dataclass(frozen=True)
class SearchHit:
    word: BraidWord
    report: LeakageReport


def _letter_pool(params: ModelParams, max_power: int):
    """Every syllable on the two leaf arrangements, as (its 8 block entries,
    the arrangement it leads to).

    The entries are the upper then the lower 2x2 block, row-major, as Python
    complex; a syllable that couples the blocks raises NotBlockDiagonal, an x
    that is not diagonal ModelError (the search steps x as a diagonal).
    Each power is the one before it times a unit letter, as evaluate_word_open forms it.
    """
    arrangements = [PSI_LEAVES, (ALPHA, SIGMA, PSI, SIGMA)]
    pool = {}
    for si, leaves in enumerate(arrangements):
        run = {}  # (generator, sign) -> the last power formed and where it leads
        for tok, p in _syllables(max_power):
            sign = 1 if p > 0 else -1
            m, cur = run.get((tok, sign), (None, leaves))
            lm, cur = letter_matrix(params, cur, tok, sign)
            run[tok, sign] = m, cur = (lm if m is None else lm @ m), cur
            entries = tuple(complex(z) for z in _blocks(m).ravel())
            if tok == "x" and any(entries[i] != 0 for i in (1, 2, 5, 6)):
                raise ModelError(f"syllable {BraidWord(((tok, p),))} on "
                                 f"{','.join(map(str, leaves))} is not diagonal")
            pool[(si, tok, p)] = (entries, arrangements.index(cur))
    return pool


def _syllables(max_power: int) -> list[tuple[str, int]]:
    """The search alphabet: x then b2, each with powers 1, -1, 2, -2, ..., +-max_power."""
    return [(tok, p) for tok in ("x", "b2") for a in range(1, max_power + 1) for p in (a, -a)]


def _block_product(s, m):
    """The 8 block entries of S @ M, given the 8 block entries of each."""
    a0, a1, a2, a3, b0, b1, b2, b3 = s
    u00, u01, u10, u11, l00, l01, l10, l11 = m
    return (a0 * u00 + a1 * u10, a0 * u01 + a1 * u11,
            a2 * u00 + a3 * u10, a2 * u01 + a3 * u11,
            b0 * l00 + b1 * l10, b0 * l01 + b1 * l11,
            b2 * l00 + b3 * l10, b2 * l01 + b3 * l11)


def _search_range(params, max_len, threshold, max_power, first_syllables):
    """Raw hits (word, n1, n2, 8 block entries) of the DFS over the words
    starting with one of first_syllables.

    A node carries only the second column of each block, (u01, u11, l01,
    l11), since M[:, 1] = S M_prev[:, 1] and the norms read nothing else;
    an x syllable is diagonal in both blocks (see _letter_pool), so its step
    is 4 products, and a b2 node forms the u11, l11 entries only for the x
    level below it (x leaves read neither).  Each node reads the pool once,
    with one of the pool's own keys.  The last level is scored in its
    parent's loop, and a node on arrangement 0 forms its second norm only
    when the first passes.  A hit's 8 entries are its path's full block
    products, formed with _block_product in the path's order only when a hit
    needs them.
    """
    pool = _letter_pool(params, max_power)
    # the (pool key, syllable) pairs that follow each generator, indexed by arrangement
    x_steps, b2_steps = ([[(key, key[1:]) for key in pool if key[:2] == (si, tok)] for si in (0, 1)]
                         for tok in ("x", "b2"))
    last = max_len - 1
    hits = []
    word, mats = [None] * max_len, [None] * max_len  # the path's syllables and entries
    # full[d]: the block entries of the path's first d syllables; a node at
    # depth d resets full[d + 1] to None, and a hit forms what it needs
    full = [(1 + 0j, 0j, 0j, 1 + 0j) * 2] + [None] * max_len

    def formed(depth):
        if full[depth] is None:
            full[depth] = _block_product(mats[depth - 1], formed(depth - 1))
        return full[depth]

    # each level places its generator's syllables at depth, after the node
    # whose second columns are (u01, u11) and (l01, l11)
    def x_level(depth, tok_steps, u01, u11, l01, l11):
        nd = depth + 1
        for key, syl in tok_steps:
            s, si2 = pool[key]
            a0, _, _, a3, b0, _, _, b3 = s
            v01, v11, w01, w11 = a0 * u01, a3 * u11, b0 * l01, b3 * l11
            word[depth], mats[depth], full[nd] = syl, s, None
            if not si2 and abs(v01) < threshold and abs(w01) < threshold:
                full[nd] = f = _block_product(s, full[depth] or formed(depth))
                hits.append((tuple(word[:nd]), abs(v01), abs(w01), f))
            if nd < last:
                b2_level(nd, b2_steps[si2], v01, v11, w01, w11)
            elif nd == last:
                for key, syl in b2_steps[si2]:
                    s, si3 = pool[key]
                    if not si3:
                        n1 = abs(s[0] * v01 + s[1] * v11)
                        if n1 < threshold:
                            n2 = abs(s[4] * w01 + s[5] * w11)
                            if n2 < threshold:
                                word[last] = syl
                                hits.append((tuple(word), n1, n2,
                                             _block_product(s, full[last] or formed(last))))

    def b2_level(depth, tok_steps, u01, u11, l01, l11):
        nd = depth + 1
        for key, syl in tok_steps:
            s, si2 = pool[key]
            a0, a1, a2, a3, b0, b1, b2, b3 = s
            v01, w01 = a0 * u01 + a1 * u11, b0 * l01 + b1 * l11
            word[depth], mats[depth], full[nd] = syl, s, None
            if not si2 and abs(v01) < threshold and abs(w01) < threshold:
                full[nd] = f = _block_product(s, full[depth] or formed(depth))
                hits.append((tuple(word[:nd]), abs(v01), abs(w01), f))
            if nd < last:
                x_level(nd, x_steps[si2], v01, a2 * u01 + a3 * u11,
                        w01, b2 * l01 + b3 * l11)
            elif nd == last:
                for key, syl in x_steps[si2]:
                    s, si3 = pool[key]
                    if not si3:
                        n1 = abs(s[0] * v01)
                        if n1 < threshold:
                            n2 = abs(s[4] * w01)
                            if n2 < threshold:
                                word[last] = syl
                                hits.append((tuple(word), n1, n2,
                                             _block_product(s, full[last] or formed(last))))

    for syl in first_syllables:
        level, tok_steps = (x_level, x_steps) if syl[0] == "x" else (b2_level, b2_steps)
        level(0, [st for st in tok_steps[0] if st[1] == syl], 0j, 1 + 0j, 0j, 1 + 0j)
    return hits


def search_low_leakage(params: ModelParams, max_len: int, threshold: float,
                       jobs: int = 1, max_power: int = 2) -> list[SearchHit]:
    """All words (syllable count <= max_len, |syllable power| <= max_power)
    on the control sector with both block off-diagonals below threshold.

    Words are enumerated in free-reduced form (alternating generators);
    results equal up to a global phase are merged, keeping the first in
    (leakage, length, text) order.  Deterministic for fixed arguments.
    Raises ValueError when max_len, max_power or jobs is below 1, max_len
    is above 64 (each syllable at least doubles the nodes, so a search that
    deep could never finish, and 64 DFS frames sit far below the
    interpreter's recursion limit of 1,000), max_power is above the 100,000
    unit letters a word may have or the threshold is not finite; a
    threshold <= 0 gives no results.
    """
    if max_len < 1 or max_power < 1 or jobs < 1:
        raise ValueError("max_len, max_power and jobs must be at least 1")
    if max_len > _MAX_SEARCH_LEN:
        raise ValueError(f"max_len {max_len} is above {_MAX_SEARCH_LEN}: "
                         "a search that deep could never finish")
    if max_power > _MAX_UNIT_LETTERS:
        raise ValueError(f"max_power {max_power} is above the {_MAX_UNIT_LETTERS} "
                         "unit letters a word may have")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be a finite number")
    if threshold <= 0:
        return []
    syllables = _syllables(max_power)
    if jobs > 1:
        # imported here, so importing the package does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # one task per first syllable; concatenated in order they give the
        # serial DFS order
        with ProcessPoolExecutor(max_workers=min(jobs, len(syllables))) as ex:
            futs = [ex.submit(_search_range, params, max_len, threshold,
                              max_power, (s,)) for s in syllables]
            raw = []
            for f in futs:
                raw.extend(f.result())
    else:
        raw = _search_range(params, max_len, threshold, max_power, syllables)

    text = _word_text(syllables)

    def rank(h):
        word, n1, n2, _ = h
        return (round(max(n1, n2), 12), len(word), text(word))

    raw.sort(key=rank)
    return _phase_dedupe(raw)


def _word_text(syllables):
    """str(BraidWord(word)) for words over syllables, joined from each
    syllable's text."""
    text = {s: str(BraidWord((s,))) for s in syllables}.__getitem__
    return lambda word: " ".join(map(text, word))


def _phase_dedupe(raw) -> list[SearchHit]:
    """The ranked raw hits without those equal to an earlier one up to a
    global phase.

    Each hit's 8x8 outer product v v^dag of its block entries is
    phase-free; rounded to 6 digits it is a bucket key, and a hit is a
    duplicate when it lies within 1e-8 of an operator kept in its bucket.
    The hits go through numpy _DEDUPE_CHUNK at a time.
    """
    out = []
    buckets = {}
    for start in range(0, len(raw), _DEDUPE_CHUNK):
        chunk = raw[start:start + _DEDUPE_CHUNK]
        v = np.array([h[3] for h in chunk])
        vv = v[:, :, None] * v.conj()[:, None, :]  # np.outer of each row
        rounded = np.round(vv, 6)
        rounded += 0.0  # turns -0.0 into 0.0, so equal rounded values give equal bytes
        keys = [r.tobytes() for r in rounded]
        # each row against the first operator kept under its key: one kept in
        # an earlier chunk, else this chunk's first row with the key
        firsts = {}
        refs = [buckets[key][0] if key in buckets else vv[firsts.setdefault(key, i)]
                for i, key in enumerate(keys)]
        near_first = np.max(np.abs(vv - np.array(refs)), axis=(1, 2)) < 1e-8
        for (word, n1, n2, entries), row, key, near in zip(chunk, vv, keys, near_first):
            bucket = buckets.setdefault(key, [])
            if bucket and (near or any(np.max(np.abs(row - seen)) < 1e-8
                                       for seen in bucket[1:])):
                continue
            bucket.append(row.copy())
            bw = BraidWord(word)
            th1, th2 = _diag_phases([entries[i] for i in (0, 3, 4, 7)])
            out.append(SearchHit(bw, LeakageReport(bw, 0, n1, n2, th1, th2, len(bw))))
    return out


# ---------------------------------------------------------------------------
# the controlled gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlledGate:
    matrix: np.ndarray            # on the 6-dim two-qubit comb basis
    computational: np.ndarray     # 4x4 block on |00>,|10>,|01>,|11>
    leakage: float                # max coupling into the noncomputational pair
    schmidt_rank: int


def operator_schmidt_rank(block: np.ndarray) -> int:
    """Rank of the two-qubit operator over the product-operator basis."""
    b = np.asarray(block, dtype=complex).reshape(2, 2, 2, 2)
    # index (b1, b2, b1', b2') with the first qubit varying fastest
    m = b.transpose(0, 2, 1, 3).reshape(4, 4)
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0]))


def controlled_gate(two_qubit: IndefSpace, u_psi: np.ndarray,
                    leak_tol: float = 1e-6) -> ControlledGate:
    """Conjugate a control-sector gate back to the two-qubit comb basis.

    The 4x4 ``u_psi`` acts on the four control-sector vectors and the identity
    on the two vacuum-channel vectors of (a,s,s,s,s) at charge a; the result
    is on the basis |00>,|10>,|01>,|11>,NC1,NC2.  Raises NotBlockDiagonal
    when the gate couples the computational block to the noncomputational
    pair beyond ``leak_tol``.
    """
    if QubitCode.of(two_qubit.leaves, two_qubit.charge) != QubitCode(2):
        raise UnsupportedTriple("controlled_gate needs the two-qubit space (a,s,s,s,s) at charge a")
    if np.shape(u_psi) != (4, 4):
        raise ValueError(f"u_psi must be 4x4, not of shape {np.shape(u_psi)}")
    cb = control_basis_transform(two_qubit)
    op = np.eye(6, dtype=complex)
    op[2:, 2:] = np.asarray(u_psi, dtype=complex)
    t = cb.matrix
    g = np.linalg.inv(t) @ op @ t
    blocks = block_decompose(g, two_qubit, leak_tol)
    comp = blocks.computational
    return ControlledGate(g, comp, blocks.leakage, operator_schmidt_rank(comp))

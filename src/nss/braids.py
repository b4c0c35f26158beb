"""Affine braid generators as matrices on fusion-tree bases.

Generators: ``x`` is the full wrap of strand 2 around the pole strand
(diagonal in the left-comb basis), ``h1`` the half-exchange of strands
1 and 2, and ``b{i}`` for i >= 2 the half-exchange of strands i, i+1
assembled as F^{-1} R F at the affected vertex.  Letters that permute
distinct leaf labels map between spaces; a word must return the labeling
to close into an operator.

Words read left to right with the leftmost letter acting first.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator
import re
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anyon import (FLOAT_NS, computational_bubbles, f_channels, f_matrix, q_power,
                    r_symbol)
from .errors import LeakyPermutation, NotBlockDiagonal, UnsupportedFamily
from .labels import ModelParams, QLabel
from .spaces import IndefSpace, enumerate_basis

# global phases making the single-qubit generator matrices special unitary
SPECIAL_UNITARY_PHASES = {
    "x": -cmath.exp(1j * math.pi / 4),       # -q
    "b2": cmath.exp(-1j * 3 * math.pi / 8),  # q^(-3/2)
}


# ---------------------------------------------------------------------------
# braid words
# ---------------------------------------------------------------------------

_LETTER_RE = re.compile(r"x|h1|b([2-9]|[1-9]\d+)")
_SYLLABLE_RE = re.compile(r"([a-z]+)(\d*)(?:\^(-?\d+))?")
# a word costs one letter matrix per unit of power; words with more unit
# letters are refused before any letter is built
_MAX_UNIT_LETTERS = 100_000


def _strand(tok) -> int:
    """The one definition of a letter: x, h1, b2, b3, ... spelled canonically.

    Returns the first strand it acts on (0 for x and h1, i-1 for b{i}).
    """
    m = _LETTER_RE.fullmatch(tok) if isinstance(tok, str) else None
    if m is None:
        raise ValueError(f"unknown letter {tok!r}")
    return int(m.group(1)) - 1 if m.group(1) else 0


@dataclass(frozen=True)
class BraidWord:
    """(token, nonzero power) syllables; the bare constructor checks nothing."""

    letters: tuple[tuple[str, int], ...]

    @classmethod
    def parse(cls, text: str) -> "BraidWord":
        """Read ``tok^p`` syllables; case and an index's leading zeros are read away."""
        letters = []
        for raw in text.split():
            m = _SYLLABLE_RE.fullmatch(raw.lower())
            if not m:
                raise ValueError(f"bad braid token {raw!r}")
            name, index, power = m.groups()
            letters.append((name + (str(int(index)) if index else ""), int(power or 1)))
        return cls.from_letters(letters)

    @classmethod
    def from_letters(cls, letters) -> "BraidWord":
        """A word of (token, power) pairs; zero powers are dropped."""
        out = []
        for tok, p in letters:
            _strand(tok)  # raises unless tok is a letter
            if not isinstance(p, (int, np.integer)):
                raise ValueError(f"power {p!r} of {tok} is not an integer")
            if p:
                out.append((tok, int(p)))
        return cls(tuple(out))

    def __str__(self) -> str:
        return " ".join(t if p == 1 else f"{t}^{p}" for t, p in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def free_reduce(self) -> "BraidWord":
        out: list[list] = []
        for tok, p in self.letters:
            if out and out[-1][0] == tok:
                out[-1][1] += p
                if out[-1][1] == 0:
                    out.pop()
            else:
                out.append([tok, p])
        return BraidWord(tuple((t, p) for t, p in out))

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((t, -p) for t, p in reversed(self.letters)))


def apply_letter_to_leaves(leaves, tok: str) -> tuple[QLabel, ...]:
    leaves = tuple(leaves)
    i = _strand(tok)
    if i + 1 >= len(leaves):
        raise ValueError(f"letter {tok} needs strand {i + 2}")
    if tok == "x":
        return leaves
    out = list(leaves)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# elementary letter matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LetterPlan:
    """The alpha-free structure of one unit letter on one basis.

    Each row of ``entries`` is (row, column, amplitude) of a nonzero entry.
    R label k's phase is the product of r_symbol over ``r_args[k]``; the
    inverse letter's is the reciprocal over those triples reversed, each with
    its first two labels swapped.  An exchange amplitude sums, in term order,
    F_tgt^-1[row, w] * R_w * F_src[w, col] over terms ((block, row, col),
    label, (block, row, col)); x and h1 have no F blocks and their
    amplitudes are the phases.
    """

    leaves: tuple[QLabel, ...]   # after the letter
    shape: tuple[int, int]
    f_args: tuple                # f_matrix arguments (a, b, c, d), per block
    r_args: tuple
    amplitudes: tuple
    entries: np.ndarray


@functools.lru_cache(maxsize=256)  # plans are alpha-free; the bound stops growth
def _letter_plan(leaves: tuple, charge: QLabel, tok: str) -> _LetterPlan:
    new_leaves, i = apply_letter_to_leaves(leaves, tok), _strand(tok)
    basis = enumerate_basis(leaves, charge)
    idx = {t.chain: k for k, t in enumerate(enumerate_basis(new_leaves, charge))}
    blocks, labels, amps, entries = {}, {}, {}, []

    def block(args):
        channels = f_channels(*args)
        if channels is None:
            raise UnsupportedFamily("F[{},{},{};{}] not tabulated".format(*args))
        return (blocks.setdefault(args, len(blocks)),) + channels

    def label(*triples):
        return labels.setdefault(triples, len(labels))

    for j, tree in enumerate(basis):
        ch = tree.chain
        if tok in ("x", "h1"):  # the wrap of strand 2 around strand 1, or their half-exchange
            L0, L1 = leaves[:2]
            triples = ((L1, L0, ch[1]), (L0, L1, ch[1]))[:2 if tok == "x" else 1]
            entries.append((idx[(new_leaves[0],) + ch[1:]], j, label(*triples)))
            continue
        # half-exchange of leaves i, i+1 via F^-1 R F at their vertex
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
    entries = np.array(entries, dtype=np.intp).reshape(-1, 3)
    entries.setflags(write=False)
    return _LetterPlan(new_leaves, (len(idx), len(basis)), tuple(blocks), tuple(labels),
                       tuple(amps), entries)


# double-precision letters by (params, leaves, charge, tok, sign), oldest
# evicted first; the bound sits above the ~900 letters of a verify process
_LETTER_MEMO_SIZE = 1024
_LETTER_MEMO: dict = {}
_LETTER_MEMO_LOCK = threading.Lock()


def letter_matrix(params: ModelParams, leaves, tok: str, sign: int,
                  charge: Optional[QLabel] = None, ns=FLOAT_NS,
                  symbols: Optional[dict] = None):
    """Matrix of one unit-power letter; returns (matrix, new_leaves).

    Each F block and R symbol the letter's cached plan needs is read from
    ``symbols`` (keyed by its argument tuple) or evaluated into it; one dict
    serves the letters of one evaluation.  Double-precision results are
    memoized as read-only arrays in a bounded memo; readers take one
    ``get`` and writers hold a lock, so concurrent callers are safe.
    """
    leaves = tuple(leaves)
    if charge is None:
        charge = leaves[0]
    cacheable = ns is FLOAT_NS
    key = (params, leaves, charge, tok, sign)
    if cacheable:
        hit = _LETTER_MEMO.get(key)
        if hit is not None:
            return hit
    plan = _letter_plan(leaves, charge, tok)
    symbols = {} if symbols is None else symbols
    for args in plan.f_args:
        if args not in symbols:
            blk = f_matrix(*args, params, ns)
            symbols[args] = (blk.matrix, blk.inverse())
    blocks = [symbols[args] for args in plan.f_args]
    values = []
    for triples in plan.r_args:
        if sign < 0:
            triples = tuple((a, b, c) for b, a, c in reversed(triples))
        for args in triples:
            if args not in symbols:
                symbols[args] = r_symbol(*args, params, ns)
        ph = functools.reduce(operator.mul, [symbols[args] for args in triples])
        values.append(1 / ph if sign < 0 else ph)
    if plan.amplitudes:
        phases, values = values, []
        for terms in plan.amplitudes:
            amp = 0
            for (tb, tj, wt), lab, (sb, wi, col) in terms:
                amp = amp + blocks[tb][1][tj, wt] * phases[lab] * blocks[sb][0][wi, col]
            values.append(amp)
    m = np.zeros(plan.shape, dtype=ns.dtype)
    rows, cols, amp_index = plan.entries.T
    m[rows, cols] = np.array(values, dtype=ns.dtype)[amp_index]
    if cacheable:
        m.setflags(write=False)
        with _LETTER_MEMO_LOCK:
            if len(_LETTER_MEMO) >= _LETTER_MEMO_SIZE:
                del _LETTER_MEMO[next(iter(_LETTER_MEMO))]
            _LETTER_MEMO[key] = (m, plan.leaves)
    return m, plan.leaves


# ---------------------------------------------------------------------------
# braid matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidMatrix:
    """A braid operator on an IndefSpace."""

    matrix: np.ndarray
    space: IndefSpace


def generator_matrix(space: IndefSpace, tok: str, power: int = 1,
                     global_phase: Optional[complex] = None) -> BraidMatrix:
    """Matrix of a single generator power on the space's basis.

    Raises LeakyPermutation when the letter at that power permutes the leaf
    labeling, so the basis is not preserved.  No phase is applied unless the
    caller passes one; the matrix is then multiplied by ``global_phase ** power``.
    """
    m = evaluate_word(space.params, space.leaves, BraidWord.from_letters([(tok, power)]),
                      charge=space.charge)
    if global_phase is not None:
        m = m * (global_phase ** power)
    return BraidMatrix(m, space)


def evaluate_word_open(params: ModelParams, leaves, word: BraidWord,
                       charge: Optional[QLabel] = None, ns=FLOAT_NS):
    """Like evaluate_word but permits a net permutation.

    Returns (matrix, final_leaves); the matrix maps the initial basis to the
    basis of the permuted system.  Raises ValueError when the powers' absolute
    values sum to more than 100,000 unit letters.
    """
    units = sum(abs(p) for _, p in word.letters)
    if units > _MAX_UNIT_LETTERS:
        raise ValueError(f"word has {units} unit letters, more than the "
                         f"{_MAX_UNIT_LETTERS} a word may have")
    leaves = tuple(leaves)
    if charge is None:
        charge = leaves[0]
    cur = leaves
    m = np.zeros((len(enumerate_basis(leaves, charge)),) * 2, dtype=ns.dtype)
    np.fill_diagonal(m, ns.one + 0 * ns.i)
    symbols = {}  # this call's F blocks and R symbols, by argument tuple
    for tok, p in word.letters:
        for _ in range(abs(p)):
            lm, cur = letter_matrix(params, cur, tok, 1 if p > 0 else -1, charge, ns, symbols)
            m = lm @ m
    return m, cur


def evaluate_word(params: ModelParams, leaves, word: BraidWord,
                  charge: Optional[QLabel] = None, ns=FLOAT_NS) -> np.ndarray:
    """Left-to-right product of letter matrices; leftmost acts first."""
    leaves = tuple(leaves)
    m, cur = evaluate_word_open(params, leaves, word, charge, ns)
    if cur != leaves:
        raise LeakyPermutation(f"word leaves the system as {','.join(map(str, cur))}")
    return m


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def pseudo_unitarity_defect(matrix, space: IndefSpace) -> float:
    """max-norm of M^dagger J M - J for J = diag(metric signs)."""
    m = np.asarray(matrix, dtype=complex)
    j = space.J
    return float(np.max(np.abs(m.conj().T @ j @ m - j)))


@dataclass(frozen=True)
class BlockDecomposition:
    computational: np.ndarray
    leakage: float


def block_decompose(matrix, space: IndefSpace, tol: Optional[float] = None) -> BlockDecomposition:
    """Split over the computational/noncomputational partition.

    Raises NotBlockDiagonal (carrying the off-block norm) when the matrix
    mixes the two sectors beyond tolerance.
    """
    m = np.asarray(matrix, dtype=complex)
    mask = space.computational_mask
    if tol is None:
        tol = space.params.tol
    off1 = m[np.ix_(mask, ~mask)]
    off2 = m[np.ix_(~mask, mask)]
    leak = float(max(np.max(np.abs(off1)) if off1.size else 0.0,
                     np.max(np.abs(off2)) if off2.size else 0.0))
    if leak > tol:
        raise NotBlockDiagonal(leak)
    return BlockDecomposition(m[np.ix_(mask, mask)], leak)


@dataclass(frozen=True)
class OrderResult:
    projective: Optional[int]
    strict: Optional[int]
    max_checked: int
    defect: float
    scalar: Optional[complex] = None


def matrix_order(matrix, max_n: int, tol: float = 1e-10) -> OrderResult:
    """Least k <= max_n with M^k a unit scalar (projective) or identity (strict).

    The scalar compared against is the Frobenius-optimal multiple of the
    identity, trace(M^k)/dim.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    acc = eye = np.eye(n, dtype=complex)
    projective = strict = scalar = None
    best_defect = math.inf
    for k in range(1, max_n + 1):
        acc = acc @ m
        lam = np.trace(acc) / n
        defect = float(np.max(np.abs(acc - lam * eye)))
        best_defect = min(best_defect, defect)
        if projective is None and defect < tol and abs(abs(lam) - 1) < tol:
            projective = k
            scalar = complex(lam)
        if strict is None and float(np.max(np.abs(acc - eye))) < tol:
            strict = k
        # strict order, when finite, divides a small multiple of projective
        if projective is not None and (strict is not None or k >= projective * n * 8):
            break
    return OrderResult(projective, strict, max_n, best_defect, scalar)


# ---------------------------------------------------------------------------
# closed forms for the single-qubit system
# ---------------------------------------------------------------------------

def wrap_closed_form(params: ModelParams, phased: bool = False) -> np.ndarray:
    """Analytic wrap matrix on (alpha, sigma, sigma): diag(q^(3+a), q^(3-a)).

    With the special-unitary phase -q it becomes diag(q^a, q^-a).
    """
    al = params.alpha
    m = np.diag([q_power(3 + al), q_power(3 - al)])
    if phased:
        m = SPECIAL_UNITARY_PHASES["x"] * m
    return m


def exchange_closed_form(params: ModelParams, phased: bool = False) -> np.ndarray:
    """Analytic sigma-exchange matrix on (alpha, sigma, sigma).

    The phased version q^(-3/2) * M is special unitary with entries
    q^-1 (1+q^2)/(1-q^(+-2a)) on the diagonal and q^-2 sqrt(B+)/sqrt(B-)
    off the diagonal.
    """
    al = params.alpha
    bp, bm = computational_bubbles(params)
    rt = cmath.sqrt(bp) / cmath.sqrt(bm)
    q2 = q_power(2)
    m = q_power(-1) * np.array(
        [[(1 + q2) / (1 - q_power(2 * al)), q_power(-1) * rt],
         [q_power(-1) * rt, (1 + q2) / (1 - q_power(-2 * al))]])
    if not phased:
        m = m / SPECIAL_UNITARY_PHASES["b2"]
    return m


def two_qubit_block_form(params: ModelParams, gen: str) -> np.ndarray:
    """Expected 6x6 matrices on the two-qubit space, assembled from the
    single-qubit closed forms: the wrap and first exchange act on the first
    qubit, the composite pole braid b3 b2 x b2 b3 and the last exchange act
    on the second, with the stated scalars on the noncomputational pair.
    """
    al = params.alpha
    x1 = wrap_closed_form(params)
    b1 = exchange_closed_form(params)
    out = np.zeros((6, 6), dtype=complex)

    def first_qubit(u):
        return np.kron(np.eye(2), u)   # first-qubit bit varies fastest

    def second_qubit(u):
        return np.kron(u, np.eye(2))

    if gen == "x":
        out[:4, :4] = first_qubit(x1)
        out[4:, 4:] = x1
    elif gen == "b2":
        out[:4, :4] = first_qubit(b1)
        out[4:, 4:] = q_power(0.5) * np.eye(2)
    elif gen == "b4":
        out[:4, :4] = second_qubit(b1)
        out[4:, 4:] = q_power(0.5) * np.eye(2)
    elif gen == "j4":
        out[:4, :4] = second_qubit(x1)
        out[4:, 4:] = np.diag([q_power(1 - al), q_power(1 + al)])
    else:
        raise ValueError(f"no closed block form for {gen!r}")
    return out


J4_WORD = BraidWord.parse("b3 b2 x b2 b3")

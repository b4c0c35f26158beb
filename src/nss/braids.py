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

from .anyon import (_ARRAY_NS, _COMPUTATIONAL_TRIPLES, FLOAT_NS, _f_blocks, _symbol_stack,
                    computational_bubbles, f_channels, f_matrix, q_power, r_symbol)
from .errors import LeakyPermutation, NotBlockDiagonal, UnsupportedFamily
from .labels import ModelParams, QLabel
from .spaces import IndefSpace, _system, enumerate_basis

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
        """Merge neighbouring syllables of one generator and drop zero powers;
        a syllable that merges with none is kept as the same object."""
        out = []
        for syl in self.letters:
            tok, p = syl
            if out and out[-1][0] == tok:
                p += out.pop()[1]
                syl = (tok, p)
            if p:
                out.append(syl)
        return BraidWord(tuple(out))

    def inverse(self) -> "BraidWord":
        """The reversed word of negated powers, one syllable object per distinct syllable."""
        inv = {s: (s[0], -s[1]) for s in set(self.letters)}
        return BraidWord(tuple(map(inv.__getitem__, reversed(self.letters))))


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


@functools.lru_cache(maxsize=256)  # alpha-free and bounded; memo entries reference their plan
def _letter_plan(leaves: tuple, charge: QLabel, tok: str) -> _LetterPlan:
    new_leaves, i = apply_letter_to_leaves(leaves, tok), _strand(tok)
    basis, new_basis = enumerate_basis(leaves, charge), enumerate_basis(new_leaves, charge)
    idx = {t.chain: k for k, t in enumerate(new_basis)}
    # a letter that keeps the leaves keeps the basis: a chain it keeps stays in its column
    same = new_basis is basis
    blocks, labels, amps, entries = {}, {}, {}, []  # entries flat, three per nonzero

    def block(args):
        channels = f_channels(*args)
        if channels is None:
            raise UnsupportedFamily("F[{},{},{};{}] not tabulated".format(*args))
        return (blocks.setdefault(args, len(blocks)),) + channels

    def label(*triples):
        return labels.setdefault(triples, len(labels))

    P, Q = leaves[i], leaves[i + 1]
    vertices = {}  # by local vertex (ch[i-1], ch[i], ch[i+1]), as first met
    for j, tree in enumerate(basis):
        ch = tree.chain
        if tok in ("x", "h1"):  # the wrap of strand 2 around strand 1, or their half-exchange
            triples = ((Q, P, ch[1]), (P, Q, ch[1]))[:2 if tok == "x" else 1]
            entries += (j if same else idx[(new_leaves[0],) + ch[1:]], j, label(*triples))
            continue
        # half-exchange of leaves i, i+1 via F^-1 R F at their vertex
        v = ch[i - 1:i + 2]
        vertex = vertices.get(v)
        if vertex is None:
            src = block((ch[i - 1], P, Q, ch[i + 1]))
            tgt = block((ch[i - 1], Q, P, ch[i + 1]))
            # with each target channel's amplitude, once one is kept
            vertex = vertices[v] = src[:2] + (src[2].index(ch[i]),) + tgt + ([None] * len(tgt[2]),)
        sb, s_rows, col, tb, t_rows, t_cols, amp_of = vertex
        for tj, mt in enumerate(t_cols):
            row = j if same and mt == ch[i] else idx[ch[:i] + (mt,) + ch[i + 1:]]
            if amp_of[tj] is None:  # labelled where first kept, as a column loop would
                terms = tuple(((tb, tj, t_rows.index(w)), label((Q, P, w)), (sb, wi, col))
                              for wi, w in enumerate(s_rows))
                amp_of[tj] = amps.setdefault(terms, len(amps))
            entries += (row, j, amp_of[tj])
    entries = np.array(entries, dtype=np.intp).reshape(-1, 3)
    entries.setflags(write=False)
    return _LetterPlan(new_leaves, (len(idx), len(basis)), tuple(blocks), tuple(labels),
                       tuple(amps), entries)


# double-precision letters by (params, leaves, charge, tok, sign) as (plan,
# value per plan entry), oldest evicted first; the bound sits well above the
# 100 letters that the bench's 8 verify jobs leave
_LETTER_MEMO_SIZE = 1024
_LETTER_MEMO: dict = {}
_LETTER_MEMO_LOCK = threading.Lock()


def letter_matrix(params: ModelParams, leaves, tok: str, sign: int,
                  charge: Optional[QLabel] = None, ns=FLOAT_NS,
                  symbols: Optional[dict] = None):
    """Matrix of one unit-power letter; returns (a fresh matrix, new_leaves).

    Each F block and R symbol the letter's cached plan needs is read from
    ``symbols`` (keyed by its argument tuple) or evaluated into it, and so is
    the letter, as its plan and nonzero values keyed by (params, leaves,
    charge, tok, sign); one dict serves the letters of one evaluation.
    Double-precision letters are also memoized that way in a bounded memo;
    readers take one ``get`` and writers hold a lock, so concurrent callers
    are safe.
    """
    leaves, charge = _system(leaves, charge)
    cacheable = ns is FLOAT_NS
    key = (params, leaves, charge, tok, sign)
    symbols = {} if symbols is None else symbols
    hit = (cacheable and _LETTER_MEMO.get(key)) or symbols.get(key)
    if hit:
        return _scatter(*hit), hit[0].leaves
    plan = _letter_plan(leaves, charge, tok)
    for args in plan.f_args:
        if args not in symbols:  # as nested lists, whose entries are Python numbers
            blk = f_matrix(*args, params, ns)
            symbols[args] = (blk.matrix.tolist(), blk.inverse().tolist())
    phases = []
    for triples in plan.r_args:
        if sign < 0:
            triples = tuple((a, b, c) for b, a, c in reversed(triples))
        for args in triples:
            if args not in symbols:
                symbols[args] = r_symbol(*args, params, ns)
        ph = functools.reduce(operator.mul, [symbols[args] for args in triples])
        phases.append(1 / ph if sign < 0 else ph)
    vals = _entry_values(plan, [symbols[args] for args in plan.f_args], phases, ns.dtype)
    vals.setflags(write=False)
    symbols[key] = letter = plan, vals
    if cacheable:
        with _LETTER_MEMO_LOCK:
            if len(_LETTER_MEMO) >= _LETTER_MEMO_SIZE:
                del _LETTER_MEMO[next(iter(_LETTER_MEMO))]
            _LETTER_MEMO[key] = letter
    return _scatter(plan, vals), plan.leaves


def _letter_stack(leaves, tok: str, alphas: np.ndarray, tol: float) -> np.ndarray:
    """:func:`letter_matrix` of the positive unit letter ``tok`` at the
    default charge at each of an array of alphas, bit for bit, on a first axis.
    Its F blocks must be 2x2 families (:func:`anyon._f_blocks`).  Each element
    takes letter_matrix's operations: R phases and block entries are Python
    numbers, multiplied and summed in object arrays."""
    plan = _letter_plan(*_system(leaves), tok)
    # (block, inverse) per F block, holding Python complex, alphas last
    blocks = [[np.moveaxis(np.array(a.tolist(), dtype=object), 0, -1)
               for a in _f_blocks(args, alphas, tol)[:2]] for args in plan.f_args]
    phases = [functools.reduce(operator.mul, [_symbol_stack("R", *args, alphas, tol)
                                              for args in triples])
              for triples in plan.r_args]
    return _scatter(plan, _entry_values(plan, blocks, phases, complex))


def _entry_values(plan: _LetterPlan, blocks, phases, dtype) -> np.ndarray:
    """The value at each row of ``plan.entries``, from the plan's (block,
    inverse) pairs and R phases: its amplitude, or its phase when the plan
    has no F blocks.  Blocks are nested lists of Python numbers, whose * and
    + round as numpy's complex scalars do; stacked inputs are object arrays
    with an alpha axis last, and so are the values."""
    values = phases
    if plan.amplitudes:
        values = []
        for terms in plan.amplitudes:
            amp = 0
            for (tb, tj, wt), lab, (sb, wi, col) in terms:
                amp = amp + blocks[tb][1][tj][wt] * phases[lab] * blocks[sb][0][wi][col]
            values.append(amp)
    return np.array(values, dtype)[plan.entries[:, 2]]


def _scatter(plan: _LetterPlan, vals: np.ndarray) -> np.ndarray:
    """A new letter matrix, zero but for ``vals`` at ``plan.entries``; values
    with an alpha axis last give matrices stacked on a first axis."""
    m = np.zeros(vals.shape[1:] + plan.shape, dtype=vals.dtype)
    m[..., plan.entries[:, 0], plan.entries[:, 1]] = vals.T
    return m


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
    leaves, charge = _system(leaves, charge)
    dim = len(enumerate_basis(leaves, charge))  # an empty basis raises before any letter
    cur, m = leaves, None
    symbols = {}  # this call's F blocks, R symbols and letters, by argument tuple
    for tok, p in word.letters:
        for _ in range(abs(p)):
            lm, cur = letter_matrix(params, cur, tok, 1 if p > 0 else -1, charge, ns, symbols)
            m = lm if m is None else lm @ m
    if m is None:  # the empty word
        m = np.zeros((dim, dim), dtype=ns.dtype)
        np.fill_diagonal(m, ns.one + 0 * ns.i)
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
    # one max over both off-blocks, so a NaN in either propagates and raises
    leak = float(np.max(np.abs(m[mask[:, None] != mask]), initial=0.0))
    if not leak <= tol:
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
    return _wrap_form(params.alpha, FLOAT_NS, phased)


def exchange_closed_form(params: ModelParams, phased: bool = False) -> np.ndarray:
    """Analytic sigma-exchange matrix on (alpha, sigma, sigma).

    The phased version q^(-3/2) * M is special unitary with entries
    q^-1 (1+q^2)/(1-q^(+-2a)) on the diagonal and q^-2 sqrt(B+)/sqrt(B-)
    off the diagonal.
    """
    return _exchange_form(params.alpha, computational_bubbles(params), FLOAT_NS, phased)


def _closed_form_stacks(alphas: np.ndarray, tol: float):
    """The phased :func:`wrap_closed_form` and :func:`exchange_closed_form` at
    each of an array of alphas, bit for bit, each stacked on a first axis."""
    al = alphas.astype(object)
    bubbles = [_symbol_stack("B", *t, alphas, tol) for t in _COMPUTATIONAL_TRIPLES]
    return _wrap_form(al, _ARRAY_NS, True), _exchange_form(al, bubbles, _ARRAY_NS, True)


# The closed forms at alpha al, a float (FLOAT_NS) or an object array of
# Python floats (_ARRAY_NS): entries are Python numbers either way, and the
# phases multiply complex128 matrices in numpy.

def _wrap_form(al, ns, phased):
    m = _matrices([[q_power(3 + al, ns), 0], [0, q_power(3 - al, ns)]], np.shape(al))
    return SPECIAL_UNITARY_PHASES["x"] * m if phased else m


def _exchange_form(al, bubbles, ns, phased):
    bp, bm = bubbles
    rt = ns.sqrt(bp) / ns.sqrt(bm)
    q2 = q_power(2)
    m = q_power(-1) * _matrices(
        [[(1 + q2) / (1 - q_power(2 * al, ns)), q_power(-1) * rt],
         [q_power(-1) * rt, (1 + q2) / (1 - q_power(-2 * al, ns))]], np.shape(al))
    return m if phased else m / SPECIAL_UNITARY_PHASES["b2"]


def _matrices(rows, shape):
    """Rows of numbers, or of object arrays of ``shape``, as complex128
    matrices on the last two axes."""
    m = np.empty(shape + (len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            m[..., i, j] = e
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
    # the first qubit's bit varies fastest: np.kron(np.eye(2), u) acts on it
    if gen == "x":
        out[:4, :4] = np.kron(np.eye(2), x1)
        out[4:, 4:] = x1
    elif gen == "b2":
        out[:4, :4] = np.kron(np.eye(2), b1)
        out[4:, 4:] = q_power(0.5) * np.eye(2)
    elif gen == "b4":
        out[:4, :4] = np.kron(b1, np.eye(2))
        out[4:, 4:] = q_power(0.5) * np.eye(2)
    elif gen == "j4":
        out[:4, :4] = np.kron(x1, np.eye(2))
        out[4:, 4:] = np.diag([q_power(1 - al), q_power(1 + al)])
    else:
        raise ValueError(f"no closed block form for {gen!r}")
    return out


J4_WORD = BraidWord.parse("b3 b2 x b2 b3")

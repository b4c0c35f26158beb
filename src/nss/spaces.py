"""Fusion-tree bases, the indefinite metric, and qubit encodings.

A basis vector of the anyonic Hilbert space for leaves (L0, L1, ..., Lm) at
total charge r is a left-comb fusion tree: a chain c0 = L0, c1, ..., cm = r
with every (c_{i-1}, L_i) -> c_i admissible.  Basis vectors with distinct
chains are orthogonal; each squared norm is a sign times the modified
dimension of the total charge, evaluated by popping the bubbles of the tree
composed with its mirror image.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import anyon
from .anyon import bubble_pop, f_matrix, fuse, modified_dimension
from .errors import EmptyBasis, UnsupportedTriple
from .labels import ALPHA, PSI, SIGMA, VACUUM, ModelParams, QLabel, parse_label


@dataclass(frozen=True)
class FusionTree:
    """A left-comb labeled fusion tree: leaves, internal edge labels, root."""

    leaves: tuple[QLabel, ...]
    internal: tuple[QLabel, ...]
    root: QLabel

    def __post_init__(self):
        if len(self.internal) != max(len(self.leaves) - 2, 0):
            raise ValueError("internal labels must number len(leaves) - 2")

    @property
    def chain(self) -> tuple[QLabel, ...]:
        """c0 = first leaf, then internal labels, ending at the root."""
        if len(self.leaves) == 1:
            return (self.root,)
        return (self.leaves[0],) + self.internal + (self.root,)

    def serialize(self) -> str:
        leaves = ",".join(str(l) for l in self.leaves)
        inner = ",".join(str(l) for l in self.internal)
        return f"({leaves}|{inner}|{self.root})"

    @classmethod
    def deserialize(cls, text: str) -> "FusionTree":
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad tree literal {text!r}")
        parts = body[1:-1].split("|")
        if len(parts) != 3:
            raise ValueError(f"bad tree literal {text!r}")
        leaves = tuple(parse_label(t) for t in parts[0].split(",") if t.strip())
        inner = tuple(parse_label(t) for t in parts[1].split(",") if t.strip())
        return cls(leaves, inner, parse_label(parts[2]))


def _label_sort_key(label: QLabel):
    if label.is_alpha:
        return (0, -label.shift)
    return ({"sigma": 1, "psi": 2, "vac": 3, "s32": 4, "p2": 5}[label.kind], 0)


def _tree_sort_key(tree: FusionTree):
    return tuple(_label_sort_key(l) for l in reversed(tree.chain[1:]))


def _is_qubit_system(leaves, charge) -> bool:
    return (len(leaves) >= 1 and leaves[0].is_alpha and charge == leaves[0]
            and all(l == SIGMA for l in leaves[1:]) and len(leaves) % 2 == 1)


def _bit_pattern(tree: FusionTree):
    """Bits for a computational chain alternating alpha+-1 / alpha, else None."""
    base = tree.leaves[0].shift
    bits = []
    ch = tree.chain
    for i, lbl in enumerate(ch[1:], start=1):
        if not lbl.is_alpha:
            return None
        d = lbl.shift - base
        if i % 2 == 1:
            if d == 1:
                bits.append(0)
            elif d == -1:
                bits.append(1)
            else:
                return None
        elif d != 0:
            return None
    return tuple(bits)


def enumerate_basis(leaves, charge) -> tuple[FusionTree, ...]:
    """All admissible left-comb labelings, deterministically ordered.

    Trees sort by their internal chain read right-to-left with higher
    alpha-shifts first; on qubit systems (alpha followed by an even number
    of sigmas at total charge alpha) computational trees come first, which
    reproduces the two-qubit listing order with the noncomputational
    vectors last.  The basis does not depend on alpha, so each (leaves,
    charge) is enumerated once per process and the same tuple returned.
    """
    return _space_plan(tuple(leaves), charge).basis


@dataclass(frozen=True)
class _SpacePlan:
    """The alpha-free part of a space: its basis and how to sign its metric.

    ``vertices`` holds the distinct (in, in, out) fusion vertices of the
    basis trees in first-appearance order, ``tree_vertices`` row k the
    indices of tree k's vertices in comb order, and ``head`` the number of
    distinct vertices of the first tree (they come first).  ``parity`` is
    (-1)^(n+1) for the total q-spin n of the braided leaves, or None when
    n is not an integer.
    """

    basis: tuple[FusionTree, ...]
    vertices: tuple
    tree_vertices: np.ndarray
    head: int
    parity: int | None
    computational_mask: np.ndarray


# plans are small and alpha-free; the bound only stops unbounded growth
_BASIS_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _space_plan(leaves: tuple, charge) -> _SpacePlan:
    trees = _enumerate_trees(leaves, charge)
    vertices = {}
    rows = [[vertices.setdefault((t.chain[i - 1], leaves[i], t.chain[i]), len(vertices))
             for i in range(1, len(leaves))] for t in trees]
    tree_vertices = np.array(rows, dtype=np.intp).reshape(len(trees), len(leaves) - 1)
    mask = np.array([_computational_flag(t) for t in trees], dtype=bool)
    for arr in (tree_vertices, mask):
        arr.setflags(write=False)
    try:
        parity = (-1) ** (_effective_qubits(leaves) + 1)
    except UnsupportedTriple:
        parity = None
    return _SpacePlan(trees, tuple(vertices), tree_vertices, len(set(rows[0])),
                      parity, mask)


def _enumerate_trees(leaves: tuple, charge) -> tuple[FusionTree, ...]:
    if len(leaves) == 0:
        raise EmptyBasis("no leaves")
    if len(leaves) == 1:
        if leaves[0] == charge:
            return (FusionTree(leaves, (), charge),)
        raise EmptyBasis(f"single leaf {leaves[0]} != charge {charge}")
    chains = []

    def extend(chain):
        i = len(chain)
        if i == len(leaves):
            if chain[-1] == charge:
                chains.append(tuple(chain))
            return
        for c in anyon._outcomes(chain[-1], leaves[i]):
            extend(chain + [c])

    extend([leaves[0]])
    if not chains:
        raise EmptyBasis(f"no admissible labeling for {leaves} at charge {charge}")
    trees = [FusionTree(leaves, ch[1:-1], ch[-1]) for ch in chains]
    if _is_qubit_system(leaves, charge):
        trees.sort(key=lambda t: (_bit_pattern(t) is None, _tree_sort_key(t)))
    else:
        trees.sort(key=_tree_sort_key)
    return tuple(trees)


_QSPIN_ERROR = "metric convention needs integer total q-spin"


def _effective_qubits(leaves) -> int:
    """Total q-spin carried by the braided leaves; integer for charge-alpha spaces."""
    total = sum(0.0 if l.is_alpha else l.value(0.0) for l in leaves[1:])
    n = round(total)
    if abs(total - n) > 1e-9:
        raise UnsupportedTriple(_QSPIN_ERROR)
    return int(n)


def _metric_sign(vertices, leaves, root: QLabel, params: ModelParams) -> int:
    """Norm sign of a tree with the given (in, in, out) fusion vertices.

    Product of the signs of the bubble at every fusion vertex, times the
    sign of the modified dimension of the root, times the parity factor
    (-1)^(n+1) where n is the total q-spin of the braided leaves (the form
    is flipped for an even number of qubits).
    """
    prod = 1.0
    for (u, v, w) in vertices:
        prod *= math.copysign(1.0, bubble_pop(u, v, w, params))
    n = _effective_qubits(leaves)
    d = modified_dimension(root.value(params.alpha), params.tol)
    return int((-1) ** (n + 1) * math.copysign(1.0, d) * prod)


def tree_norm_sign(tree: FusionTree, params: ModelParams) -> int:
    """Sign of <T, T> from the bubble-pop reduction of the left comb."""
    ch = tree.chain
    vertices = [(ch[i - 1], tree.leaves[i], ch[i]) for i in range(1, len(tree.leaves))]
    return _metric_sign(vertices, tree.leaves, tree.root, params)


@dataclass(frozen=True)
class IndefSpace:
    """An ordered fusion-tree basis with its diagonal +-1 metric and scale.

    Basis vectors are unit-normalized up to sign: the Hermitian form is
    diag(metric_signs) * scale with scale = |d_root|.
    """

    params: ModelParams
    leaves: tuple[QLabel, ...]
    charge: QLabel
    basis: tuple[FusionTree, ...]
    metric_signs: np.ndarray
    scale: float
    computational_mask: np.ndarray

    @classmethod
    def build(cls, params: ModelParams, leaves, charge=None) -> "IndefSpace":
        leaves = tuple(leaves)
        if charge is None:
            charge = leaves[0]
        if not charge.is_alpha:
            raise UnsupportedTriple("metric is defined for alpha-type total charge")
        plan = _space_plan(leaves, charge)
        # each distinct vertex sign once, in the order tree_norm_sign would
        # meet them: the first tree's bubbles, its parity and root, the rest
        bubbles = [math.copysign(1.0, bubble_pop(*v, params))
                   for v in plan.vertices[:plan.head]]
        if plan.parity is None:
            raise UnsupportedTriple(_QSPIN_ERROR)
        d = modified_dimension(charge.value(params.alpha), params.tol)
        bubbles += [math.copysign(1.0, bubble_pop(*v, params))
                    for v in plan.vertices[plan.head:]]
        prods = np.array(bubbles)[plan.tree_vertices].prod(axis=1)
        signs = (plan.parity * math.copysign(1.0, d) * prods).astype(int)
        return cls(params, leaves, charge, plan.basis, signs, abs(d),
                   plan.computational_mask)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def J(self) -> np.ndarray:
        return np.diag(self.metric_signs.astype(float))


def _computational_flag(tree: FusionTree) -> bool:
    if _is_qubit_system(tree.leaves, tree.root):
        return _bit_pattern(tree) is not None
    # control sector (alpha, psi, s, s): computational trees keep the first
    # internal edge at the base alpha
    if (len(tree.leaves) == 4 and tree.leaves[0].is_alpha
            and tree.leaves[1] == PSI and tree.leaves[2] == SIGMA
            and tree.leaves[3] == SIGMA and tree.root.is_alpha):
        return tree.internal[0].shift == tree.leaves[0].shift
    return False


# ---------------------------------------------------------------------------
# qubit encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitCode:
    """Bitstring <-> tree map for the (alpha, sigma^{2n}) spaces.

    Bit 0 steps the charge up (alpha+1), bit 1 steps it down (alpha-1), and
    every second fusion returns to alpha.
    """

    n: int
    base: QLabel = ALPHA

    @property
    def leaves(self) -> tuple[QLabel, ...]:
        return (self.base,) + (SIGMA,) * (2 * self.n)

    def encode(self, bits) -> FusionTree:
        bits = tuple(int(b) for b in bits)
        if len(bits) != self.n or any(b not in (0, 1) for b in bits):
            raise ValueError(f"need {self.n} bits")
        inner = []
        for i, b in enumerate(bits):
            inner.append(self.base.shifted(1 if b == 0 else -1))
            if i < self.n - 1:
                inner.append(self.base)
        return FusionTree(self.leaves, tuple(inner), self.base)

    def decode(self, tree: FusionTree):
        """Bits of a computational tree, or None for a noncomputational one."""
        if tree.leaves != self.leaves or tree.root != self.base:
            return None
        return _bit_pattern(tree)


def qubit_space(params: ModelParams, n: int) -> IndefSpace:
    return IndefSpace.build(params, QubitCode(n).leaves, ALPHA)


# ---------------------------------------------------------------------------
# control (pair-first) basis for 3- and 5-leaf sigma systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlBasis:
    """The alternative basis fusing the first sigma pair, with its metric.

    For five leaves the ordering is: the two vacuum-channel trees, then the
    four psi-channel trees (the control sector).
    """

    labels: tuple[str, ...]
    matrix: np.ndarray          # coordinates: control = matrix @ comb
    metric_signs: np.ndarray


def _control_trees(n_sigmas: int):
    """(pair channel, remaining chain) tuples for (alpha, sigma^n_sigmas)."""
    out = []
    for x in (VACUUM, PSI):
        for y in fuse(ALPHA, x):
            if n_sigmas == 2:
                if y == ALPHA:
                    out.append((x, (y,)))
                continue
            for z in fuse(y, SIGMA):
                if ALPHA in fuse(z, SIGMA):
                    out.append((x, (y, z)))
    def key(t):
        x, rest = t
        return (0 if x == VACUUM else 1,
                tuple(_label_sort_key(l) for l in reversed(rest)))
    out.sort(key=key)
    return out


def _control_tree_sign(pair_channel, rest, space: IndefSpace) -> int:
    # vertices: (s,s)->x, (alpha,x)->rest[0], then sigma steps closing at alpha
    vertices = [(SIGMA, SIGMA, pair_channel), (ALPHA, pair_channel, rest[0])]
    for i in range(1, len(rest)):
        vertices.append((rest[i - 1], SIGMA, rest[i]))
    if len(rest) > 1:
        vertices.append((rest[-1], SIGMA, ALPHA))
    return _metric_sign(vertices, space.leaves, ALPHA, space.params)


def control_basis_transform(space: IndefSpace) -> ControlBasis:
    """Change of basis from the left-comb basis to the pair-first basis.

    Assembled from the F-matrix applied at the first two sigma leaves;
    pseudo-orthogonal with respect to the two metrics:
    T^dagger J_control T = J_comb.
    """
    n_sig = len(space.leaves) - 1
    if not (space.leaves[0] == ALPHA and all(l == SIGMA for l in space.leaves[1:])
            and n_sig in (2, 4)):
        raise UnsupportedTriple("control basis defined for (a,s,s) and (a,s,s,s,s)")
    ctrees = _control_trees(n_sig)
    labels = tuple(f"({t[0]};{','.join(str(x) for x in t[1])})" for t in ctrees)
    signs = np.array([_control_tree_sign(x, rest, space) for x, rest in ctrees],
                     dtype=int)
    T = np.zeros((len(ctrees), space.dim), dtype=complex)
    for j, tree in enumerate(space.basis):
        ch = tree.chain
        a1 = ch[1]
        if n_sig == 2:
            rest = (ch[-1],)
            d = ch[-1]
        else:
            rest = (ch[2], ch[3])
            d = ch[2]
        blk = f_matrix(ALPHA, SIGMA, SIGMA, d, space.params)
        for i, (x, crest) in enumerate(ctrees):
            if crest != rest:
                continue
            T[i, j] = blk.entry(x, a1)
    return ControlBasis(labels, T, signs)

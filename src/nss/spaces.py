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
from .anyon import bubble_pop, f_matrix, modified_dimension
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


def enumerate_basis(leaves, charge) -> tuple[FusionTree, ...]:
    """All admissible left-comb labelings, deterministically ordered.

    Trees sort by their internal chain read right-to-left with higher
    alpha-shifts first; on qubit registers (see QubitCode.of: an alpha-type
    b, 2n sigmas, total charge b) computational trees come first, which
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
        raise EmptyBasis(f"no admissible labeling for {','.join(map(str, leaves))} "
                         f"at charge {charge}")
    trees = [FusionTree(leaves, ch[1:-1], ch[-1]) for ch in chains]
    code = QubitCode.of(leaves, charge)
    trees.sort(key=lambda t: (code is not None and code.decode(t) is None,
                              _tree_sort_key(t)))
    return tuple(trees)


_QSPIN_ERROR = "metric convention needs integer total q-spin"


def _effective_qubits(leaves) -> int:
    """Total q-spin carried by the braided leaves; integer for charge-alpha spaces."""
    total = sum(0.0 if l.is_alpha else l.value(0.0) for l in leaves[1:])
    n = round(total)
    if abs(total - n) > 1e-9:
        raise UnsupportedTriple(_QSPIN_ERROR)
    return int(n)


def tree_norm_sign(tree: FusionTree, params: ModelParams) -> int:
    """Sign of <T, T> from the bubble-pop reduction of the left comb.

    Product of the signs of the bubble at every fusion vertex, times the
    sign of the modified dimension of the root, times the parity factor
    (-1)^(n+1) where n is the total q-spin of the braided leaves (the form
    is flipped for an even number of qubits).
    """
    ch = tree.chain
    prod = 1.0
    for i in range(1, len(tree.leaves)):
        prod *= math.copysign(1.0, bubble_pop(ch[i - 1], tree.leaves[i], ch[i], params))
    n = _effective_qubits(tree.leaves)
    d = modified_dimension(tree.root.value(params.alpha), params.tol)
    return int((-1) ** (n + 1) * math.copysign(1.0, d) * prod)


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
    code = QubitCode.of(tree.leaves, tree.root)
    if code is not None:
        return code.decode(tree) is not None
    # control sector (b, psi, s, s) at charge b: computational trees keep the
    # first internal edge at b
    b = tree.leaves[0]
    return (b.is_alpha and tree.leaves[1:] == (PSI, SIGMA, SIGMA)
            and tree.root == b and tree.internal[0] == b)


# ---------------------------------------------------------------------------
# qubit encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitCode:
    """Bitstring <-> tree map for the qubit registers (b, sigma^{2n}) at charge b.

    b is any alpha-type base.  Bit 0 steps the charge up (b+1), bit 1 steps
    it down (b-1), and every second fusion returns to b.
    """

    n: int
    base: QLabel = ALPHA

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"a qubit register needs an int n >= 0, not {self.n!r}")

    @classmethod
    def of(cls, leaves, charge) -> "QubitCode | None":
        """The code of a qubit register, or None for any other system."""
        leaves = tuple(leaves)
        if (leaves and leaves[0].is_alpha and charge == leaves[0]
                and len(leaves) % 2 == 1 and all(l == SIGMA for l in leaves[1:])):
            return cls(len(leaves) // 2, charge)
        return None

    @property
    def leaves(self) -> tuple[QLabel, ...]:
        return (self.base,) + (SIGMA,) * (2 * self.n)

    def bitstrings(self):
        """Every n-bit tuple in listing order: the first bit varies fastest."""
        return [tuple((i >> j) & 1 for j in range(self.n)) for i in range(2 ** self.n)]

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
        """Bits of a computational tree, or None for a noncomputational one.

        Raises ValueError for a tree of another system.
        """
        if tree.leaves != self.leaves or tree.root != self.base:
            raise ValueError(f"{tree.serialize()} is not a tree of the "
                             f"{self.n}-qubit register on {self.base}")
        bits = []
        for i, lbl in enumerate(tree.chain[1:], start=1):
            d = lbl.shift - self.base.shift if lbl.is_alpha else None
            if i % 2 == 0:
                if d != 0:
                    return None
            elif d in (1, -1):
                bits.append((1 - d) // 2)
            else:
                return None
        return tuple(bits)


def qubit_space(params: ModelParams, n: int) -> IndefSpace:
    return IndefSpace.build(params, QubitCode(n).leaves, ALPHA)


# ---------------------------------------------------------------------------
# control (pair-first) basis for 3- and 5-leaf sigma systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlBasis:
    """The alternative basis fusing the first sigma pair, with its metric.

    Its rows are the comb bases of (a, 1, s, ...) and then (a, psi, s, ...),
    each in enumerate_basis order; for five leaves, the two vacuum-channel
    trees and then the four psi-channel trees (the control sector).
    """

    matrix: np.ndarray          # coordinates: control = matrix @ comb
    metric_signs: np.ndarray


def control_basis_transform(space: IndefSpace) -> ControlBasis:
    """Change of basis from the left-comb basis to the pair-first basis.

    Assembled from the F-matrix applied at the first two sigma leaves;
    pseudo-orthogonal with respect to the two metrics:
    T^dagger J_control T = J_comb.
    """
    if QubitCode.of(space.leaves, space.charge) not in (QubitCode(1), QubitCode(2)):
        raise UnsupportedTriple("control basis defined for (a,s,s) and (a,s,s,s,s) at charge a")
    n = len(space.leaves)
    # Each pair-first tree's norm sign is its comb tree's in (a, x, s, ...)
    # times the sign of the (s, s, x) bubble, which that comb lacks, and the
    # two agree at every alpha: B[s,s;1] = -sqrt(2) < 0, and the vacuum lowers
    # the braided q-spin by 1, which flips the parity factor; B[s,s;psi] = 1,
    # and psi keeps the q-spin.
    subs = {x: IndefSpace.build(space.params, (ALPHA, x) + (SIGMA,) * (n - 3))
            for x in (VACUUM, PSI)}
    rows = [(x, t.chain[1:]) for x, sub in subs.items() for t in sub.basis]
    T = np.zeros((len(rows), space.dim), dtype=complex)
    blocks = {c: f_matrix(ALPHA, SIGMA, SIGMA, c, space.params)
              for c in dict.fromkeys(t.chain[2] for t in space.basis)}
    for j, ch in enumerate(t.chain for t in space.basis):
        for i, (x, rest) in enumerate(rows):
            if ch[2:] == rest:
                T[i, j] = blocks[ch[2]].entry(x, ch[1])
    return ControlBasis(T, np.concatenate([sub.metric_signs for sub in subs.values()]))

"""Fusion-tree bases, the indefinite metric, and qubit encodings.

A basis vector of the anyonic Hilbert space for leaves (L0, L1, ..., Lm) at
total charge r is a left-comb fusion tree: a chain c0 = L0, c1, ..., cm = r
with every (c_{i-1}, L_i) -> c_i admissible.  Basis vectors with distinct
chains are orthogonal; each squared norm is a sign times the modified
dimension of the total charge, evaluated by popping the bubbles of the tree
composed with its mirror image.  The signs are constant on each unit interval
of alpha and repeat with period 8, so a space reads them from a table filled
once per interval.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .anyon import _outcomes, bubble_pop, f_matrix, modified_dimension
from .errors import EmptyBasis, UnsupportedTriple
from .labels import ALPHA, PSI, SIGMA, VACUUM, ModelParams, QLabel, _label_list, parse_label


@dataclass(frozen=True)
class FusionTree:
    """A left-comb labeled fusion tree: leaves, internal edge labels, root."""

    leaves: tuple[QLabel, ...]
    internal: tuple[QLabel, ...]
    root: QLabel

    def __post_init__(self):
        if len(self.internal) != max(len(self.leaves) - 2, 0):
            raise ValueError("internal labels must number len(leaves) - 2")

    @functools.cached_property
    def chain(self) -> tuple[QLabel, ...]:
        """c0 = first leaf, then internal labels, ending at the root."""
        if len(self.leaves) == 1:
            return (self.root,)
        return (self.leaves[0],) + self.internal + (self.root,)

    def __getstate__(self):
        # a pickle holds the fields alone, not the chain cached from them
        return {k: self.__dict__[k] for k in ("leaves", "internal", "root")}

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
        return cls(_label_list(parts[0]), _label_list(parts[1]), parse_label(parts[2]))


def _system(leaves, charge=None) -> tuple[tuple[QLabel, ...], QLabel]:
    """(leaves as a tuple, total charge): the charge defaults to the first leaf."""
    leaves = tuple(leaves)
    if not leaves:
        raise EmptyBasis("no leaves")
    return leaves, leaves[0] if charge is None else charge


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
    """The alpha-free part of a space: its basis and computational mask."""

    basis: tuple[FusionTree, ...]
    computational_mask: np.ndarray


# plans are small and alpha-free; the bound only stops unbounded growth
_BASIS_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _space_plan(leaves: tuple, charge) -> _SpacePlan:
    code = QubitCode.of(leaves, charge)
    # (tree, computational flag); on a qubit register computational trees come first
    flagged = sorted(((t, _computational_flag(t, code)) for t in _enumerate_trees(leaves, charge)),
                     key=lambda tf: (code is not None and not tf[1], _tree_sort_key(tf[0])))
    mask = np.array([f for _, f in flagged], dtype=bool)
    mask.setflags(write=False)
    return _SpacePlan(tuple(t for t, _ in flagged), mask)


def _enumerate_trees(leaves: tuple, charge) -> list[FusionTree]:
    """Every admissible left comb, unordered."""
    if len(leaves) == 0:
        raise EmptyBasis("no leaves")
    if len(leaves) == 1:
        if leaves[0] == charge:
            return [FusionTree(leaves, (), charge)]
        raise EmptyBasis(f"single leaf {leaves[0]} != charge {charge}")
    chains = [(leaves[0],)]
    for leaf in leaves[1:]:
        chains = [ch + (c,) for ch in chains for c in _outcomes(ch[-1], leaf)]
    chains = [ch for ch in chains if ch[-1] == charge]
    if not chains:
        raise EmptyBasis(f"no admissible labeling for {','.join(map(str, leaves))} "
                         f"at charge {charge}")
    return [FusionTree(leaves, ch[1:-1], ch[-1]) for ch in chains]


def _effective_qubits(leaves) -> int:
    """Total q-spin carried by the braided leaves; integer for charge-alpha spaces."""
    total = sum(0.0 if l.is_alpha else l.value(0.0) for l in leaves[1:])
    n = round(total)
    if abs(total - n) > 1e-9:
        raise UnsupportedTriple("metric convention needs integer total q-spin")
    return int(n)


def tree_norm_sign(tree: FusionTree, params: ModelParams) -> int:
    """Sign of <T, T> from the bubble-pop reduction of the left comb.

    Product of the signs of the bubble at every fusion vertex, times the
    sign of the modified dimension of the root, times the parity factor
    (-1)^(n+1) where n is the total q-spin of the braided leaves (the form
    is flipped for an even number of qubits).
    """
    return _norm_signs((tree,), params)[0]


def _norm_signs(basis, params: ModelParams) -> list[int]:
    """:func:`tree_norm_sign` of each tree of one space, raising where the
    first tree in order to raise would.  Each distinct vertex's bubble is
    popped once, and the parity factor and the root's sign, which are the
    same for every tree, once after the first tree's bubbles."""
    signs, pops = [], {}
    for tree in basis:
        ch = tree.chain
        prod = 1.0
        for v in zip(ch, tree.leaves[1:], ch[1:]):
            if v not in pops:
                pops[v] = math.copysign(1.0, bubble_pop(*v, params))
            prod *= pops[v]
        if not signs:
            n = _effective_qubits(tree.leaves)
            d = modified_dimension(tree.root.value(params.alpha), params.tol)
            common = (-1) ** (n + 1) * math.copysign(1.0, d)
        signs.append(int(common * prod))
    return signs


# Every bubble row and the modified dimension is a quotient of sines, cosines
# and tangents of pi x / 4 or pi x / 2, so their signs change only at integers
# and repeat with period 8: a space's metric signs depend on floor(alpha) mod 8
# alone.  Near an integer a guard (|den| < min(tol, 1e-10)) or the integer test
# (within tol) may raise instead.  The slowest zero is 1 - sin(pi x / 2) at
# x = 1 mod 4, which is (pi d)^2 / 8 at distance d, so its guard fires only
# within sqrt(8e-10) / pi ~ 9e-6; every other denominator has a simple zero.
# Within max(tol, _TABLE_RADIUS) of an integer, signs are taken tree by tree.
_TABLE_RADIUS = 1e-4


@functools.lru_cache(maxsize=8 * _BASIS_CACHE_SIZE)
def _interval_signs(leaves: tuple, charge, residue: int) -> np.ndarray:
    """Metric signs on every alpha with floor(alpha) = residue mod 8, read-only."""
    signs = np.array(_norm_signs(_space_plan(leaves, charge).basis, ModelParams(residue + 0.5)),
                     dtype=int)
    signs.setflags(write=False)
    return signs


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
        leaves, charge = _system(leaves, charge)
        if not charge.is_alpha:
            raise UnsupportedTriple("metric is defined for alpha-type total charge")
        plan = _space_plan(leaves, charge)
        # the interval's table row, copied, or tree by tree near an integer;
        # verify's samples, 1e-3 clear of every integer, read the row alone
        al, tol = params.alpha, params.tol
        if abs(al - round(al)) <= max(tol, _TABLE_RADIUS):
            signs = np.array(_norm_signs(plan.basis, params), dtype=int)
        else:
            signs = _interval_signs(leaves, charge, math.floor(al) % 8).copy()
        d = modified_dimension(charge.value(params.alpha), params.tol)
        return cls(params, leaves, charge, plan.basis, signs, abs(d),
                   plan.computational_mask)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def J(self) -> np.ndarray:
        return np.diag(self.metric_signs.astype(float))


def _computational_flag(tree: FusionTree, code: "QubitCode | None") -> bool:
    """Whether ``tree`` is computational; ``code`` is QubitCode.of its leaves and root."""
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

    def _internal(self, bits) -> tuple[QLabel, ...]:
        """The internal labels of bits' tree: b+1 or b-1 per bit, b between."""
        return tuple(l for b in bits for l in (self.base, self.base.shifted(1 - 2 * b)))[1:]

    def encode(self, bits) -> FusionTree:
        bits = tuple(int(b) for b in bits)
        if len(bits) != self.n or any(b not in (0, 1) for b in bits):
            raise ValueError(f"need {self.n} bits")
        return FusionTree(self.leaves, self._internal(bits), self.base)

    def decode(self, tree: FusionTree):
        """Bits of a computational tree, or None for a noncomputational one.

        Raises ValueError for a tree of another system.
        """
        if tree.leaves != self.leaves or tree.root != self.base:
            raise ValueError(f"{tree.serialize()} is not a tree of the "
                             f"{self.n}-qubit register on {self.base}")
        bits = tuple(int(l.shift < self.base.shift) for l in tree.internal[::2])
        return bits if self._internal(bits) == tree.internal else None


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

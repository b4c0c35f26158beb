"""Fusion-tree bases, metric signatures and qubit encodings."""
import itertools
import math
import pickle

import numpy as np
import pytest

from nss import (ALPHA, PSI, SIGMA, VACUUM, EmptyBasis, FusionTree, IndefSpace,
                 ModelParams, QubitCode, control_basis_transform,
                 enumerate_basis, f_matrix, modified_dimension, qubit_space,
                 tree_norm_sign)
from nss import anyon, spaces
from nss.anyon import bubble_pop, fuse
from nss.braids import BraidWord, evaluate_word, letter_matrix
from nss.errors import ModelError, UnsupportedTriple
from nss.labels import alpha_label, parse_leaves
from nss.spaces import (_computational_flag, _effective_qubits, _interval_signs,
                        _label_sort_key, _space_plan, _tree_sort_key)

RNG = np.random.default_rng(11)


def shifts(tree):
    return tuple(l.shift for l in tree.internal)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_single_qubit_basis():
    trees = enumerate_basis((ALPHA, SIGMA, SIGMA), ALPHA)
    assert [shifts(t) for t in trees] == [(1,), (-1,)]


def test_two_qubit_basis_listing_order():
    trees = enumerate_basis((ALPHA,) + (SIGMA,) * 4, ALPHA)
    assert [shifts(t) for t in trees] == [
        (1, 0, 1), (-1, 0, 1), (1, 0, -1), (-1, 0, -1), (1, 2, 1), (-1, -2, -1)]


def test_control_sector_basis_order():
    trees = enumerate_basis((ALPHA, PSI, SIGMA, SIGMA), ALPHA)
    assert [shifts(t) for t in trees] == [(2, 1), (0, 1), (0, -1), (-2, -1)]


def test_vacuum_sector_basis():
    trees = enumerate_basis((ALPHA, VACUUM, SIGMA, SIGMA), ALPHA)
    assert [shifts(t) for t in trees] == [(0, 1), (0, -1)]


def test_dimensions_are_central_binomials():
    p = ModelParams(2.4)
    for n in range(1, 5):
        space = qubit_space(p, n)
        assert space.dim == math.comb(2 * n, n)
        assert int(np.sum(space.computational_mask)) == 2 ** n


def test_zero_qubit_space():
    trees = enumerate_basis((ALPHA,), ALPHA)
    assert len(trees) == 1
    assert trees[0].root == ALPHA


def test_empty_basis():
    with pytest.raises(EmptyBasis):
        enumerate_basis((ALPHA, SIGMA), ALPHA)


def test_no_leaves_is_an_empty_basis():
    with pytest.raises(EmptyBasis, match="^no leaves$"):
        enumerate_basis((), ALPHA)


@pytest.mark.parametrize("build", [
    lambda p: IndefSpace.build(p, ()),
    lambda p: evaluate_word(p, (), BraidWord(())),
    lambda p: letter_matrix(p, (), "x", 1),
], ids=["space", "word", "letter"])
def test_no_leaves_is_an_empty_basis_for_spaces_and_braids(build):
    # the charge defaults to the first leaf, and there is none
    with pytest.raises(EmptyBasis, match="^no leaves$"):
        build(ModelParams(2.4))


def test_non_alpha_internal_labels_sort_by_kind():
    # sigma, psi, vacuum, ...: the psi channel comes before the vacuum
    trees = enumerate_basis((SIGMA,) * 3, SIGMA)
    assert [t.serialize() for t in trees] == ["(s,s,s|psi|s)", "(s,s,s|1|s)"]


def test_empty_basis_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(EmptyBasis):
            enumerate_basis((ALPHA, SIGMA, SIGMA), PSI)


def _enumerate_trees_oracle(leaves, charge):
    """The depth-first walk: each chain extended by every outcome in turn."""
    if len(leaves) == 0:
        raise EmptyBasis("no leaves")
    if len(leaves) == 1:
        if leaves[0] == charge:
            return [FusionTree(leaves, (), charge)]
        raise EmptyBasis(f"single leaf {leaves[0]} != charge {charge}")
    chains = []

    def extend(chain):
        i = len(chain)
        if i == len(leaves):
            if chain[-1] == charge:
                chains.append(chain)
            return
        for c in anyon._outcomes(chain[-1], leaves[i]):
            extend(chain + (c,))

    extend((leaves[0],))
    if not chains:
        raise EmptyBasis(f"no admissible labeling for {','.join(map(str, leaves))} "
                         f"at charge {charge}")
    return [FusionTree(leaves, ch[1:-1], ch[-1]) for ch in chains]


def test_level_by_level_enumeration_matches_the_depth_first_walk():
    labels = parse_leaves("a,a+1,s,psi,1,s32,p2")
    charges = [alpha_label(k) for k in range(-4, 5)] + [SIGMA, PSI, VACUUM]
    count = 0
    for n in range(5):
        for leaves in itertools.product(labels, repeat=n):
            for charge in charges:
                got = _signs_or_error(lambda: spaces._enumerate_trees(leaves, charge))
                want = _signs_or_error(lambda: _enumerate_trees_oracle(leaves, charge))
                assert got == want, (leaves, charge)
                count += 1
    assert count == 33_612


def test_basis_shared_between_list_and_tuple_leaves():
    leaves = [ALPHA, SIGMA, SIGMA, SIGMA, SIGMA]
    assert enumerate_basis(leaves, ALPHA) is enumerate_basis(tuple(leaves), ALPHA)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_single_qubit_metric_definite():
    space = qubit_space(ModelParams(2.4), 1)
    assert list(space.metric_signs) == [1, 1]


def test_two_qubit_signature():
    space = qubit_space(ModelParams(2.4), 2)
    assert list(space.metric_signs) == [1, 1, 1, 1, -1, 1]
    assert space.scale == pytest.approx(abs(modified_dimension(2.4)))


def test_control_sector_signature():
    space = IndefSpace.build(ModelParams(12 / 5), (ALPHA, PSI, SIGMA, SIGMA))
    assert list(space.metric_signs) == [-1, 1, 1, 1]
    assert list(space.computational_mask) == [False, True, True, False]


def test_three_qubit_computational_positive_oracle():
    # independent oracle: (-1)^(n+1) sign(B+)^n0 sign(B-)^n1 d_a, evaluated
    # directly from the closed forms rather than through tree reduction
    for al in 2.0 + 1e-3 + (1 - 2e-3) * RNG.random(100):
        p = ModelParams(float(al))
        bplus = math.sqrt(2) / (-1 + 1 / math.tan(math.pi * (p.alpha + 1) / 4))
        bminus = math.sqrt(2) / (-1 + 1 / math.tan(math.pi * p.alpha / 4))
        d = modified_dimension(p.alpha)
        code = QubitCode(3)
        for i in range(8):
            bits = tuple((i >> j) & 1 for j in range(3))
            n0 = bits.count(0)
            n1 = bits.count(1)
            want = ((-1) ** 4 * math.copysign(1.0, bplus) ** n0
                    * math.copysign(1.0, bminus) ** n1 * math.copysign(1.0, d))
            got = tree_norm_sign(code.encode(bits), p)
            assert got == int(want) == 1


def _signs_or_error(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)


_PLAN_LEAVES = ["a,s,s", "a,s,s,s,s", "a,s,s,s,s,s,s", "a,s,s,s,s,s,s,s,s",
                "a,psi,s,s", "a,s,psi,s"]
# every unit interval mod 8, negative and large alphas, and alphas just
# inside and just outside the 1e-4 radius where signs are taken tree by tree
_PLAN_PARAMS = ([ModelParams.from_string("12/5")]
                + [ModelParams(float(a)) for a in np.random.default_rng(29).uniform(2, 3, 20)]
                + [ModelParams(a) for a in (0.5, 1.5, 3.5, 4.6, 5.3, 6.2, 7.7, -0.3, -2.6,
                                            -5.5, 1e6 + 0.3, 1e12 + 0.3)]
                + [ModelParams(n + d) for n in (-3, 1, 2, 3, 5, 8)
                   for d in (-1.1e-4, -0.9e-4, 0.9e-4, 1.1e-4)])


@pytest.mark.parametrize("leaves", _PLAN_LEAVES)
def test_plan_built_space_matches_tree_oracle(leaves):
    # the plan reads each unit interval's signs from a table; tree_norm_sign
    # and _computational_flag, tree by tree, are the oracle
    assert {math.floor(p.alpha) % 8 for p in _PLAN_PARAMS} == set(range(8))
    leaves = parse_leaves(leaves)
    basis = enumerate_basis(leaves, ALPHA)
    for p in _PLAN_PARAMS:
        space = IndefSpace.build(p, leaves)
        assert space.metric_signs.dtype == int
        assert list(space.metric_signs) == [tree_norm_sign(t, p) for t in basis]
        # the interval's table row, also where build takes the signs tree by tree
        row = _interval_signs(leaves, ALPHA, math.floor(p.alpha) % 8)
        assert space.metric_signs.tobytes() == row.tobytes()
        code = QubitCode.of(leaves, ALPHA)
        assert list(space.computational_mask) == [_computational_flag(t, code) for t in basis]
        assert space.scale == abs(modified_dimension(p.alpha, p.tol))


@pytest.mark.parametrize("params, leaves, charge", [
    # the second tree's (a, s, a-1) bubble is singular; the first tree's are not
    (ModelParams(4 + 1.1e-10, tol=1e-10), "a,s,s", ALPHA),
    # a singular first-tree bubble comes before the q-spin parity
    (ModelParams(4 + 1.1e-10, tol=1e-10), "a,s", ALPHA.shifted(-1)),
    # non-integer total q-spin, after the first tree's bubbles
    (ModelParams(2.4), "a,s", ALPHA.shifted(1)),
    (ModelParams(2.4), "a,s,s,s", ALPHA.shifted(1)),
    # the double zero of 1 - sin(pi x / 2): its guard fires 1e-6 from the integer
    (ModelParams(1.000001), "a,psi,s,s", ALPHA),
    (ModelParams(5.000001), "a,psi,s,s", ALPHA),
])
def test_plan_built_space_raises_like_tree_oracle(params, leaves, charge):
    leaves = parse_leaves(leaves)
    basis = enumerate_basis(leaves, charge)
    want = _signs_or_error(lambda: [tree_norm_sign(t, params) for t in basis])
    got = _signs_or_error(lambda: IndefSpace.build(params, leaves, charge))
    assert isinstance(want, tuple) and got == want


def test_plan_signs_are_fresh_and_mask_read_only():
    p = ModelParams(2.4)
    s1, s2 = qubit_space(p, 2), qubit_space(p, 2)
    assert s1.metric_signs is not s2.metric_signs
    s1.metric_signs[0] = 0
    assert s2.metric_signs[0] == 1
    with pytest.raises(ValueError):
        s1.computational_mask[0] = False


def test_interval_signs_follow_the_b_rows(monkeypatch):
    # a B row flipped on the unit intervals 3 mod 8 only: the table is filled
    # from the rows, so build follows the mutant there and nowhere else
    def flipped(x, ns, tol):
        return -ns.one if math.floor(x) % 8 == 3 else ns.one

    table = dict(anyon._B_TABLE)
    table[(ALPHA, SIGMA, ALPHA.shifted(1))] = flipped
    leaves = QubitCode(1).leaves
    basis = enumerate_basis(leaves, ALPHA)
    inside, outside = ModelParams(3.4), ModelParams(2.4)
    before = {p: [tree_norm_sign(t, p) for t in basis] for p in (inside, outside)}
    _interval_signs.cache_clear()
    try:
        monkeypatch.setattr(anyon, "_B_INDEX", anyon._kind_index(table))
        mutant = [tree_norm_sign(t, inside) for t in basis]
        assert mutant != before[inside]
        assert list(IndefSpace.build(inside, leaves).metric_signs) == mutant
        assert list(IndefSpace.build(outside, leaves).metric_signs) == before[outside]
    finally:
        monkeypatch.undo()
        _interval_signs.cache_clear()


def _oracle_norm_sign(tree, params):
    """A tree's norm sign computed on its own: each vertex's bubble in
    order, then the parity factor and the root's sign."""
    ch = tree.chain
    prod = 1.0
    for i in range(1, len(tree.leaves)):
        prod *= math.copysign(1.0, bubble_pop(ch[i - 1], tree.leaves[i], ch[i], params))
    n = _effective_qubits(tree.leaves)
    d = modified_dimension(tree.root.value(params.alpha), params.tol)
    return int((-1) ** (n + 1) * math.copysign(1.0, d) * prod)


@pytest.mark.parametrize("leaves", ["a", "a,s,s", "a,s,s,s,s", "a,s,s,s,s,s,s",
                                    "a,s,s,s,s,s,s,s,s", "a,psi,s,s", "a,s,psi,s"])
def test_interval_rows_equal_the_tree_by_tree_signs(leaves):
    leaves = parse_leaves(leaves)
    basis = enumerate_basis(leaves, ALPHA)
    for r in range(8):
        mid = ModelParams(r + 0.5)
        want = [_oracle_norm_sign(t, mid) for t in basis]
        assert [tree_norm_sign(t, mid) for t in basis] == want
        assert list(_interval_signs(leaves, ALPHA, r)) == want, r


def test_interval_row_pops_each_distinct_bubble_once(monkeypatch):
    # the 70 trees of a,s^8 meet 16 distinct (a, b, c) vertices
    popped = []

    def counting(*args, **kwargs):
        popped.append(args[:3])
        return bubble_pop(*args, **kwargs)

    leaves = QubitCode(4).leaves
    _interval_signs.cache_clear()
    try:
        monkeypatch.setattr(spaces, "bubble_pop", counting)
        row = _interval_signs(leaves, ALPHA, 2)
    finally:
        monkeypatch.undo()
        _interval_signs.cache_clear()
    assert len(row) == 70 and len(popped) == len(set(popped)) <= 16
    assert list(row) == [_oracle_norm_sign(t, ModelParams(2.5)) for t in enumerate_basis(leaves, ALPHA)]


def test_four_qubit_order_and_mask_equal_a_decode_sort():
    # computational trees first, each part by _tree_sort_key, and the mask
    # marks the trees that decode (the register grid below stops at 3 qubits)
    code = QubitCode(4)
    plan = _space_plan(code.leaves, ALPHA)
    want = sorted(reversed(plan.basis), key=lambda t: (code.decode(t) is None, _tree_sort_key(t)))
    assert plan.basis == tuple(want) and len(want) == 70
    assert list(plan.computational_mask) == [code.decode(t) is not None for t in want]
    assert sum(plan.computational_mask) == 16


# (B row taken out of the table or None, leaves, charge, the error's message);
# the failing vertex sits on the first tree that meets it, which is not
# always the first tree, and a non-integer q-spin is reported after the
# first tree's bubbles
_SIGN_ERRORS = [
    ((ALPHA, SIGMA, ALPHA.shifted(-1)), "a,s,s,s,s", ALPHA, "B[a+1,s;a] not tabulated"),
    ((ALPHA, SIGMA, ALPHA.shifted(1)), "a,psi,s,s", ALPHA, "B[a,s;a+1] not tabulated"),
    ((ALPHA, PSI, ALPHA.shifted(-2)), "a,psi,s,s", ALPHA, "B[a,psi;a-2] not tabulated"),
    ((ALPHA, PSI, ALPHA.shifted(-2)), "a,s,psi,s", ALPHA, "B[a+1,psi;a-1] not tabulated"),
    (None, "a,s", ALPHA.shifted(1), "metric convention needs integer total q-spin"),
    (None, "a,s,s,s", ALPHA.shifted(1), "metric convention needs integer total q-spin"),
    ((ALPHA, PSI, ALPHA.shifted(-2)), "a,psi,s", ALPHA.shifted(1),
     "metric convention needs integer total q-spin"),
]


@pytest.mark.parametrize("row, leaves, charge, message", _SIGN_ERRORS)
def test_sign_errors_match_the_tree_by_tree_signs(monkeypatch, row, leaves, charge, message):
    table = {k: v for k, v in anyon._B_TABLE.items() if k != row}
    leaves = parse_leaves(leaves)
    basis = enumerate_basis(leaves, charge)
    _interval_signs.cache_clear()
    try:
        monkeypatch.setattr(anyon, "_B_INDEX", anyon._kind_index(table))
        # an interval row, and signs taken tree by tree near an integer
        for p in (ModelParams(2.4), ModelParams(3 + 1e-5)):
            want = _signs_or_error(lambda: [_oracle_norm_sign(t, p) for t in basis])
            assert want == (UnsupportedTriple, message)
            assert _signs_or_error(lambda: IndefSpace.build(p, leaves, charge)) == want
            assert _signs_or_error(lambda: [tree_norm_sign(t, p) for t in basis]) == want
    finally:
        monkeypatch.undo()
        _interval_signs.cache_clear()


def test_metric_rejects_non_alpha_charge():
    with pytest.raises(UnsupportedTriple):
        IndefSpace.build(ModelParams(2.4), (ALPHA, SIGMA), ALPHA.shifted(1))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_examples():
    code = QubitCode(2)
    assert shifts(code.encode((1, 0))) == (-1, 0, 1)
    assert shifts(code.encode((0, 0))) == (1, 0, 1)


def test_decode_noncomputational():
    code = QubitCode(2)
    trees = enumerate_basis(code.leaves, ALPHA)
    assert code.decode(trees[4]) is None   # the (+1,+2,+1) tree
    assert code.decode(trees[0]) == (0, 0)


def test_roundtrip_all_bitstrings():
    for n in range(1, 5):
        code = QubitCode(n)
        for i in range(2 ** n):
            bits = tuple((i >> j) & 1 for j in range(n))
            assert code.decode(code.encode(bits)) == bits


def test_bitstrings_are_the_listing_order():
    assert QubitCode(2).bitstrings() == [(0, 0), (1, 0), (0, 1), (1, 1)]
    for n in range(4):
        code = QubitCode(n)
        basis = enumerate_basis(code.leaves, ALPHA)
        assert [code.decode(t) for t in basis[:2 ** n]] == code.bitstrings()


def test_decode_rejects_a_tree_of_another_system():
    for tree in (QubitCode(2).encode((0, 1)), QubitCode(1, ALPHA.shifted(1)).encode((0,)),
                 enumerate_basis((ALPHA, PSI, SIGMA, SIGMA), ALPHA)[1]):
        with pytest.raises(ValueError):
            QubitCode(1).decode(tree)


# ---------------------------------------------------------------------------
# register classification
# ---------------------------------------------------------------------------

def _is_qubit_system(leaves, charge) -> bool:
    # the register rule before QubitCode.of owned it, kept as the reference
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


def _reference_flag(tree: FusionTree) -> bool:
    if _is_qubit_system(tree.leaves, tree.root):
        return _bit_pattern(tree) is not None
    if (len(tree.leaves) == 4 and tree.leaves[0].is_alpha
            and tree.leaves[1] == PSI and tree.leaves[2] == SIGMA
            and tree.leaves[3] == SIGMA and tree.root.is_alpha):
        return tree.internal[0].shift == tree.leaves[0].shift
    return False


_GRID_LEAVES = [(first,) + rest
                for first in (ALPHA, ALPHA.shifted(-1), ALPHA.shifted(1), SIGMA, PSI)
                for k in range(7) for rest in itertools.product((SIGMA, PSI), repeat=k)]
_GRID_CHARGES = [ALPHA.shifted(k) for k in (0, -1, 1, -2, 2)]


def test_register_classification_matches_reference():
    built, registers, control_off_charge = 0, 0, 0
    for leaves, charge in itertools.product(_GRID_LEAVES, _GRID_CHARGES):
        code = QubitCode.of(leaves, charge)
        reg = _is_qubit_system(leaves, charge)
        assert (code is not None) == reg, (leaves, charge)
        try:
            basis = enumerate_basis(leaves, charge)
        except ModelError:
            continue
        built += 1
        assert basis == tuple(sorted(basis, key=lambda t: (
            reg and _bit_pattern(t) is None, _tree_sort_key(t))))
        if code is not None:
            registers += 1
            assert (code.leaves, code.base) == (leaves, charge)
            assert [code.decode(t) for t in basis] == [_bit_pattern(t) for t in basis]
        mask = list(_space_plan(leaves, charge).computational_mask)
        if leaves[1:] == (PSI, SIGMA, SIGMA) and charge != leaves[0]:
            control_off_charge += 1
            assert not any(mask), (leaves, charge)
        else:
            assert mask == [_reference_flag(t) for t in basis], (leaves, charge)
    # registers (b, s^2n) for b = a, a-1, a+1 and n = 0..3
    assert registers == 12
    assert built > 100 and control_off_charge > 0


@pytest.mark.parametrize("shift", [2, -2])
def test_control_sector_needs_charge_at_its_base(shift):
    space = IndefSpace.build(ModelParams(2.4), (ALPHA, PSI, SIGMA, SIGMA),
                             ALPHA.shifted(shift))
    assert space.dim > 0 and not space.computational_mask.any()


def test_zero_qubit_encode():
    code = QubitCode(0)
    t = code.encode(())
    assert t.leaves == (ALPHA,) and t.root == ALPHA


@pytest.mark.parametrize("n", [-1, -3, 1.0, "2", None])
def test_qubit_code_needs_a_nonnegative_int(n):
    # QubitCode(-1).leaves would be the 0-qubit register's, a 1-dim space
    with pytest.raises(ValueError, match="n >= 0"):
        QubitCode(n)
    with pytest.raises(ValueError, match="n >= 0"):
        qubit_space(ModelParams(2.4), n)


def test_serialization_roundtrip():
    trees = enumerate_basis((ALPHA, PSI, SIGMA, SIGMA), ALPHA)
    for t in trees:
        assert FusionTree.deserialize(t.serialize()) == t
    assert trees[0].serialize() == "(a,psi,s,s|a+2,a+1|a)"


def test_an_empty_internal_field_is_the_internal_labels_of_a_short_tree():
    # a label list drops no token, but a tree with under three leaves has none inside
    assert FusionTree.deserialize("(a,s||a+1)") == FusionTree((ALPHA, SIGMA), (), ALPHA.shifted(1))
    assert FusionTree.deserialize("(a||a)") == FusionTree((ALPHA,), (), ALPHA)


def test_tree_chain_is_cached_and_trees_compare_by_their_fields():
    t = FusionTree((ALPHA, PSI, SIGMA, SIGMA), (ALPHA.shifted(2), ALPHA.shifted(1)), ALPHA)
    fresh = FusionTree(t.leaves, t.internal, t.root)
    pickles = [pickle.dumps(t, k) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert t.chain is t.chain == (ALPHA, ALPHA.shifted(2), ALPHA.shifted(1), ALPHA)
    # the cached chain is in no comparison, hash, repr or pickle
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert [pickle.dumps(t, k) for k in range(pickle.HIGHEST_PROTOCOL + 1)] == pickles
    for data in pickles:
        back = pickle.loads(data)
        assert back == t and "chain" not in vars(back) and back.chain == t.chain


# ---------------------------------------------------------------------------
# control-basis transform
# ---------------------------------------------------------------------------

def test_control_transform_single_qubit_is_f_matrix():
    p = ModelParams(2.4)
    space = qubit_space(p, 1)
    cb = control_basis_transform(space)
    blk = f_matrix(ALPHA, SIGMA, SIGMA, ALPHA, p)
    assert np.allclose(cb.matrix, np.asarray(blk.matrix, dtype=complex), atol=1e-12)


@pytest.mark.parametrize("leaves", ["a,s,s", "a,s,s,s,s"])
def test_control_transform_rejects_charge_off_the_base(leaves):
    space = IndefSpace.build(ModelParams(2.4), parse_leaves(leaves), ALPHA.shifted(2))
    with pytest.raises(UnsupportedTriple):
        control_basis_transform(space)


def test_control_transform_invertible():
    space = qubit_space(ModelParams(2.4), 2)
    t = control_basis_transform(space).matrix
    assert np.allclose(t @ np.linalg.inv(t), np.eye(6), atol=1e-10)


@pytest.mark.parametrize("alpha", ["2.4", "12/5"])
def test_control_transform_metric_transport(alpha):
    # signs of the pair-first basis computed directly from bubbles agree
    # with the metric transported through the transform
    p = ModelParams.from_string(alpha)
    space = qubit_space(p, 2)
    cb = control_basis_transform(space)
    t = cb.matrix
    lhs = t.conj().T @ np.diag(cb.metric_signs.astype(float)) @ t
    assert np.max(np.abs(lhs - space.J)) < 1e-9
    assert list(cb.metric_signs) == [1, 1, -1, 1, 1, 1]


def _control_oracle(space):
    """The pair-first basis built tree by tree from its own enumeration.

    Rows are (pair channel x, remaining chain) sorted vacuum first, then by
    the chain read right to left; each sign is the product of the bubble
    signs of (s, s, x), (a, x, y) and the sigma steps back to a, times the
    root's modified dimension sign and the q-spin parity of the comb space.
    """
    p = space.params
    n_sig = len(space.leaves) - 1
    ctrees = []
    for x in (VACUUM, PSI):
        for y in fuse(ALPHA, x):
            if n_sig == 2:
                if y == ALPHA:
                    ctrees.append((x, (y,)))
                continue
            for z in fuse(y, SIGMA):
                if ALPHA in fuse(z, SIGMA):
                    ctrees.append((x, (y, z)))
    ctrees.sort(key=lambda t: (0 if t[0] == VACUUM else 1,
                               tuple(_label_sort_key(l) for l in reversed(t[1]))))
    signs = []
    for x, rest in ctrees:
        vertices = [(SIGMA, SIGMA, x), (ALPHA, x, rest[0])]
        vertices += [(rest[i - 1], SIGMA, rest[i]) for i in range(1, len(rest))]
        if len(rest) > 1:
            vertices.append((rest[-1], SIGMA, ALPHA))
        prod = 1.0
        for v in vertices:
            prod *= math.copysign(1.0, bubble_pop(*v, p))
        n = _effective_qubits(space.leaves)
        d = modified_dimension(p.alpha, p.tol)
        signs.append(int((-1) ** (n + 1) * math.copysign(1.0, d) * prod))
    t = np.zeros((len(ctrees), space.dim), dtype=complex)
    for j, tree in enumerate(space.basis):
        ch = tree.chain
        rest = (ch[-1],) if n_sig == 2 else (ch[2], ch[3])
        blk = f_matrix(ALPHA, SIGMA, SIGMA, ch[2], p)
        for i, (x, crest) in enumerate(ctrees):
            if crest == rest:
                t[i, j] = blk.entry(x, ch[1])
    return t, np.array(signs, dtype=int)


_CONTROL_ALPHAS = [a for a in np.random.default_rng(41).uniform(0, 8, 200)
                   if abs(a - round(a)) > 1e-3]


@pytest.mark.parametrize("n", [1, 2])
def test_control_transform_matches_tree_oracle(n):
    # the comb bases of (a, 1, s, ...) and (a, psi, s, ...) give the
    # pair-first rows and signs of the tree-by-tree rule, bit for bit
    assert len(_CONTROL_ALPHAS) == 200
    for al in _CONTROL_ALPHAS:
        space = qubit_space(ModelParams(float(al)), n)
        cb = control_basis_transform(space)
        want_t, want_signs = _control_oracle(space)
        assert cb.matrix.tobytes() == want_t.tobytes(), al
        assert cb.metric_signs.dtype == want_signs.dtype
        assert list(cb.metric_signs) == list(want_signs), al


@pytest.mark.parametrize("alpha", [1 + 1.1e-10, 5 + 1.1e-10])
def test_control_transform_raises_like_tree_oracle(alpha):
    # the (a, psi, a) bubble is singular here; the comb space is not
    space = qubit_space(ModelParams(alpha, tol=1e-10), 1)
    want = _signs_or_error(lambda: _control_oracle(space))
    got = _signs_or_error(lambda: control_basis_transform(space))
    assert isinstance(want, tuple) and got == want

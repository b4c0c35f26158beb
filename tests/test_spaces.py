"""Fusion-tree bases, metric signatures and qubit encodings."""
import math

import numpy as np
import pytest

from nss import (ALPHA, PSI, SIGMA, VACUUM, EmptyBasis, FusionTree, IndefSpace,
                 ModelParams, QubitCode, control_basis_transform,
                 enumerate_basis, f_matrix, modified_dimension, qubit_space,
                 tree_norm_sign)
from nss.labels import parse_leaves
from nss.spaces import _computational_flag

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


def test_empty_basis_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(EmptyBasis):
            enumerate_basis((ALPHA, SIGMA, SIGMA), PSI)


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
_PLAN_PARAMS = ([ModelParams.from_string("12/5")]
                + [ModelParams(float(a)) for a in np.random.default_rng(29).uniform(2, 3, 20)]
                + [ModelParams(a) for a in (0.5, 1.5, 3.5, 5.3, 7.7)])


@pytest.mark.parametrize("leaves", _PLAN_LEAVES)
def test_plan_built_space_matches_tree_oracle(leaves):
    # the plan evaluates each distinct vertex once; tree_norm_sign and
    # _computational_flag, tree by tree, are the oracle
    leaves = parse_leaves(leaves)
    basis = enumerate_basis(leaves, ALPHA)
    for p in _PLAN_PARAMS:
        space = IndefSpace.build(p, leaves)
        assert space.metric_signs.dtype == int
        assert list(space.metric_signs) == [tree_norm_sign(t, p) for t in basis]
        assert list(space.computational_mask) == [_computational_flag(t) for t in basis]
        assert space.scale == abs(modified_dimension(p.alpha, p.tol))


@pytest.mark.parametrize("params, leaves, charge", [
    # the second tree's (a, s, a-1) bubble is singular; the first tree's are not
    (ModelParams(4 + 1.1e-4, tol=1e-4), "a,s,s", ALPHA),
    # a singular first-tree bubble comes before the q-spin parity
    (ModelParams(4 + 1.1e-4, tol=1e-4), "a,s", ALPHA.shifted(-1)),
    # non-integer total q-spin, after the first tree's bubbles
    (ModelParams(2.4), "a,s", ALPHA.shifted(1)),
    (ModelParams(2.4), "a,s,s,s", ALPHA.shifted(1)),
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


def test_metric_rejects_non_alpha_charge():
    from nss.errors import UnsupportedTriple
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


def test_zero_qubit_encode():
    code = QubitCode(0)
    t = code.encode(())
    assert t.leaves == (ALPHA,) and t.root == ALPHA


def test_serialization_roundtrip():
    trees = enumerate_basis((ALPHA, PSI, SIGMA, SIGMA), ALPHA)
    for t in trees:
        assert FusionTree.deserialize(t.serialize()) == t
    assert trees[0].serialize() == "(a,psi,s,s|a+2,a+1|a)"


# ---------------------------------------------------------------------------
# control-basis transform
# ---------------------------------------------------------------------------

def test_control_transform_single_qubit_is_f_matrix():
    p = ModelParams(2.4)
    space = qubit_space(p, 1)
    cb = control_basis_transform(space)
    blk = f_matrix(ALPHA, SIGMA, SIGMA, ALPHA, p)
    assert np.allclose(cb.matrix, np.asarray(blk.matrix, dtype=complex), atol=1e-12)


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

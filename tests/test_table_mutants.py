"""Every tabulated symbol row is seen by some verify check.

Each mutant scales one row of the model's tables by a relative 1e-6: one
entry of an F family as its formula returns it (before normalisation), one
B row by (1 + 1e-6), or one R row by the phase e^{1e-6 i}, which keeps its
modulus.  Under every mutant ``run_all(12/5, seed 0)`` must fail at least
the checks pinned below, which are the ones that fail on the code as it is.
A check that stops seeing a row fails this test; a check that starts to see
more does not.
"""
import cmath

import numpy as np
import pytest

from nss import ModelParams, anyon, braids, failures, run_all, spaces, verify

P125 = ModelParams.from_string("12/5")

# the checks each mutant fails; the four entries of a 2x2 F family alike
CAUGHT = {
    "F[a,s,s;a]": "affine-relation closed-form-single-qubit f-pseudo-unitarity "
                  "gram-transport infinite-order-word pseudo-unitarity two-qubit-blocks",
    "F[a,s,s;a+2]": "gram-transport",
    "F[a,s,s;a-2]": "gram-transport",
    "F[a,psi,s;a+1]": "affine-relation f-pseudo-unitarity fifth-power-law pseudo-unitarity",
    "F[a,psi,s;a-1]": "affine-relation f-pseudo-unitarity fifth-power-law pseudo-unitarity",
    "F[a,s,psi;a+1]": "affine-relation f-pseudo-unitarity",
    "F[a,s,psi;a-1]": "affine-relation f-pseudo-unitarity",
    "R[a,psi;a+2]": "fifth-power-law wrap-square-diagonal",
    "R[psi,a;a+2]": "fifth-power-law wrap-square-diagonal",
    "R[a,s;a+1]": "affine-relation closed-form-single-qubit infinite-order-word two-qubit-blocks",
    "R[s,a;a+1]": "affine-relation closed-form-single-qubit infinite-order-word two-qubit-blocks",
    "R[a,psi;a]": "fifth-power-law wrap-square-diagonal",
    "R[psi,a;a]": "fifth-power-law wrap-square-diagonal",
    "R[a,s;a-1]": "affine-relation closed-form-single-qubit infinite-order-word two-qubit-blocks",
    "R[s,a;a-1]": "affine-relation closed-form-single-qubit infinite-order-word two-qubit-blocks",
    "R[a,psi;a-2]": "fifth-power-law wrap-square-diagonal",
    "R[psi,a;a-2]": "fifth-power-law wrap-square-diagonal",
    "R[psi,s;s32]": "affine-relation",
    "R[s,psi;s32]": "affine-relation",
    "R[psi,s;s]": "affine-relation",
    "R[s,psi;s]": "affine-relation",
    "R[s,s;psi]": "affine-relation closed-form-single-qubit exchange-order-four "
                  "infinite-order-word two-qubit-blocks",
    "R[s,s;1]": "affine-relation closed-form-single-qubit exchange-order-four "
                "infinite-order-word two-qubit-blocks",
    "B[a,s;a+1]": "f-pseudo-unitarity fifth-power-law gram-transport pseudo-unitarity",
    "B[a,s;a-1]": "f-pseudo-unitarity fifth-power-law gram-transport pseudo-unitarity",
    "B[a,psi;a+2]": "f-pseudo-unitarity fifth-power-law pseudo-unitarity",
    "B[a,psi;a]": "f-pseudo-unitarity fifth-power-law gram-transport pseudo-unitarity",
    "B[a,psi;a-2]": "f-pseudo-unitarity fifth-power-law pseudo-unitarity",
    "B[a,s32;a+1]": "f-pseudo-unitarity",
    "B[a,s32;a-1]": "f-pseudo-unitarity",
    "B[s,s;1]": "f-pseudo-unitarity gram-transport",
    "B[s,s;psi]": "f-pseudo-unitarity gram-transport",
    "B[psi,s;s]": "affine-relation f-pseudo-unitarity",
    "B[psi,s;s32]": "affine-relation f-pseudo-unitarity",
    "B[s,psi;s]": "affine-relation f-pseudo-unitarity",
    "B[s,psi;s32]": "affine-relation f-pseudo-unitarity",
}


def _mutants():
    """(name, table, key, mutated value): 22 F entries, 16 R and 13 B rows."""
    out = []
    for key, (rows, shifts, what, formula) in anyon._F_TABLE.items():
        b, c, dd = key
        family = f"F[a,{b},{c};{anyon.ALPHA.shifted(dd)}]"
        for i in range(len(rows)):
            for j in range(len(rows)):
                def mutated(x, Q, q2, ns, formula=formula, i=i, j=j):
                    den, ft = formula(x, Q, q2, ns)
                    ft = [list(row) for row in ft]
                    ft[i][j] = ft[i][j] * (1 + 1e-6)
                    return den, ft
                out.append((f"{family}[{i},{j}]", family, anyon._F_TABLE, key,
                            (rows, shifts, what, mutated)))
    for what, table, index, factor in (("R", anyon._R_TABLE, anyon._R_INDEX, cmath.exp(1e-6j)),
                                       ("B", anyon._B_TABLE, anyon._B_INDEX, 1 + 1e-6)):
        for (u, v, w), fn in table.items():
            name = f"{what}[{u},{v};{w}]"
            out.append((name, name, index, (u.kind, v.kind, w.kind, w.shift),
                        lambda x, ns, tol, fn=fn, factor=factor: fn(x, ns, tol) * factor))
    return out


MUTANTS = _mutants()


def _clear_caches():
    # the F plans hold B rows, the F channels the F table's rows and the
    # interval table bubble signs
    anyon._f_plan.cache_clear()
    anyon.f_channels.cache_clear()
    spaces._interval_signs.cache_clear()


def test_mutants_cover_every_row_and_every_pin():
    assert len(MUTANTS) == 51
    assert {m[1] for m in MUTANTS} == set(CAUGHT)
    assert len(R_ROWS) == len(anyon._R_INDEX) == 16


@pytest.mark.parametrize("name, row, table, key, value", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_table_row_mutant_fails_its_checks(monkeypatch, name, row, table, key, value):
    _clear_caches()
    with monkeypatch.context() as m:
        m.setitem(table, key, value)
        m.setattr(braids, "_LETTER_MEMO", {})
        try:
            failing = {r.name for r in failures(run_all(P125, seed=0))}
        finally:
            _clear_caches()
    assert failing >= set(CAUGHT[row].split()), failing


R_ROWS = {f"R[{u},{v};{w}]": (u.kind, v.kind, w.kind, w.shift) for u, v, w in anyon._R_TABLE}


@pytest.mark.parametrize("key", list(R_ROWS.values()), ids=list(R_ROWS))
def test_scaled_r_row_fails_r_unit_modulus(monkeypatch, key):
    # the phase mutants above keep every modulus; a row scaled by 1 + 1e-6 does not
    row = anyon._R_INDEX[key]
    monkeypatch.setitem(anyon._R_INDEX, key, lambda x, ns, tol: row(x, ns, tol) * (1 + 1e-6))
    res = verify._chk_r_unit_modulus(P125, np.random.default_rng(0))
    assert res.status == "fail" and res.defect == pytest.approx(1e-6, rel=1e-6)

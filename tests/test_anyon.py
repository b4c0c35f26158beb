"""Tabulated-data tests: fusion, dimensions, bubbles, signs, R and F."""
import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from nss import (ALPHA, P2, PSI, S32, SIGMA, VACUUM, IntegerAlpha, ModelParams,
                 UnsupportedFamily, UnsupportedPair, UnsupportedTriple,
                 bubble_pop, f_matrix, fuse, modified_dimension,
                 pentagon_sweep, q_power, r_symbol, run_all, s_sign, t_sign)
from nss import anyon
from nss.anyon import (_B_TABLE, _F_FAMILIES, _F_TABLE, _R_TABLE, FLOAT_NS, alpha_in,
                       computational_bubbles, f_channels, mp_namespace)
from nss.errors import ModelError, SingularParameter

RNG = np.random.default_rng(7)


def sample_alphas(n, lo=2.0, hi=3.0):
    return lo + 1e-3 + (hi - lo - 2e-3) * RNG.random(n)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fusion_examples():
    assert fuse(SIGMA, SIGMA) == (VACUUM, PSI)
    assert fuse(ALPHA, VACUUM) == (ALPHA,)
    assert fuse(ALPHA, PSI) == (ALPHA.shifted(2), ALPHA, ALPHA.shifted(-2))
    assert fuse(ALPHA, SIGMA) == (ALPHA.shifted(1), ALPHA.shifted(-1))
    assert fuse(SIGMA, PSI) == (SIGMA, S32)
    assert fuse(PSI, PSI) == (VACUUM, P2)


def test_fusion_symmetric_pairs():
    for a, b in [(ALPHA, SIGMA), (ALPHA, PSI), (SIGMA, PSI)]:
        assert set(fuse(a, b)) == set(fuse(b, a))


def test_fusion_closure_keeps_alpha_noninteger():
    # integer shifts of a non-integer alpha stay non-integer
    out = fuse(ALPHA.shifted(3), PSI)
    assert all(l.is_alpha for l in out)
    al = 2.4
    assert all(abs(l.value(al) - round(l.value(al))) > 0.1 for l in out)


def test_fusion_unsupported():
    with pytest.raises(UnsupportedPair):
        fuse(S32, S32)
    with pytest.raises(UnsupportedPair):
        fuse(ALPHA, ALPHA.shifted(1))


# ---------------------------------------------------------------------------
# modified dimension
# ---------------------------------------------------------------------------

def test_dimension_at_twelve_fifths_is_minus_four():
    assert modified_dimension(12 / 5) == pytest.approx(-4.0, abs=1e-12)


def test_dimension_at_one_half():
    assert modified_dimension(0.5) == pytest.approx(-4 * math.sin(math.pi / 8), abs=1e-14)


def test_dimension_against_high_precision_oracle():
    # independent arbitrary-precision evaluation of the same formula
    with mp.workdps(50):
        want = float(-4 * mp.sin(mp.pi * mp.mpf("2.7") / 4) / mp.sin(mp.pi * mp.mpf("2.7")))
    assert modified_dimension(2.7) == pytest.approx(want, abs=1e-13)


def test_dimension_negative_on_definite_window():
    for al in sample_alphas(50):
        assert modified_dimension(float(al)) < 0


def test_dimension_integer_alpha_rejected():
    with pytest.raises(IntegerAlpha):
        modified_dimension(3.0)


# ---------------------------------------------------------------------------
# bubbles
# ---------------------------------------------------------------------------

def test_bubble_examples():
    p = ModelParams(2.4)
    assert bubble_pop(SIGMA, SIGMA, PSI, p) == pytest.approx(1.0)
    assert bubble_pop(SIGMA, SIGMA, VACUUM, p) == pytest.approx(-math.sqrt(2))
    assert bubble_pop(PSI, SIGMA, SIGMA, p) == pytest.approx(-1 / math.sqrt(2))
    assert bubble_pop(SIGMA, PSI, SIGMA, p) == pytest.approx(-math.sqrt(2))
    assert bubble_pop(ALPHA, VACUUM, ALPHA, p) == pytest.approx(1.0)


def test_bubble_down_step_oracle():
    # sqrt(2)/(-1 + cot(pi a/4)) at a = 12/5, checked in high precision
    p = ModelParams.from_string("12/5")
    with mp.workdps(50):
        want = float(mp.sqrt(2) / (-1 + mp.cot(mp.pi * mp.mpf(12) / 5 / 4)))
    got = bubble_pop(ALPHA, SIGMA, ALPHA.shifted(-1), p)
    assert got == pytest.approx(want, abs=1e-13)
    assert got == pytest.approx(-1.0674, abs=2e-4)


def test_bubble_shifted_rows():
    p = ModelParams(2.4)
    # the a -> a+1 shifted down-step equals the closed-form coefficient pair
    bp, bm = computational_bubbles(p)
    assert bp == pytest.approx(math.sqrt(2) / (-1 + 1 / math.tan(math.pi * 3.4 / 4)))
    assert bm == pytest.approx(math.sqrt(2) / (-1 + 1 / math.tan(math.pi * 2.4 / 4)))
    assert bp < 0 and bm < 0


def test_bubble_unsupported():
    p = ModelParams(2.4)
    with pytest.raises(UnsupportedTriple):
        bubble_pop(SIGMA, SIGMA, SIGMA, p)
    with pytest.raises(UnsupportedTriple):
        bubble_pop(P2, P2, VACUUM, p)


def test_bubble_singular_guard():
    # alpha this close to a multiple of 4 passes parameter validation but
    # puts tan(pi a / 4) inside the tolerance band of the down-step formula
    from nss.errors import SingularParameter
    p = ModelParams(4 + 1.2e-10, tol=1e-10)
    with pytest.raises(SingularParameter):
        bubble_pop(ALPHA, SIGMA, ALPHA.shifted(-1), p)


# ---------------------------------------------------------------------------
# sign functions
# ---------------------------------------------------------------------------

def test_sign_examples():
    assert s_sign(2.4) == -1
    assert t_sign(2.4) == 1
    assert s_sign(5.5) == 1
    assert t_sign(1.5) == -1
    assert s_sign(0.5) == 1


def test_sign_periodicity():
    for al in RNG.random(100) * 8:
        if abs(al - round(al)) < 1e-3:
            continue
        assert s_sign(float(al)) == s_sign(float(al) + 8)
        assert t_sign(float(al)) == t_sign(float(al) + 4)


def test_sign_integer_rejected():
    with pytest.raises(IntegerAlpha):
        s_sign(2.0)
    with pytest.raises(IntegerAlpha):
        t_sign(4.0)


# ---------------------------------------------------------------------------
# R-symbols
# ---------------------------------------------------------------------------

def test_r_symbol_examples():
    p = ModelParams(2.4)
    assert r_symbol(SIGMA, SIGMA, PSI, p) == pytest.approx(cmath.exp(1j * math.pi / 8))
    # q^((3+a)/2) with a = 2.4 -> q^2.7
    assert r_symbol(ALPHA, SIGMA, ALPHA.shifted(1), p) == pytest.approx(q_power(2.7))
    # s_a q^(-(1+3a)/2) = -q^(-4.1) at a = 2.4
    assert r_symbol(ALPHA, SIGMA, ALPHA.shifted(-1), p) == pytest.approx(-q_power(-4.1))


def test_r_symbol_unit_modulus():
    for al in sample_alphas(100):
        p = ModelParams(float(al))
        for b, a, c in _R_TABLE:
            assert abs(abs(r_symbol(b, a, c, p)) - 1) < 1e-12


def test_r_symbol_unsupported():
    p = ModelParams(2.4)
    with pytest.raises(UnsupportedTriple):
        r_symbol(SIGMA, SIGMA, SIGMA, p)


# ---------------------------------------------------------------------------
# lookups read the tables and nothing else
# ---------------------------------------------------------------------------

LABEL_GRID = [VACUUM, SIGMA, PSI, S32, P2] + [ALPHA.shifted(k) for k in range(-3, 4)]
GRID_SHIFTS = range(-6, 7)


def _at_shift(labels, k):
    """The labels with every alpha-type one shifted by k."""
    return tuple(x.shifted(k) if x.is_alpha else x for x in labels)


def _check_table_only(fn, table, is_unit):
    """fn gives a value exactly on a unit triple or a table row at any shift;
    a row shifted by k gives its value at alpha + k.  Every other triple of
    the label grid raises UnsupportedTriple."""
    p = ModelParams(2.4)
    rows = {_at_shift(row, k): (row, k) for row in table for k in GRID_SHIFTS}
    for triple in itertools.product(LABEL_GRID, repeat=3):
        if triple in rows:
            row, k = rows[triple]
            assert fn(*triple, p) == fn(*row, ModelParams(2.4 + k))
        elif is_unit(*triple):
            fn(*triple, p)
        else:
            with pytest.raises(UnsupportedTriple):
                fn(*triple, p)


def _fuse_oracle(a, b):
    """The fusion rules as the per-pair branches the fusion table replaced."""
    if a == VACUUM:
        return (b,)
    if b == VACUUM:
        return (a,)
    if a.is_alpha and not b.is_alpha:
        a, b = b, a
    if b.is_alpha:
        if a == SIGMA:
            return (b.shifted(+1), b.shifted(-1))
        if a == PSI:
            return (b.shifted(+2), b, b.shifted(-2))
        raise UnsupportedPair(f"{a} x {b} not tabulated")
    pair = {a, b}
    if pair == {SIGMA}:
        return (VACUUM, PSI)
    if pair == {SIGMA, PSI}:
        return (SIGMA, S32)
    if pair == {PSI}:
        return (VACUUM, P2)
    raise UnsupportedPair(f"{a} x {b} not tabulated")


def test_fusion_table_matches_the_branches_it_replaced():
    # outcomes in order, or the same error and message, on every ordered pair
    for a, b in itertools.product(LABEL_GRID, repeat=2):
        want = _outcome(_fuse_oracle, a, b)
        assert _outcome(fuse, a, b) == want, (a, b)
        assert anyon._outcomes(a, b) == (() if want[0] is UnsupportedPair else want), (a, b)
    assert _outcome(fuse, S32, ALPHA) == (UnsupportedPair, "s32 x a not tabulated")
    assert _outcome(fuse, ALPHA, ALPHA.shifted(1)) == (UnsupportedPair, "a x a+1 not tabulated")


def test_symbol_tables_use_only_tabulated_fusion_vertices():
    def vertex(a, b, c):
        return c in anyon._outcomes(a, b)

    # every R row (b, a; c) is a vertex of the fusion table
    assert all(vertex(a, b, c) for b, a, c in _R_TABLE)
    # so is every B row but the two that meet S3/2 with an alpha-type label,
    # which the fusion table has no row for
    assert [row for row in _B_TABLE if not vertex(*row)] == [
        (ALPHA, S32, ALPHA.shifted(1)), (ALPHA, S32, ALPHA.shifted(-1))]
    # each F[a,b,c;d] row n has n in b x c and d in a x n, each column m has
    # m in a x b and d in m x c, but for the S3/2 row of the four families
    # whose right tree passes through (a, S3/2; d)
    off = []
    for a, b, c, d in _F_FAMILIES:
        rows, cols = f_channels(a, b, c, d)
        assert all(vertex(a, b, m) and vertex(m, c, d) for m in cols)
        off += [(b, c, d[1], n) for n in rows if not (vertex(b, c, n) and vertex(a, n, d))]
    assert sorted(off) == sorted([(PSI, SIGMA, 1, S32), (PSI, SIGMA, -1, S32),
                                  (SIGMA, PSI, 1, S32), (SIGMA, PSI, -1, S32)])
    # every fusion vertex has an R row but psi x psi -> 1, p2
    labels = [SIGMA, PSI, S32, P2, ALPHA]
    bare = [(a, b, c) for a, b in itertools.product(labels, repeat=2)
            for c in anyon._outcomes(a, b) if (b, a, c) not in _R_TABLE]
    assert bare == [(PSI, PSI, VACUUM), (PSI, PSI, P2)]


def test_r_symbol_is_the_vacuum_rule_plus_the_table():
    _check_table_only(r_symbol, _R_TABLE,
                      lambda b, a, c: (b == VACUUM and a == c) or (a == VACUUM and b == c))


def test_bubble_pop_is_the_unit_rules_plus_the_table():
    _check_table_only(bubble_pop, _B_TABLE,
                      lambda a, b, c: (b == VACUUM and a == c) or (a == VACUUM and b == c))


def _fusion_admits(legs, d):
    """d is an outcome of the legs' product with vacuums dropped, or that
    product is not tabulated."""
    legs = [x for x in legs if x != VACUUM] or [VACUUM]
    if len(legs) == 1:
        return d == legs[0]
    try:
        return d in fuse(*legs)
    except UnsupportedPair:
        return True


def test_f_channels_are_the_vacuum_legs_plus_the_table():
    # f_matrix returns a block on exactly these channels and raises elsewhere
    families = {_at_shift(fam, k): k for fam in _F_FAMILIES for k in GRID_SHIFTS}
    base = {fam: f_channels(*fam) for fam in _F_FAMILIES}
    p = ModelParams(2.4)
    for a, b, c, d in itertools.product(LABEL_GRID, repeat=4):
        got = f_channels(a, b, c, d)
        if got is None:
            want = (UnsupportedFamily, f"F[{a},{b},{c};{d}] not tabulated")
            assert _outcome(f_matrix, a, b, c, d, p) == want
        else:
            blk = f_matrix(a, b, c, d, p)
            assert (blk.rows, blk.cols) == got
        if VACUUM in (a, b, c):
            assert (got is not None) == _fusion_admits((a, b, c), d), (a, b, c, d)
        elif (a, b, c, d) in families:
            k = families[a, b, c, d]
            rows, cols = base[_at_shift((a, b, c, d), -k)]
            assert got == (rows, _at_shift(cols, k))
        else:
            assert got is None


# ---------------------------------------------------------------------------
# F-matrices
# ---------------------------------------------------------------------------

def test_f_one_dimensional_values():
    p = ModelParams(2.4)
    up = f_matrix(ALPHA, SIGMA, SIGMA, ALPHA.shifted(2), p)
    assert up.matrix[0, 0] == pytest.approx(1.0)
    assert up.rows == (PSI,) and up.cols == (ALPHA.shifted(1),)
    dn = f_matrix(ALPHA, SIGMA, SIGMA, ALPHA.shifted(-2), p)
    assert dn.matrix[0, 0] == pytest.approx(math.copysign(1.0, math.sin(math.pi * 2.4 / 2)))


def _unnormalised_f(a, b, c, d, params, ns=FLOAT_NS):
    """The tabulated family's raw block, read straight off _F_TABLE: its formula
    at alpha + a.shift divided by the guarded denominator, and its channels."""
    rows, shifts, what, formula = _F_TABLE[b, c, d.shift - a.shift]
    x = alpha_in(params, ns) + a.shift
    den, ft = formula(x, q_power(2 * x, ns), q_power(2, ns), ns)
    ft = np.array(ft, dtype=ns.dtype)
    if what is not None:
        if abs(den) < min(params.tol, 1e-10):
            raise SingularParameter(f"{what}: denominator ~ 0")
        ft = ft / den
    return ft, rows, tuple(a.shifted(k) for k in shifts)


def test_f_unnormalized_top_right_entry():
    # the (vacuum, a-1) slot of the raw table is -1/sqrt(2) after factoring
    p = ModelParams(2.4)
    ft, rows, cols = _unnormalised_f(ALPHA, SIGMA, SIGMA, ALPHA, p)
    assert rows.index(VACUUM) == 0
    assert ft[0, 1] == pytest.approx(-1 / math.sqrt(2))


def test_f_inverse_and_pseudo_unitarity():
    fams = [(ALPHA, SIGMA, SIGMA, ALPHA),
            (ALPHA, PSI, SIGMA, ALPHA.shifted(1)), (ALPHA, PSI, SIGMA, ALPHA.shifted(-1)),
            (ALPHA, SIGMA, PSI, ALPHA.shifted(1)), (ALPHA, SIGMA, PSI, ALPHA.shifted(-1))]
    for al in sample_alphas(100):
        p = ModelParams(float(al))
        for a, b, c, d in fams:
            blk = f_matrix(a, b, c, d, p)
            m = np.asarray(blk.matrix, dtype=complex)
            assert np.allclose(m @ blk.inverse(), np.eye(2), atol=1e-10)
            jr = np.diag([math.copysign(1.0, bubble_pop(b, c, n, p) * bubble_pop(a, n, d, p))
                          for n in blk.rows])
            jc = np.diag([math.copysign(1.0, bubble_pop(a, b, mm, p) * bubble_pop(mm, c, d, p))
                          for mm in blk.cols])
            assert np.max(np.abs(m.conj().T @ jr @ m - jc)) < 1e-9


def _f_matrix_oracle(a, b, c, d, params, ns=FLOAT_NS):
    """f_matrix normalising entry by entry: four bubbles and roots per entry."""
    ft, rows, cols = _unnormalised_f(a, b, c, d, params, ns)
    if (b, c) == (SIGMA, SIGMA) and d.shift != a.shift:
        return ft, rows, cols
    out = np.empty_like(ft)
    for i, n in enumerate(rows):
        for j, m in enumerate(cols):
            num = ns.sqrt(bubble_pop(a, n, d, params, ns)) * \
                ns.sqrt(bubble_pop(b, c, n, params, ns))
            den = ns.sqrt(bubble_pop(m, c, d, params, ns)) * \
                ns.sqrt(bubble_pop(a, b, m, params, ns))
            out[i, j] = num / den * ft[i, j]
    return out, rows, cols


def _shifted_families():
    return [(a.shifted(s), b, c, d.shifted(s))
            for a, b, c, d in _F_FAMILIES for s in (-1, 0, 1)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ModelError as exc:
        return type(exc), str(exc)


def test_f_matrix_matches_per_entry_normalisation():
    alphas = [float(al) for al in np.random.default_rng(11).uniform(2, 3, 24)]
    for al in alphas + [2.0005, 2.9995]:
        p = ModelParams(al)
        for fam in _shifted_families():
            blk = f_matrix(*fam, p)
            want, rows, cols = _f_matrix_oracle(*fam, p)
            assert (blk.rows, blk.cols) == (rows, cols)
            assert blk.matrix.dtype == want.dtype and blk.matrix.tobytes() == want.tobytes()
    # near-integer alphas that pass validation at a tight tol raise the same error
    raised = 0
    for al in (2 + 3e-11, 4 - 5e-11, 5 + 2e-12, 1 + 7e-11):
        p = ModelParams(al, tol=1e-12)
        for fam in _shifted_families():
            got = _outcome(lambda: f_matrix(*fam, p).matrix.tobytes())
            assert got == _outcome(lambda: _f_matrix_oracle(*fam, p)[0].tobytes())
            raised += isinstance(got, tuple)
    assert raised > 0


def test_f_matrix_mp_matches_per_entry_normalisation():
    ns = mp_namespace(40)
    for p in (ModelParams.from_string("12/5"), ModelParams(2.0137), ModelParams(2.9871)):
        for fam in _shifted_families():
            blk = f_matrix(*fam, p, ns)
            # the oracle's own namespace, so a memo fault cannot hide on both sides
            want, _, _ = _f_matrix_oracle(*fam, p, mp_namespace(40))
            assert blk.matrix.dtype == object and blk.matrix.shape == want.shape
            assert all(x == y for x, y in zip(blk.matrix.flat, want.flat))


def _bits(z):
    """A Python number's type and bits."""
    return (type(z),) + ((z.hex(),) if isinstance(z, float) else (z.real.hex(), z.imag.hex()))


def test_array_namespace_is_float_namespace_per_element():
    ns = anyon._ARRAY_NS
    assert set(vars(ns)) == set(vars(FLOAT_NS))
    for name in ("pi", "one", "i", "number"):
        assert getattr(ns, name) is getattr(FLOAT_NS, name)
    reals = [2.4, -2.4, 0.0, -0.0, 1e-300, 7.25, -13.5, math.pi / 3]
    complexes = reals + [1j, -3 + 4j, 0.5 - 2.25j, -1e-3 - 0j]
    for name, args in (("sin", reals), ("cos", reals), ("tan", reals),
                       ("sqrt", complexes), ("exp", complexes)):
        got = getattr(ns, name)(np.array(args, dtype=object))
        want = [getattr(FLOAT_NS, name)(z) for z in args]
        assert got.dtype == object and list(map(_bits, got)) == list(map(_bits, want)), name
    alphas = [0.3, 1.5, 2.4, 3.7, 4.2, 5.5, 6.1, 7.9, 9.3, -0.5, -3.2]
    for name in ("s_sign", "t_sign"):
        for tol in (1e-10, 0.05):
            got = getattr(ns, name)(np.array(alphas, dtype=object), tol)
            want = [getattr(FLOAT_NS, name)(al, tol) for al in alphas]
            assert [(type(g), g) for g in got] == [(type(w), w) for w in want], (name, tol)
    for dens, tol in (([0.5, -2.0, 1e-9], 1e-10), ([0.5, 1e-11, 3.0], 1e-10),
                      ([0.5, -1e-11], 1e-12), ([0.5, 1e-11], 1e-12), ([0.19, 2.0], 0.5)):
        raises = []
        for den in dens:
            try:
                FLOAT_NS.guard(den, tol, "w")
            except SingularParameter:
                raises.append(den)
        arr = np.array(dens, dtype=object)
        if raises:
            with pytest.raises(SingularParameter, match="w: denominator ~ 0"):
                ns.guard(arr, tol, "w")
        else:
            assert ns.guard(arr, tol, "w") is arr


# what each memoised function of mp_namespace(dps) computes, called directly
# on mpmath's global context
_MP_DIRECT = {"sin": lambda z: mp.sin(z), "cos": lambda z: mp.cos(z),
              "tan": lambda z: mp.tan(z), "sqrt": lambda z: mp.sqrt(mp.mpc(z)),
              "exp": lambda z: mp.exp(mp.mpc(z))}


def _same_number(got, want, ns):
    """``got`` equals ``want`` and is the same kind of number (mpf or mpc) of ns's own context."""
    return type(got) is getattr(ns.one.context, type(want).__name__) and got == want


@pytest.mark.parametrize("order", [(20, 60), (60, 20)])
def test_mp_namespace_memo_equals_direct_calls(order):
    with mp.workdps(60):
        args = [mp.mpf(2) / 7, mp.mpf(-3) / 11, mp.mpc(1, 3) / 7, 0.25]
    namespaces = {dps: mp_namespace(dps) for dps in order}
    # the second round is served from the memo, at each precision in turn
    for dps in order + order:
        ns = namespaces[dps]
        for name, direct in _MP_DIRECT.items():
            for z in args:
                with mp.workdps(dps):
                    want = direct(z)
                assert _same_number(getattr(ns, name)(z), want, ns), (name, z, dps)


def test_mp_namespace_memo_keeps_argument_types_apart():
    with mp.workdps(30):
        x = mp.mpf(1) / 3
        z = mp.mpc(x, 0)
        assert x == z and hash(x) == hash(z)
        for first, second in ((x, z), (z, x)):
            ns = mp_namespace(30)
            for name in ("sin", "cos", "tan"):
                f = getattr(ns, name)
                for arg in (first, second, first):
                    got = f(arg)
                    assert type(got).__name__ == type(arg).__name__
                    assert _same_number(got, _MP_DIRECT[name](arg), ns)


def test_mp_namespaces_share_no_memo(monkeypatch):
    # each namespace evaluates on a context of its own: count those contexts' calls
    calls = []
    real_context = mp.MPContext

    def counting_context():
        ctx = real_context()
        sin, exp = ctx.sin, ctx.exp
        ctx.sin = lambda z: calls.append("sin") or sin(z)
        ctx.exp = lambda z: calls.append("exp") or exp(z)
        return ctx

    monkeypatch.setattr(mp, "MPContext", counting_context)
    z = mp.mpf(2) / 7
    one, two = mp_namespace(30), mp_namespace(30)
    for ns in (one, one, two, two, one):
        ns.sin(z)
        ns.exp(z)
    assert calls == ["sin", "exp"] * 2


def test_extended_recursion_leaves_no_module_level_container():
    from nss import braids, gates

    def containers():
        return {(mod.__name__, name): len(value) for mod in (anyon, braids, gates)
                for name, value in vars(mod).items()
                if not name.startswith("__") and isinstance(value, (dict, list, set))}

    before = containers()
    gates.reichardt_iterate(ModelParams.from_string("12/5"), gates.W_WORD, k=2, extended=True,
                            dps=60)
    assert containers() == before


def test_f_matrix_pops_eight_bubbles_per_2x2_block(monkeypatch):
    # f_matrix evaluates the bubble rows its family's plan resolved; count there
    calls = []
    resolve = anyon._row

    def counting_row(*args):
        row, shift = resolve(*args)

        def counted(*x):
            calls.append(args[3:])
            return row(*x)
        return counted, shift

    monkeypatch.setattr(anyon, "_row", counting_row)
    anyon._f_plan.cache_clear()
    try:
        p = ModelParams(2.4)
        for ns in (FLOAT_NS, mp_namespace(30)):
            for fam in _shifted_families():
                calls.clear()
                blk = f_matrix(*fam, p, ns)
                assert len(calls) == (8 if blk.matrix.shape == (2, 2) else 0)
    finally:
        anyon._f_plan.cache_clear()  # drop the plans that hold counting rows


def test_f_vacuum_legs_are_units():
    p = ModelParams(2.4)
    blk = f_matrix(ALPHA, VACUUM, SIGMA, ALPHA.shifted(1), p)
    assert blk.matrix[0, 0] == pytest.approx(1.0)
    blk = f_matrix(VACUUM, SIGMA, SIGMA, PSI, p)
    assert blk.matrix[0, 0] == pytest.approx(1.0)


def test_vacuum_rules_check_the_channel():
    p = ModelParams(2.4)
    with pytest.raises(UnsupportedTriple):
        r_symbol(VACUUM, SIGMA, PSI, p)
    with pytest.raises(UnsupportedTriple):
        r_symbol(SIGMA, VACUUM, S32, p)
    assert r_symbol(VACUUM, SIGMA, SIGMA, p) == 1
    with pytest.raises(UnsupportedFamily):
        f_matrix(ALPHA, VACUUM, SIGMA, PSI, p)   # a x s has no psi
    with pytest.raises(UnsupportedFamily):
        f_matrix(VACUUM, SIGMA, SIGMA, SIGMA, p)  # s x s = 1 + psi


def test_f_unsupported_family():
    p = ModelParams(2.4)
    with pytest.raises(UnsupportedFamily):
        f_matrix(SIGMA, SIGMA, SIGMA, SIGMA, p)
    with pytest.raises(UnsupportedFamily):
        f_matrix(ALPHA, PSI, PSI, ALPHA, p)


def test_f_entry_fallback_zero():
    p = ModelParams(2.4)
    blk = f_matrix(ALPHA, SIGMA, SIGMA, ALPHA, p)
    assert blk.entry(S32, ALPHA.shifted(1)) == 0.0


# ---------------------------------------------------------------------------
# pentagon
# ---------------------------------------------------------------------------

def test_pentagon_restricted_sweep():
    rep = pentagon_sweep(ModelParams(2.4))
    assert rep.verified > 0
    assert rep.skipped > 0
    assert rep.max_defect < 1e-10
    # the skipped instances name the data the tables omit
    assert any("s,s,s" in k or "psi" in k for k in rep.skip_reasons)


def _pentagon_sweep_oracle(params):
    """pentagon_sweep walking its instances lazily, each F block at first need."""
    rep = anyon.PentagonReport()
    pool_a = [ALPHA.shifted(s) for s in (-1, 0, 1)] + [VACUUM, SIGMA, PSI]
    pool_bcd = [VACUUM, SIGMA, PSI]
    empty = anyon.FBlock(np.zeros((0, 0)), (), ())
    blocks, fusions, keys = {}, {}, {}

    def get(*fam):
        if fam not in blocks:
            if f_channels(*fam):
                blocks[fam] = anyon.f_matrix(*fam, params)
            else:
                blocks[fam] = empty if VACUUM in fam[:3] else None
        return blocks[fam]

    def outcomes(a, b):
        if (a, b) not in fusions:
            fusions[a, b] = anyon._outcomes(a, b)
        return fusions[a, b]

    def skip(fam):
        if fam not in keys:
            keys[fam] = "F[{},{},{}]".format(*fam)
        rep.skipped += 1
        rep.skip_reasons[keys[fam]] = rep.skip_reasons.get(keys[fam], 0) + 1

    def instance(a, b, c, d, e, p, m, l, r):
        needed = [(p, c, d, e), (a, b, l, e), (a, b, c, m), (b, c, d, r)]
        found = []
        for fam in needed:
            blk = get(*fam)
            if blk is None:
                return skip(fam[:3])
            found.append(blk)
        f_pcd, f_abl, f_abc, f_bcd = found
        lhs = f_pcd.entry(l, m) * f_abl.entry(r, p)
        rhs = 0.0
        ts = outcomes(b, c)
        if not ts:
            return
        for t in ts:
            f_atd = get(a, t, d, e)
            if f_atd is None:
                return skip((a, t, d))
            rhs += f_abc.entry(t, p) * f_atd.entry(r, m) * f_bcd.entry(l, t)
        rep.verified += 1
        rep.max_defect = max(rep.max_defect, abs(lhs - rhs))

    for a, b, c, d in itertools.product(pool_a, pool_bcd, pool_bcd, pool_bcd):
        ls = outcomes(c, d)
        for p in outcomes(a, b):
            for m in outcomes(p, c):
                for e in outcomes(m, d):
                    for l in ls:
                        for r in outcomes(b, l):
                            instance(a, b, c, d, e, p, m, l, r)
    return rep


def _pentagon_fields(rep):
    d = rep.max_defect
    return rep.verified, rep.skipped, list(rep.skip_reasons.items()), type(d), float(d).hex()


def test_pentagon_sweep_matches_lazy_walk():
    alphas = [float(al) for al in np.random.default_rng(11).uniform(2, 3, 24)]
    for al in alphas + [2.0005, 2.9995, 11 / 2, 0.5]:
        p = ModelParams(al)
        assert _pentagon_fields(pentagon_sweep(p)) == _pentagon_fields(_pentagon_sweep_oracle(p))


@pytest.mark.parametrize("al", [2.4, 2.000001])
def test_pentagon_sweep_evaluates_no_symbol(monkeypatch, al):
    def evaluated(*args):
        raise AssertionError(f"the sweep evaluated a symbol at {args[:4]}")

    anyon._pentagon_plan.cache_clear()  # the plan reruns under the patch
    for name in ("f_matrix", "bubble_pop", "r_symbol", "_symbol"):
        monkeypatch.setattr(anyon, name, evaluated)
    rep = pentagon_sweep(ModelParams(al))
    assert (rep.verified, rep.skipped, rep.vacuum_free) == (345, 1126, 0)
    assert type(rep.max_defect) is float and rep.max_defect == 0.0
    monkeypatch.undo()
    # an F guard fires at 2.000001, so evaluating the blocks would raise
    if al == 2.000001:
        with pytest.raises(SingularParameter):
            _pentagon_sweep_oracle(ModelParams(al))


def test_pentagon_plan_rejects_an_instance_that_needs_values(monkeypatch):
    # a 2x2 F[s,s,s;s] puts two nonzero products on the right of the
    # a,s,s,s pentagons: they hold only for particular F values
    real = anyon.f_channels

    def channels(a, b, c, d):
        if (a, b, c, d) == (SIGMA,) * 4:
            return (VACUUM, PSI), (VACUUM, PSI)
        return real(a, b, c, d)

    anyon._pentagon_plan.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(anyon, "f_channels", channels)
            with pytest.raises(ModelError, match="holds only for particular F values") as err:
                pentagon_sweep(ModelParams(2.4))
            by_name = {r.name: r for r in run_all(ModelParams(2.4), seed=0)}
    finally:
        anyon._pentagon_plan.cache_clear()
    res = by_name["pentagon-restricted"]
    assert (res.status, res.defect, res.detail) == ("fail", math.inf, f"ModelError: {err.value}")


def test_pentagon_has_no_vacuum_free_instance():
    for al in ("12/5", "2.01", "2.99", "11/2"):
        rep = pentagon_sweep(ModelParams.from_string(al))
        assert (rep.verified, rep.skipped, rep.vacuum_free) == (345, 1126, 0)

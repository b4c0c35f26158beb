"""Closed-form categorical data of the non-semisimple Ising-type model.

Everything here is a pure evaluation in the real parameter alpha: fusion
rules, the modified quantum dimension, bubble-pop coefficients, the sign
functions s/t, R-symbols and (normalized) F-matrices.  B, R and F are each
one table that every evaluator and listing reads; alpha-parameterized rows
apply verbatim under integer shifts of alpha, and lookups outside the
tables raise, they are never extrapolated.

All q-powers mean ``q^x = exp(i pi x / 4)`` for real x.  Square roots of
negative bubble coefficients use the principal branch (``+i sqrt|B|``).

The formula kernels accept a math namespace so the same expressions can be
evaluated in double precision (default), in mpmath arbitrary precision or,
for the B and R rows and the 2x2 F blocks, over an array of alphas bit for
bit with double precision (:func:`_symbol_stack`, :func:`_f_blocks`).
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import (IntegerAlpha, ModelError, SingularParameter, UnsupportedFamily,
                     UnsupportedPair, UnsupportedTriple)
from .labels import ALPHA, P2, PSI, S32, SIGMA, VACUUM, ModelParams, QLabel


def check_noninteger(alpha: float, tol: float = 1e-10) -> None:
    if abs(alpha - round(alpha)) <= tol:
        raise IntegerAlpha(f"alpha = {alpha} is integer within tolerance")


def s_sign(alpha: float, tol: float = 1e-10) -> int:
    """+1 for alpha in (0,1) u (5,8) mod 8, -1 for alpha in (1,5) mod 8."""
    check_noninteger(alpha, tol)
    r = alpha % 8.0
    return 1 if (r < 1 or r > 5) else -1


def t_sign(alpha: float, tol: float = 1e-10) -> int:
    """+1 for alpha in (0,1) u (2,4) mod 4, -1 for alpha in (1,2) mod 4."""
    check_noninteger(alpha, tol)
    r = alpha % 4.0
    return 1 if (r < 1 or r > 2) else -1


def _guard(den, tol, what):
    # formulas are regular for non-integer alpha; the guard catches near-integer
    # evaluations that slip past parameter validation.  Its bound, the smaller
    # of tol and 1e-10, does not grow with a loose tol, which would call
    # regular points (0.19 at 12/5) singular.
    if abs(den) < 1e-10 and abs(den) < tol:
        raise SingularParameter(f"{what}: denominator ~ 0")
    return den


FLOAT_NS = SimpleNamespace(
    pi=math.pi,
    sin=math.sin,
    cos=math.cos,
    tan=math.tan,
    sqrt=cmath.sqrt,          # complex-capable, principal branch
    exp=cmath.exp,
    one=1.0,
    i=1j,
    dtype=complex,
    number=float,
    guard=_guard,
    s_sign=s_sign,
    t_sign=t_sign,
)


def mp_namespace(dps):
    """:data:`FLOAT_NS` over the numbers of a private mpmath context working
    at ``dps`` digits, its elementary functions memoised in caches it owns and
    its guard and sign functions shared.  mpmath's global precision is
    neither read nor set, so namespaces at different precisions, in one
    thread or several, never disturb each other."""
    import mpmath
    from fractions import Fraction
    ctx = mpmath.MPContext()
    ctx.dps = dps

    def number(x):
        if isinstance(x, Fraction):
            return ctx.mpf(x.numerator) / x.denominator
        return ctx.mpf(x)

    def memoised(fn):
        # one cache per function, keyed by (argument type, argument)
        cached = functools.cache(lambda kind, z: fn(z))
        return lambda z: cached(type(z), z)

    return SimpleNamespace(**{
        **vars(FLOAT_NS),
        "pi": ctx.pi,
        "sin": memoised(ctx.sin),
        "cos": memoised(ctx.cos),
        "tan": memoised(ctx.tan),
        "sqrt": memoised(lambda z: ctx.sqrt(ctx.mpc(z))),
        "exp": memoised(lambda z: ctx.exp(ctx.mpc(z))),
        "one": ctx.mpf(1),
        "i": ctx.mpc(0, 1),
        "dtype": object,
        "number": number})


def _guard_min(den, tol, what):
    """:func:`_guard` over an array: raises when any element would."""
    _guard(np.min(abs(den)), tol, what)
    return den


# FLOAT_NS over object arrays of Python floats: math, cmath and the sign
# functions run on each element and + - * / are the Python operators, so each
# element rounds as the scalar formula does (numpy's own tan and complex *
# and / are SIMD code chosen per CPU, and differ in the last bit)
_ARRAY_NS = SimpleNamespace(**{
    **vars(FLOAT_NS),
    **{f: np.frompyfunc(getattr(FLOAT_NS, f), 1, 1) for f in ("sin", "cos", "tan", "sqrt", "exp")},
    **{f: np.frompyfunc(getattr(FLOAT_NS, f), 2, 1) for f in ("s_sign", "t_sign")},
    "guard": _guard_min})


def alpha_in(params: ModelParams, ns=FLOAT_NS):
    """Alpha as a backend number, using the exact rational when recorded."""
    if ns is FLOAT_NS:
        return params.alpha
    return ns.number(params.exact if params.exact is not None else params.alpha)


def q_power(x, ns=FLOAT_NS):
    """q^x = exp(i pi x / 4) for real x."""
    return ns.exp(ns.i * ns.pi * x / 4)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def fuse(a: QLabel, b: QLabel) -> tuple[QLabel, ...]:
    """Fusion outcomes of a x b, each with multiplicity one.

    Covers the tabulated rules: the vacuum is a strict unit, sigma shifts an
    alpha-type label by +-1, psi by +-2/0, sigma x sigma = 1 + psi,
    sigma x psi = sigma + S3/2 and psi x psi = 1 + P2.  Pairs outside the
    table (e.g. two alpha-type labels, S3/2 x S3/2) raise UnsupportedPair.
    """
    if a == VACUUM:
        return (b,)
    if b == VACUUM:
        return (a,)
    if a.is_alpha and not b.is_alpha:
        a, b = b, a  # the table is symmetric in the listed pairs
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


@functools.lru_cache(maxsize=None)
def _outcomes(a: QLabel, b: QLabel) -> tuple[QLabel, ...]:
    """Fusion outcomes of a x b, or () when the pair is not tabulated; each
    pair's outcomes are found once per process."""
    try:
        return fuse(a, b)
    except UnsupportedPair:
        return ()


# ---------------------------------------------------------------------------
# modified dimension
# ---------------------------------------------------------------------------

def modified_dimension(alpha: float, tol: float = 1e-10):
    """Modified quantum dimension: -4 sin(pi a/4) / sin(pi a)."""
    check_noninteger(alpha, tol)
    return -4 * math.sin(math.pi * alpha / 4) / math.sin(math.pi * alpha)


# ---------------------------------------------------------------------------
# bubble pops
# ---------------------------------------------------------------------------

def _b_s32_down(x, ns, tol):
    t = ns.guard(ns.tan(ns.pi * x / 4), tol, "B[a,s32,a-1] cot")
    return (2 + 2 * t) / ns.guard(-1 + 1 / t, tol, "B[a,s32,a-1]")


# every non-unit bubble row (a, b, c) at the base alpha, as a function of
# (x, ns, tol) with x the value of the alpha-type label a
_B_TABLE = {
    (ALPHA, SIGMA, ALPHA.shifted(1)): lambda x, ns, tol: ns.one,
    (ALPHA, SIGMA, ALPHA.shifted(-1)): lambda x, ns, tol: _sqrt2(ns) / ns.guard(
        -1 + 1 / ns.guard(ns.tan(ns.pi * x / 4), tol, "B[a,s,a-1] cot"), tol, "B[a,s,a-1]"),
    (ALPHA, PSI, ALPHA.shifted(2)): lambda x, ns, tol: ns.one,
    (ALPHA, PSI, ALPHA): lambda x, ns, tol: _sqrt2(ns) * ns.cos(ns.pi * x / 2) / ns.guard(
        1 - ns.sin(ns.pi * x / 2), tol, "B[a,psi,a]"),
    (ALPHA, PSI, ALPHA.shifted(-2)):
        lambda x, ns, tol: 2 / ns.guard(ns.tan(ns.pi * (x - 2) / 4), tol, "B[a,psi,a-2]"),
    (ALPHA, S32, ALPHA.shifted(1)):
        lambda x, ns, tol: _sqrt2(ns) / ns.guard(1 - ns.tan(ns.pi * x / 4), tol, "B[a,s32,a+1]"),
    (ALPHA, S32, ALPHA.shifted(-1)): _b_s32_down,
    (SIGMA, SIGMA, VACUUM): lambda x, ns, tol: -_sqrt2(ns),
    (SIGMA, SIGMA, PSI): lambda x, ns, tol: ns.one,
    (PSI, SIGMA, SIGMA): lambda x, ns, tol: -1 / _sqrt2(ns),
    (PSI, SIGMA, S32): lambda x, ns, tol: ns.one,
    (SIGMA, PSI, SIGMA): lambda x, ns, tol: -_sqrt2(ns),
    (SIGMA, PSI, S32): lambda x, ns, tol: ns.one,
}


def _kind_index(table):
    """``table`` keyed on kinds and the last shift: a row's first two labels
    sit at shift 0 and hold at most one alpha-type, so a triple (u, v, w) at
    any shift is looked up by its kinds and w.shift - u.shift - v.shift."""
    return {(u.kind, v.kind, w.kind, w.shift): fn for (u, v, w), fn in table.items()}


_B_INDEX = _kind_index(_B_TABLE)


def _row(index, unit, what, u: QLabel, v: QLabel, w: QLabel):
    """The B or R symbol what[u,v;w] as (row, shift), its value at alpha being
    row(alpha + shift, ns, tol): ``unit`` on a vacuum pair, else the ``index``
    row at u.shift + v.shift; an untabulated triple gives a row that raises
    where it is evaluated."""
    if (v == VACUUM and u == w) or (u == VACUUM and v == w):
        return unit, 0
    # a label is the tuple (kind, shift, is_alpha); see _kind_index
    row = index.get((u[0], v[0], w[0], w[1] - u[1] - v[1]))
    if row is None:
        def row(x, ns, tol):
            raise UnsupportedTriple(f"{what}[{u},{v};{w}] not tabulated")
    return row, u[1] + v[1]


def _b_unit(x, ns, tol):
    return ns.one


def bubble_pop(a: QLabel, b: QLabel, c: QLabel, params: ModelParams, ns=FLOAT_NS):
    """The scalar B^{ab}_c removed when a split (a,b)->c is closed by its merge.

    Real for every tabulated triple; its sign feeds the metric.  Alpha-type
    rows shift: the first label's value is the `alpha' of the table row.
    """
    return _symbol("B", a, b, c, alpha_in(params, ns), ns, params.tol)


_SQRT2 = math.sqrt(2)  # == cmath.sqrt(2).real


def _sqrt2(ns):
    """sqrt(2): real in double precision (a complex root would give a negative
    bubble's root the sign of -0.0), an mpc under mpmath."""
    return _SQRT2 if ns.number is float else ns.sqrt(2 * ns.one)


# the bubbles (a+1, s; a) and (a, s; a-1) of the up/down single-qubit channels
_COMPUTATIONAL_TRIPLES = ((ALPHA.shifted(1), SIGMA, ALPHA), (ALPHA, SIGMA, ALPHA.shifted(-1)))


def computational_bubbles(params: ModelParams):
    """(B_{+}, B_{-}): bubble coefficients of the up/down single-qubit channels."""
    return tuple(bubble_pop(*t, params) for t in _COMPUTATIONAL_TRIPLES)


# ---------------------------------------------------------------------------
# R-symbols
# ---------------------------------------------------------------------------

# every R row (b, a, c) at the base alpha, as a function of (x, ns, tol)
# with x the value of its alpha-type label
_R_TABLE = {
    (ALPHA, PSI, ALPHA.shifted(2)): lambda x, ns, tol: q_power(3 + x, ns),
    (PSI, ALPHA, ALPHA.shifted(2)): lambda x, ns, tol: q_power(3 + x, ns),
    (ALPHA, SIGMA, ALPHA.shifted(1)): lambda x, ns, tol: q_power((3 + x) / 2, ns),
    (SIGMA, ALPHA, ALPHA.shifted(1)): lambda x, ns, tol: q_power((3 + x) / 2, ns),
    (ALPHA, PSI, ALPHA): lambda x, ns, tol: ns.s_sign(x, tol) * q_power(1 - x, ns),
    (PSI, ALPHA, ALPHA): lambda x, ns, tol: ns.s_sign(x, tol) * q_power(3 + x, ns),
    (ALPHA, SIGMA, ALPHA.shifted(-1)):
        lambda x, ns, tol: ns.s_sign(x, tol) * q_power(-(1 + 3 * x) / 2, ns),
    (SIGMA, ALPHA, ALPHA.shifted(-1)):
        lambda x, ns, tol: ns.s_sign(x, tol) * q_power((7 + x) / 2, ns),
    (ALPHA, PSI, ALPHA.shifted(-2)): lambda x, ns, tol: ns.t_sign(x, tol) * q_power(1 - 3 * x, ns),
    (PSI, ALPHA, ALPHA.shifted(-2)): lambda x, ns, tol: ns.t_sign(x, tol) * q_power(5 + x, ns),
    (PSI, SIGMA, S32): lambda x, ns, tol: q_power(1, ns),
    (SIGMA, PSI, S32): lambda x, ns, tol: q_power(1, ns),
    (PSI, SIGMA, SIGMA): lambda x, ns, tol: q_power(1, ns),
    (SIGMA, PSI, SIGMA): lambda x, ns, tol: q_power(3, ns),
    (SIGMA, SIGMA, PSI): lambda x, ns, tol: q_power(0.5, ns),
    (SIGMA, SIGMA, VACUUM): lambda x, ns, tol: q_power(2.5, ns),
}

_R_INDEX = _kind_index(_R_TABLE)


def _r_unit(x, ns, tol):
    return ns.one + 0 * ns.i


def r_symbol(b: QLabel, a: QLabel, c: QLabel, params: ModelParams, ns=FLOAT_NS):
    """R^{ba}_c: the phase exchanging a pair split from channel c.

    Applying the positive half-braid to a state split as (a, b) in channel c
    yields R^{ba}_c times the state split as (b, a).  Unit modulus for every
    tabulated row; rows with an alpha-type label shift with it.
    """
    return _symbol("R", b, a, c, alpha_in(params, ns), ns, params.tol)


def _symbol(what, u: QLabel, v: QLabel, w: QLabel, al, ns, tol):
    """The B (what "B") or R (what "R") symbol of (u, v, w) at alpha ``al``,
    a number of ``ns``: its table row, run at al plus the row's shift."""
    index, unit = (_B_INDEX, _b_unit) if what == "B" else (_R_INDEX, _r_unit)
    row, shift = _row(index, unit, what, u, v, w)
    return row(al + shift, ns, tol)


def _symbol_stack(what, u: QLabel, v: QLabel, w: QLabel, alphas: np.ndarray, tol: float):
    """:func:`bubble_pop` (what "B") or :func:`r_symbol` (what "R") of (u, v, w)
    at each of an array of alphas, bit for bit, as an object array of Python
    numbers: the table row runs on :data:`_ARRAY_NS`.  A guard or sign that
    would raise at any alpha raises."""
    out = _symbol(what, u, v, w, alphas.astype(object), _ARRAY_NS, tol)
    return np.broadcast_to(np.asarray(out, dtype=object), alphas.shape)


# ---------------------------------------------------------------------------
# F-matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FBlock:
    """A (normalized) F-matrix with its channel index lists.

    ``matrix[n, m]`` relates the right-associated channel ``rows[n]`` to the
    left-associated channel ``cols[m]``.
    """

    matrix: np.ndarray
    rows: tuple[QLabel, ...]
    cols: tuple[QLabel, ...]

    def entry(self, n: QLabel, m: QLabel):
        """Coefficient for channel pair (n, m); 0 when a channel is inadmissible."""
        if n in self.rows and m in self.cols:
            return self.matrix[self.rows.index(n), self.cols.index(m)]
        return 0.0

    def inverse(self) -> np.ndarray:
        return _inv_small(self.matrix)


def _inv_small(m: np.ndarray) -> np.ndarray:
    """Inverse of a 1x1 or 2x2 matrix, valid for float and object dtypes."""
    if m.shape == (1, 1):
        return np.array([[1 / m[0, 0]]], dtype=m.dtype)
    if m.shape == (2, 2):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        return np.array([[m[1, 1] / det, -m[0, 1] / det],
                         [-m[1, 0] / det, m[0, 0] / det]], dtype=m.dtype)
    raise ValueError("only 1x1 and 2x2 blocks occur in the tabulated data")


# every F family (b, c, d - a) for alpha-type a and d, as its rows, its
# columns' shifts from a, its denominator's name (None: no denominator) and
# its formula (x, Q = q^2x, q2 = q^2, ns) -> (denominator, unnormalized rows);
# the 1x1 families read neither q-power
_F_TABLE = {
    (SIGMA, SIGMA, 0): ((VACUUM, PSI), (1, -1), "Ftilde[a,s,s;a]", lambda x, Q, q2, ns: (
        _sqrt2(ns) * (Q - 1),
        [[q_power(1, ns) * (Q + q2), -(Q - 1)], [Q - q2, q_power(1, ns) * (Q - 1)]])),
    (SIGMA, SIGMA, 2): ((PSI,), (1,), None, lambda x, Q, q2, ns: (None, [[ns.one + 0 * ns.i]])),
    (SIGMA, SIGMA, -2): ((PSI,), (-1,), None, lambda x, Q, q2, ns: (
        None, [[(1.0 if ns.sin(ns.pi * x / 2) > 0 else -1.0) + 0 * ns.i]])),
    (PSI, SIGMA, 1): ((SIGMA, S32), (0, 2), "Ftilde[a,psi,s;a+1]", lambda x, Q, q2, ns: (
        Q + q2,
        [[(q2 - 1) * (Q + q2), (q2 + 1) * (Q + 1)], [(q2 + 1) * (Q + q2), Q - q2]])),
    (PSI, SIGMA, -1): ((SIGMA, S32), (0, -2), "Ftilde[a,psi,s;a-1]", lambda x, Q, q2, ns: (
        Q - q2,
        [[(q2 + 1) * (Q + q2), -2 * (Q - q2)], [Q + 1, q2 * (Q - q2)]])),
    (SIGMA, PSI, 1): ((SIGMA, S32), (1, -1), "Ftilde[a,s,psi]", lambda x, Q, q2, ns: (
        Q - 1,
        [[q2 * (Q + 1), -q_power(1, ns) * (Q - 1)], [_sqrt2(ns) * (Q - q2), q2 * (Q - 1)]])),
    (SIGMA, PSI, -1): ((SIGMA, S32), (1, -1), "Ftilde[a,s,psi]", lambda x, Q, q2, ns: (
        Q - 1,
        [[q_power(1, ns) * (q2 + 1) * (Q + q2), -(Q - 1)], [Q + 1, q_power(1, ns) * (Q - 1)]])),
}

# every tabulated F family as (a, b, c, d), at the base alpha
_F_FAMILIES = tuple((ALPHA, b, c, ALPHA.shifted(dd)) for b, c, dd in _F_TABLE)


def _admits(x: QLabel, y: QLabel, d: QLabel) -> bool:
    """False only when the fusion table lists x x y and d is not an outcome."""
    outcomes = _outcomes(x, y)
    return not outcomes or d in outcomes


@functools.lru_cache(maxsize=None)
def f_channels(a: QLabel, b: QLabel, c: QLabel, d: QLabel):
    """(rows, cols) of F[a,b,c;d], or None when the family is not tabulated.

    A vacuum leg gives a unit block unless the fusion table excludes d from
    the other two legs' product (F[a,1,s;psi] is None: a x s has no psi).

    The channels do not depend on alpha, so letter plans read them without
    evaluating a symbol; :func:`f_matrix` returns its blocks in this order.
    Each family's channels are found once per process.
    """
    if b == VACUUM:
        return ((c,), (a,)) if _admits(a, c, d) else None
    if c == VACUUM:
        return ((b,), (d,)) if _admits(a, b, d) else None
    if a == VACUUM:
        return ((d,), (b,)) if _admits(b, c, d) else None
    family = _F_TABLE.get((b, c, d[1] - a[1])) if a[2] and d[2] else None
    if family is None:
        return None
    return family[0], tuple(a.shifted(k) for k in family[1])


@functools.lru_cache(maxsize=None)
def _f_plan(b: QLabel, c: QLabel, dd: int):
    """The alpha-free part of the tabulated F[a,b,c;a+dd], for every alpha-type a:
    its denominator's name and formula from :data:`_F_TABLE` and, for a 2x2
    block, its eight normalising bubbles as (row, shift), each evaluated at
    alpha + (a.shift + shift), in the order a per-entry loop first pops them
    (so a guard raises the same error)."""
    rows, shifts, what, formula = _F_TABLE[b, c, dd]
    pops = ()
    if len(rows) == 2:
        a, d = ALPHA, ALPHA.shifted(dd)
        (n0, n1), (m0, m1) = rows, [a.shifted(k) for k in shifts]
        pops = tuple(_row(_B_INDEX, _b_unit, "B", u, v, w) for u, v, w in (
            (a, n0, d), (b, c, n0), (m0, c, d), (a, b, m0),
            (m1, c, d), (a, b, m1), (a, n1, d), (b, c, n1)))
    return what, formula, pops


def f_matrix(a: QLabel, b: QLabel, c: QLabel, d: QLabel,
             params: ModelParams, ns=FLOAT_NS) -> FBlock:
    """Normalized F-matrix for the :data:`_F_TABLE` families (plus vacuum-leg units).

    Each family holds for any alpha-type a.  Normalization multiplies each
    entry by sqrt(B^{a n}_d) sqrt(B^{b c}_n) / (sqrt(B^{m c}_d) sqrt(B^{a b}_m))
    with principal square roots; only then are the matrices pseudo-unitary.
    A vacuum leg gives the unit coefficient 1 (see :func:`f_channels`).
    """
    channels = f_channels(a, b, c, d)
    if channels is None:
        raise UnsupportedFamily(f"F[{a},{b},{c};{d}] not tabulated")
    if VACUUM in (a, b, c):
        return FBlock(np.array([[ns.one + 0 * ns.i]], dtype=ns.dtype), *channels)
    out, _, _ = _f_formula(a, b, c, d, alpha_in(params, ns), params.tol, ns)
    return FBlock(np.array(out, dtype=ns.dtype), *channels)


def _f_formula(a, b, c, d, al, tol, ns):
    """The tabulated F[a,b,c;d] at alpha ``al`` as (rows, nums, dens): for a
    2x2 block, the family's rows divided in numpy by the guarded denominator,
    then entry (n, m) times nums[n] / dens[m], each the product of two of the
    plan's bubble roots.  A number ``al`` gives lists of numbers; an object
    array of alphas on :data:`_ARRAY_NS` gives object arrays."""
    what, formula, pops = _f_plan(b, c, d[1] - a[1])
    s = a[1]
    x = al + s
    if not pops:  # the one-dimensional data are normalized and read no q-power
        return formula(x, None, None, ns)[1], (), ()
    den, ft = formula(x, q_power(2 * x, ns), q_power(2, ns), ns)
    ft, den = np.array(ft, dtype=ns.dtype), ns.guard(den, tol, what)
    # numpy's complex divide sets the bits; the entries are then Python numbers again
    ft = (ft / den).tolist() if ft.ndim == 2 else (ft / den.astype(complex)).astype(object)
    r = [ns.sqrt(row(al + (s + k), ns, tol)) for row, k in pops]
    n0, n1, d0, d1 = r[0] * r[1], r[6] * r[7], r[2] * r[3], r[4] * r[5]
    (f00, f01), (f10, f11) = ft
    return [[n0 / d0 * f00, n0 / d1 * f01], [n1 / d0 * f10, n1 / d1 * f11]], (n0, n1), (d0, d1)


def _f_blocks(family, alphas: np.ndarray, tol: float):
    """:func:`f_matrix` of a tabulated 2x2 family at each of an array of
    alphas, bit for bit, with :meth:`FBlock.inverse` and the metric signs of
    the two tree shapes, as three arrays stacked on a first axis.

    It runs f_matrix's formula step (:func:`_f_formula`) on object arrays of
    Python numbers, so every operation is the one the scalar path makes;
    only where that path uses numpy's complex divide (the block by its
    denominator, the inverse by its determinant) does this one divide
    complex128 arrays.

    ``signs[k, 0]`` are the rows' and ``signs[k, 1]`` the columns' signs.
    Each row numerator and column denominator is a product of principal
    roots of real bubbles, each root exactly real or exactly imaginary, so
    its square is real with the sign of the bubbles' product.  A guard that
    fires at any alpha raises; the error scalar calls in alpha order would
    meet first may be another one.
    """
    out, nums, dens = _f_formula(*family, alphas.astype(object), tol, _ARRAY_NS)
    m = np.array(out, dtype=complex)
    det = (out[0][0] * out[1][1] - out[0][1] * out[1][0]).astype(complex)
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    squares = np.array([np.broadcast_to(z * z, alphas.shape) for z in nums + dens], dtype=complex)
    signs = np.copysign(1.0, squares.real).reshape(2, 2, -1)
    return tuple(np.ascontiguousarray(np.moveaxis(v, -1, 0)) for v in (m, inv, signs))


# ---------------------------------------------------------------------------
# pentagon sweep (restricted to tabulated symbols)
# ---------------------------------------------------------------------------

@dataclass
class PentagonReport:
    verified: int = 0
    skipped: int = 0
    max_defect: float = 0.0
    skip_reasons: dict = field(default_factory=dict)
    vacuum_free: int = 0  # verified instances with no vacuum among (a, b, c, d)


def pentagon_sweep(params: ModelParams) -> PentagonReport:
    """Check every pentagon instance whose five F-symbols are all tabulated,
    with the first label alpha-1, alpha, alpha+1 or a non-alpha type.

    Instances requiring unlisted symbols (anything with an S3/2 or P2 leg, or
    a non-alpha first slot such as F[s,s,s]) are skipped and counted, with
    the first missing symbol recorded as the reason.

    The identity checked, for admissible (a, b, c, d; e) and free channels
    (p, m, l, r):

        F[p,c,d;e]_{l m} * F[a,b,l;e]_{r p}
            = sum_t F[a,b,c;m]_{t p} * F[a,t,d;e]_{r m} * F[b,c,d;r]_{l t}

    :func:`_pentagon_plan` proves each verified instance for any F values,
    once per process, so the report is the same at every alpha and the sweep
    evaluates no symbol.
    """
    verified, skipped, reasons, vacuum_free = _pentagon_plan()
    return PentagonReport(verified, skipped, 0.0, dict(reasons), vacuum_free)


def _pentagon_instances():
    """(a, b, c, d, e, p, m, l, r) for every instance the sweep considers."""
    pool_a = [ALPHA.shifted(s) for s in (-1, 0, 1)] + [VACUUM, SIGMA, PSI]
    pool_bcd = [VACUUM, SIGMA, PSI]
    for a, b, c, d in itertools.product(pool_a, pool_bcd, pool_bcd, pool_bcd):
        for p in _outcomes(a, b):
            for m in _outcomes(p, c):
                for e in _outcomes(m, d):
                    for l in _outcomes(c, d):
                        for r in _outcomes(b, l):
                            yield a, b, c, d, e, p, m, l, r


@functools.lru_cache(maxsize=None)
def _pentagon_plan():
    """The pentagon walk, once per process: (verified, skipped, skip reasons
    as items, vacuum_free).  Each F entry reads 0 outside its block, 1 in a
    vacuum leg's unit block and else the symbol (family, row, col).  An
    instance is verified when both sides are 0, or when the left product
    holds the same symbols as the right side's one nonzero product; it then
    holds for any F values.  An instance that holds only for particular
    values raises ModelError."""
    reasons = {}
    skipped = verified = vacuum_free = 0

    def get(fam):
        """(rows, cols) of a family, ((), ()) for an excluded vacuum leg, None when untabulated."""
        return f_channels(*fam) or (((), ()) if VACUUM in fam[:3] else None)

    def product(*entries):
        """The symbols of a product of (family, n, m) entries, sorted, or None for 0."""
        symbols = []
        for fam, n, m in entries:
            rows, cols = get(fam)
            if n not in rows or m not in cols:
                return None
            if VACUUM not in fam[:3]:
                symbols.append((fam, rows.index(n), cols.index(m)))
        return sorted(symbols)

    for a, b, c, d, e, p, m, l, r in _pentagon_instances():
        needed = [(p, c, d, e), (a, b, l, e), (a, b, c, m), (b, c, d, r)]
        ts = _outcomes(b, c)
        missing = next((f for f in needed if get(f) is None), None)
        if missing is None and ts:  # an untabulated b x c verifies nothing
            missing = next((f for f in [(a, t, d, e) for t in ts] if get(f) is None), None)
            if missing is None:
                lhs = product((needed[0], l, m), (needed[1], r, p))
                rhs = [product((needed[2], t, p), ((a, t, d, e), r, m), (needed[3], l, t))
                       for t in ts]
                if [x for x in rhs if x is not None] != ([] if lhs is None else [lhs]):
                    raise ModelError(f"pentagon (a,b,c,d;e) = ({a},{b},{c},{d};{e}), (p,m,l,r) = "
                                     f"({p},{m},{l},{r}) holds only for particular F values")
                verified += 1
                vacuum_free += VACUUM not in (a, b, c, d)
        if missing is not None:
            skipped += 1
            reasons[missing[:3]] = reasons.get(missing[:3], 0) + 1
    reasons = tuple(("F[{},{},{}]".format(*fam), n) for fam, n in reasons.items())
    return verified, skipped, reasons, vacuum_free


# ---------------------------------------------------------------------------
# model dump (CLI-facing)
# ---------------------------------------------------------------------------

def model_dump(params: ModelParams) -> dict:
    """All tabulated data at the base alpha, as a dict of numbers and arrays."""
    al = params.alpha
    out = {
        "alpha": al,
        "q": [math.cos(math.pi / 4), math.sin(math.pi / 4)],
        "d_alpha": modified_dimension(al, params.tol),
        "s": s_sign(al, params.tol),
        "t": t_sign(al, params.tol),
        "B": {},
        "R": {},
        "F": {},
    }
    for (x, y, z) in ((ALPHA, VACUUM, ALPHA),) + tuple(_B_TABLE):
        out["B"][f"B[{x},{y};{z}]"] = bubble_pop(x, y, z, params)
    for (x, y, z) in _R_TABLE:
        out["R"][f"R[{x},{y};{z}]"] = r_symbol(x, y, z, params)
    for fam in _F_FAMILIES:
        blk = f_matrix(*fam, params)
        key = "F[{},{},{};{}]".format(*(str(x) for x in fam))
        out["F"][key] = {
            "rows": [str(x) for x in blk.rows],
            "cols": [str(x) for x in blk.cols],
            "matrix": blk.matrix,
        }
    return out

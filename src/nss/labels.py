"""Anyon labels and global model parameters.

Labels are symbolic: an alpha-type label stores only its integer shift
relative to the model's base parameter, so admissibility checks are exact
integer comparisons and never suffer float drift.  The numeric value
``alpha + shift`` is resolved against :class:`ModelParams` only where a
formula actually needs it.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import IntegerAlpha

# kind -> (token, q-spin); an alpha label has none: it prints and evaluates from its shift
_KINDS = {"vac": ("1", 0.0), "sigma": ("s", 0.5), "psi": ("psi", 1.0),
          "s32": ("s32", 1.5), "p2": ("p2", 2.0), "alpha": None}


class QLabel(tuple):
    """An anyon type: vacuum, sigma, psi, S3/2, P2 or alpha+shift.

    An immutable ``(kind, shift, is_alpha)`` tuple, so equality, hashing
    and ordering (by kind, then shift) run in C.
    """

    __slots__ = ()

    def __new__(cls, kind: str, shift: int = 0):
        if kind not in _KINDS:
            raise ValueError(f"unknown label kind {kind!r}")
        if kind != "alpha" and shift != 0:
            raise ValueError("only alpha-type labels carry a shift")
        return tuple.__new__(cls, (kind, shift, kind == "alpha"))

    kind = property(operator.itemgetter(0))
    shift = property(operator.itemgetter(1))
    is_alpha = property(operator.itemgetter(2))

    def __getnewargs__(self):
        return self[:2]

    def __repr__(self) -> str:
        return f"QLabel(kind={self.kind!r}, shift={self.shift!r})"

    def value(self, alpha: float) -> float:
        """Numeric q-spin value of the label given the base parameter."""
        if self.is_alpha:
            return alpha + self.shift
        return _KINDS[self.kind][1]

    def shifted(self, k: int) -> "QLabel":
        if not self.is_alpha:
            raise ValueError("only alpha-type labels shift")
        return QLabel("alpha", self.shift + k)

    def token(self) -> str:
        if not self.is_alpha:
            return _KINDS[self.kind][0]
        if self.shift == 0:
            return "a"
        return f"a{self.shift:+d}"

    def __str__(self) -> str:
        return self.token()


VACUUM = QLabel("vac")
SIGMA = QLabel("sigma")
PSI = QLabel("psi")
S32 = QLabel("s32")
P2 = QLabel("p2")


def alpha_label(shift: int = 0) -> QLabel:
    return QLabel("alpha", shift)


ALPHA = alpha_label()

_PARSE = {"1": VACUUM, "s": SIGMA, "sigma": SIGMA, "psi": PSI, "p": PSI,
          "s32": S32, "p2": P2, "a": ALPHA, "alpha": ALPHA}


def parse_label(token: str) -> QLabel:
    """Parse an ASCII label token such as ``a``, ``a+1``, ``s``, ``psi``, ``1``."""
    tok = token.strip().lower()
    if tok in _PARSE:
        return _PARSE[tok]
    if tok.startswith("a") and len(tok) > 1 and tok[1] in "+-":
        try:
            return alpha_label(int(tok[1:]))
        except ValueError:
            pass
    raise ValueError(f"cannot parse label token {token!r}")


def _label_list(text: str) -> tuple[QLabel, ...]:
    """The labels of a comma-separated list, () for a blank one; a blank token raises."""
    return tuple(map(parse_label, text.split(","))) if text.strip() else ()


def parse_leaves(text: str) -> tuple[QLabel, ...]:
    leaves = _label_list(text)
    if not leaves:
        raise ValueError(f"no leaves in {text!r}")
    return leaves


@dataclass(frozen=True)
class ModelParams:
    """Base parameter alpha and numerical tolerance.

    ``exact`` optionally records alpha as an exact rational; arbitrary-
    precision evaluations use it so that, e.g., phases that are exact roots
    of unity at rational alpha stay exact beyond double precision.
    """

    alpha: float
    tol: float = 1e-10
    exact: Fraction | None = None

    def __post_init__(self):
        # tol first: the integer-alpha test below reads it
        if not (0 < self.tol < 1):
            raise ValueError("tol must lie in (0, 1)")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if abs(self.alpha - round(self.alpha)) <= max(self.tol, 1e-12):
            raise IntegerAlpha(f"alpha = {self.alpha} is integer within tolerance")
        if self.exact is not None and float(self.exact) != self.alpha:
            raise ValueError("exact fraction does not match alpha")

    @property
    def definite_regime(self) -> bool:
        """True when alpha lies in (2, 3), where the computational metric is definite."""
        return 2.0 < self.alpha < 3.0

    @classmethod
    def from_string(cls, text: str, tol: float = 1e-10) -> "ModelParams":
        try:
            frac = Fraction(text.strip())
            alpha = float(frac)
        except (OverflowError, ZeroDivisionError):
            raise ValueError("alpha must be finite") from None
        return cls(alpha, tol, exact=frac)

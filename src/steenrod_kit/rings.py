"""Exact coefficient rings: the integers, prime fields, and the rationals.

Every computation in the package is exact; no floating point is used
anywhere.  Ring elements are plain Python values and a ``Ring`` instance
supplies the arithmetic, so chains can stay lightweight.  Integers and
prime-field elements are ``int``s; a rational is an ``int`` when it is whole
(``zero``, ``one``, ``coerce`` and ``inv`` return one whenever they can,
since int arithmetic is many times faster) and a ``fractions.Fraction`` only
when a division made it non-whole.  ``inv`` is the only division, and
``fractions`` (with ``decimal``) is imported only when ℚ divides by other
than ±1 or a non-int is coerced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from fractions import Fraction

Coefficient = Union[int, "Fraction"]

_INTEGERS = "Integers"
_PRIME_FIELD = "PrimeField"
_RATIONALS = "Rationals"


# Miller–Rabin on the witnesses 2 … 41 is exact below this bound (Sorenson and Webster)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller–Rabin, for 0 ≤ p < ``PRIME_BOUND``."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):  # a^(2^r d) for r < s: p − 1 for some r, or p is composite
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class Frozen:
    """Base of the immutable value types: fields named in ``__slots__``, set through ``_set``,
    returned by ``_fields``.  As for a frozen dataclass (whose import costs a short command more
    than its arithmetic), equal only within a class, hashed as the field tuple, not assignable.
    The hash is computed on first use and kept in the ``_hash`` slot."""

    __slots__ = ("_hash",)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", h := hash(self._fields()))
            return h

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._fields()))})"

    def __reduce__(self):  # copy and pickle through __init__, not through setattr
        return type(self), self._fields()


_set = object.__setattr__


class Ring(Frozen):
    """A coefficient domain: ℤ, 𝔽_p (p prime), or ℚ."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind not in (_INTEGERS, _PRIME_FIELD, _RATIONALS):
            raise ValueError(f"unknown ring kind: {kind!r}")
        if kind == _PRIME_FIELD:
            if p is not None and p >= PRIME_BOUND:
                raise ValueError(f"PrimeField characteristic must be below {PRIME_BOUND}, got {p}")
            if p is None or not _is_prime(p):
                raise ValueError(f"PrimeField characteristic must be prime, got {p!r}")
        elif p is not None:
            raise ValueError(f"{kind} takes no characteristic")
        _set(self, "kind", kind)
        _set(self, "p", p)

    def _fields(self) -> tuple:
        return (self.kind, self.p)

    # --- constructors -----------------------------------------------------
    @staticmethod
    def integers() -> "Ring":
        return Ring(_INTEGERS)

    @staticmethod
    def rationals() -> "Ring":
        return Ring(_RATIONALS)

    @staticmethod
    def prime_field(p: int) -> "Ring":
        return Ring(_PRIME_FIELD, p)

    @staticmethod
    def from_name(name: str) -> "Ring":
        """Parse a CLI-style ring name: ``z``, ``q``, or ``f<p>``."""
        name = name.strip().lower()
        if name == "z":
            return Ring.integers()
        if name == "q":
            return Ring.rationals()
        if name.startswith("f") and name[1:].isdigit():
            return Ring.prime_field(int(name[1:]))
        raise ValueError(f"unknown ring name: {name!r}")

    # --- predicates -------------------------------------------------------
    @property
    def is_field(self) -> bool:
        return self.kind != _INTEGERS

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == _PRIME_FIELD else 0

    # --- element arithmetic ----------------------------------------------
    zero = 0
    one = 1

    def coerce(self, value: Coefficient) -> Coefficient:
        """Map an integer (or Fraction, for ℚ) into this ring."""
        if type(value) is int:
            return value % self.p if self.kind == _PRIME_FIELD else value
        import fractions  # a module import: "from fractions import" costs each call several times more
        if self.kind == _INTEGERS:
            if isinstance(value, fractions.Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer")
                return int(value)
            return int(value)
        if self.kind == _RATIONALS:
            q = fractions.Fraction(value)
            return q.numerator if q.denominator == 1 else q
        if isinstance(value, fractions.Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
        return value % self.p

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        s = a + b
        return s % self.p if self.kind == _PRIME_FIELD else s

    def neg(self, a: Coefficient) -> Coefficient:
        return (-a) % self.p if self.kind == _PRIME_FIELD else -a

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        m = a * b
        return m % self.p if self.kind == _PRIME_FIELD else m

    def inv(self, a: Coefficient) -> Coefficient:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == _PRIME_FIELD:
            return pow(a, -1, self.p)
        if a == 1 or a == -1:
            return a
        if self.kind == _RATIONALS:
            import fractions
            return self.coerce(fractions.Fraction(1) / a)
        raise ZeroDivisionError(f"{a} is not a unit in the integers")

    def is_zero(self, a: Coefficient) -> bool:
        return (a % self.p == 0) if self.kind == _PRIME_FIELD else a == 0

    def __str__(self) -> str:
        if self.kind == _INTEGERS:
            return "Z"
        if self.kind == _RATIONALS:
            return "Q"
        return f"F{self.p}"


ZZ = Ring.integers()
QQ = Ring.rationals()
F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
F5 = Ring.prime_field(5)

"""Collected complex-linear superpositions over arbitrary hashable keys.

Amplitudes come in two numeric modes that share one interface:

* exact mode -- ``Fraction`` / ``int`` for real amplitudes, :class:`RC` for
  complex rationals.  Cancellation is exact, which the cancellation examples
  require.
* float mode -- Python ``complex`` / ``float``.

A superposition never stores an amplitude with ``|amp| <= EPS_ZERO``; keys are
whatever canonical objects the caller supplies (class keys from the topology
layer, opaque ket ids, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Iterable, Iterator, Tuple

EPS_ZERO = 1e-12
_EPS2 = EPS_ZERO * EPS_ZERO


@dataclass(frozen=True)
class RC:
    """Complex number with exact rational parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other):
        o = _as_rc(other)
        return RC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_rc(other)
        return RC(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return RC(-self.re, -self.im)

    def __mul__(self, other):
        o = _as_rc(other)
        return RC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


def rc(re, im=0) -> RC:
    return RC(Fraction(re), Fraction(im))


def _as_rc(z) -> RC:
    if isinstance(z, RC):
        return z
    if isinstance(z, (int, Fraction)):
        return RC(Fraction(z))
    raise TypeError(f"cannot mix exact amplitude with {type(z).__name__}")


def conj(z):
    """Complex conjugate for either numeric mode."""
    if isinstance(z, RC):
        return RC(z.re, -z.im)
    if isinstance(z, (int, float, Fraction)):
        return z
    return z.conjugate()


def abs2(z):
    """|z|^2, exact (Fraction) in exact mode, float otherwise."""
    if isinstance(z, RC):
        return z.re * z.re + z.im * z.im
    if isinstance(z, (int, Fraction)):
        return Fraction(z) * Fraction(z)
    if isinstance(z, float):
        return z * z
    return (z * z.conjugate()).real


def is_exact(z) -> bool:
    return isinstance(z, (int, Fraction, RC))


def amp_re_im(z) -> Tuple[float, float]:
    c = complex(z)
    return c.real, c.imag


class Superposition:
    """Collected linear combination ``sum_k amp_k * |key_k>``.

    Immutable after construction.  Equal keys are summed on construction and
    amplitudes of magnitude <= ``EPS_ZERO`` dropped, so the stored term map is
    already canonical, and the key order ``keys_by_str`` computes is kept.
    """

    __slots__ = ("_terms", "_by_str")

    def __init__(self, terms: Iterable[Tuple[Any, Any]] = ()):
        acc: Dict[Any, Any] = {}
        for amp, key in terms:
            if key in acc:
                acc[key] = acc[key] + amp
            else:
                acc[key] = amp
        self._terms = {k: a for k, a in acc.items() if not _negligible(a)}
        self._by_str = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def collect(raw: Iterable[Tuple[Any, Any]]) -> "Superposition":
        """Sum amplitudes of equal keys; drop entries with |amp| <= EPS_ZERO."""
        return Superposition(raw)

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self._terms.items())

    def keys(self):
        return self._terms.keys()

    def keys_by_str(self) -> Tuple[Any, ...]:
        """The keys sorted by ``str`` (ties in insertion order), computed on first use."""
        if self._by_str is None:
            self._by_str = tuple(sorted(self._terms, key=str))
        return self._by_str

    def amplitude(self, key):
        return self._terms.get(key, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, key) -> bool:
        return key in self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def norm2(self):
        """Sum of |amp|^2 over stored terms; exact when amplitudes are exact."""
        total = None
        for a in self._terms.values():
            q = abs2(a)
            total = q if total is None else total + q
        return Fraction(0) if total is None else total

    def __eq__(self, other) -> bool:
        if not isinstance(other, Superposition):
            return NotImplemented
        if self._terms.keys() != other._terms.keys():
            return False
        return all(_amp_eq(a, other._terms[k]) for k, a in self._terms.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {a}" for k, a in sorted(self._terms.items(), key=lambda t: repr(t[0])))
        return "Superposition({" + inner + "})"

    # -- algebra -----------------------------------------------------------

    def map_key(self, old_key, new_key) -> "Superposition":
        """Move one term onto a new key, collecting with any term already there."""
        if old_key not in self._terms:
            raise KeyError(old_key)
        moved = [(a, new_key if k == old_key else k) for k, a in self._terms.items()]
        return Superposition(moved)



def _negligible(a) -> bool:
    q = abs2(a)
    if isinstance(q, Fraction):
        return q == 0 or q <= Fraction(_EPS2)
    return q <= _EPS2


def _amp_eq(a, b) -> bool:
    if is_exact(a) and is_exact(b):
        ra, rb = _as_rc(a) if not isinstance(a, RC) else a, _as_rc(b) if not isinstance(b, RC) else b
        return ra.re == rb.re and ra.im == rb.im
    return complex(a) == complex(b)


def superposition_to_json(s: Superposition) -> dict:
    """JSON form: {"terms": [{"key": ..., "re": ..., "im": ...}, ...]}.

    Exact amplitudes additionally carry "re_exact"/"im_exact" strings.
    """
    out = []
    for key in s.keys_by_str():
        amp = s.amplitude(key)
        re, im = amp_re_im(amp)
        entry = {"key": str(key), "re": re, "im": im}
        if is_exact(amp):
            z = amp if isinstance(amp, RC) else RC(Fraction(amp))
            entry["re_exact"] = str(z.re)
            entry["im_exact"] = str(z.im)
        out.append(entry)
    return {"terms": out}

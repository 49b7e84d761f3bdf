"""Ciphertext and plaintext containers for the CKKS scheme."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .rns import EVAL, RnsPolynomial


@dataclass
class Plaintext:
    """An encoded plaintext polynomial with its scale and level."""

    poly: RnsPolynomial
    scale: float
    level: int

    @property
    def poly_modulus_degree(self) -> int:
        return self.poly.basis.poly_modulus_degree


def settled_coefficients(poly: RnsPolynomial) -> RnsPolynomial:
    """``poly`` in coefficient form over its data basis, for a reader that keeps nothing.

    An extended polynomial is transformed back whole and divided there
    (``K`` inverse rows), cheaper than dividing in evaluation form and then
    converting (``2L + k``) when the evaluation form is not wanted again.
    """
    poly = poly.to_coeff()
    return poly.divide_and_round_last(poly.basis.special) if poly.basis.special else poly


@dataclass
class Ciphertext:
    """A CKKS ciphertext: two or more polynomials plus scale and level.

    ``polys[i]`` is the coefficient of ``s^i`` in the decryption equation
    ``m + e = sum_i polys[i] * s^i (mod Q_level)``.

    Each polynomial carries its own form, and each may be *extended*: still
    over the key basis, in evaluation form, holding ``P`` times its value
    plus key-switch results whose division by ``P`` is owed.  ``relinearize``
    of an evaluation-form ciphertext leaves both polynomials so; ``rotate``
    leaves ``c0`` so, because ``c0`` is only ever permuted and added until
    something needs its value.  Both are facts about ``polys``, and they
    change only by rebinding ``polys`` to new polynomials that mean the same
    ciphertext (:meth:`settle`, :meth:`to_eval`) — never by editing a
    ``residues`` array — so threads sharing a handle each see a whole list.

    ``seed`` is set only on a *fresh* symmetric encryption: ``polys[1]`` is
    then the expansion of that 32-byte public seed (``Encryptor``), in
    whatever form it has been rebound to since, and the wire may carry the
    seed in its place.  Every operation builds a new ciphertext, which has
    none.
    """

    polys: List[RnsPolynomial] = field(default_factory=list)
    scale: float = 1.0
    level: int = 0
    seed: Optional[bytes] = None

    @property
    def size(self) -> int:
        """Number of polynomials (2 for fresh or relinearized ciphertexts)."""
        return len(self.polys)

    @property
    def basis(self):
        return self.polys[0].basis

    @property
    def extended(self) -> bool:
        """Whether any polynomial still lives over the key basis (see :meth:`settle`)."""
        return any(poly.basis.special for poly in self.polys)

    def settle(self, first: int = 0) -> List[RnsPolynomial]:
        """The polynomials, those from index ``first`` on over the data basis of ``level``.

        An extended polynomial pays its division by the special primes here,
        once: the result replaces ``polys``.  Linear operations and
        ``rescale_to_next`` read extended polynomials as they are, ``rotate``
        needs only ``c1`` settled (``first=1``); every other consumer starts
        with ``settle()``.
        """
        polys = self.polys
        if any(poly.basis.special for poly in polys[first:]):
            polys = self.polys = polys[:first] + [
                poly.divide_and_round_last(poly.basis.special) if poly.basis.special else poly
                for poly in polys[first:]
            ]
        return polys

    def to_eval(self) -> List[RnsPolynomial]:
        """The settled polynomials in evaluation form, kept for the next multiplication."""
        polys = self.settle()
        if any(poly.form != EVAL for poly in polys):
            polys = self.polys = [poly.to_eval() for poly in polys]
        return polys

    def to_coeff(self) -> List[RnsPolynomial]:
        """The settled polynomials in coefficient form (the wire's form); nothing is kept."""
        return [settled_coefficients(poly) for poly in self.polys]

    def copy(self) -> "Ciphertext":
        return Ciphertext([p.copy() for p in self.polys], self.scale, self.level)

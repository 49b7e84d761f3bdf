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


@dataclass
class Ciphertext:
    """A CKKS ciphertext: two or more polynomials plus scale and level.

    ``polys[i]`` is the coefficient of ``s^i`` in the decryption equation
    ``m + e = sum_i polys[i] * s^i (mod Q_level)``.

    Each polynomial carries its own form, and the evaluator leaves a
    relinearized evaluation-form ciphertext *extended*: still over the key
    basis, holding ``P`` times its value.  Both are facts about ``polys``, and
    they change only by rebinding ``polys`` to new polynomials that mean the
    same ciphertext (:meth:`settle`, :meth:`to_eval`) — never by editing a
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
        """Whether the polynomials still live over the key basis (see :meth:`settle`)."""
        return bool(self.polys) and self.polys[0].basis.special

    def settle(self) -> List[RnsPolynomial]:
        """The polynomials over the data basis of ``level``.

        An extended ciphertext pays its division by the special prime here,
        once: the result replaces ``polys``.  Only ``rescale_to_next`` reads
        an extended ciphertext without settling it (it divides by ``P`` and
        the next prime in one pass); every other consumer starts here.
        """
        polys = self.polys
        if polys and polys[0].basis.special:
            polys = self.polys = [poly.divide_and_round_last() for poly in polys]
        return polys

    def to_eval(self) -> List[RnsPolynomial]:
        """The settled polynomials in evaluation form, kept for the next multiplication."""
        polys = self.settle()
        if any(poly.form != EVAL for poly in polys):
            polys = self.polys = [poly.to_eval() for poly in polys]
        return polys

    def to_coeff(self) -> List[RnsPolynomial]:
        """The settled polynomials in coefficient form (the wire's form); nothing is kept."""
        return [poly.to_coeff() for poly in self.settle()]

    def copy(self) -> "Ciphertext":
        return Ciphertext([p.copy() for p in self.polys], self.scale, self.level)

"""CKKS encoding + encryption front door."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..errors import ParameterError
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .keys import PublicKey
from .rns import RnsBasis, RnsPolynomial
from .sampling import RlweSampler


class Encryptor:
    """Encodes vectors into plaintexts and encrypts them under a public key."""

    def __init__(
        self,
        context: CkksContext,
        public_key: PublicKey,
        seed: Optional[int] = None,
    ) -> None:
        self.context = context
        self.public_key = public_key
        self.sampler = RlweSampler(seed)

    # -- encoding ------------------------------------------------------------------
    def encode(
        self,
        values: Union[float, Sequence[float], np.ndarray],
        scale: float,
        level: int = 0,
    ) -> Plaintext:
        """Encode a vector (or scalar) at the given scale and level."""
        coefficients = self.context.encoder.encode(values, scale)
        basis = self.context.data_basis(level)
        poly = RnsPolynomial.from_int64_coefficients(basis, coefficients)
        return Plaintext(poly=poly, scale=float(scale), level=int(level))

    # -- encryption -----------------------------------------------------------------
    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Encrypt an encoded plaintext with the public key."""
        basis = self.context.data_basis(plaintext.level)
        if plaintext.poly.basis != basis:
            raise ParameterError("plaintext level does not match its polynomial basis")
        u = self.sampler.ternary(basis)
        e0 = self.sampler.error(basis)
        e1 = self.sampler.error(basis)
        # One forward (of u) and one inverse over both products: the key's
        # evaluation form is static.
        kernel = basis.kernel
        products = self._public_key_form(basis) * kernel.forward(u.residues[np.newaxis])
        b_u, a_u = kernel.inverse(products % basis.primes_column)
        c0 = RnsPolynomial(basis, b_u).add(e0).add(plaintext.poly)
        c1 = RnsPolynomial(basis, a_u).add(e1)
        return Ciphertext(polys=[c0, c1], scale=plaintext.scale, level=plaintext.level)

    def _public_key_form(self, basis: RnsBasis) -> np.ndarray:
        """``(2, K, N)`` evaluation form of ``(b, a)`` over ``basis``, cached on the key."""
        forms = self.public_key._evaluation_forms
        key = tuple(basis.primes)
        form = forms.get(key)
        if form is None:
            pair = (self.public_key.b, self.public_key.a)
            restricted = [self.context.restrict(poly, basis).residues for poly in pair]
            form = forms[key] = basis.kernel.forward(np.stack(restricted))
        return form

    def encode_and_encrypt(
        self,
        values: Union[float, Sequence[float], np.ndarray],
        scale: float,
        level: int = 0,
    ) -> Ciphertext:
        """Convenience: encode then encrypt."""
        return self.encrypt(self.encode(values, scale, level))

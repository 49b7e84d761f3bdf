"""CKKS decryption and decoding."""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .ciphertext import Ciphertext, settled_coefficients
from .context import CkksContext
from .keys import SecretKey
from .rns import COEFF, EVAL, RnsPolynomial


class Decryptor:
    """Decrypts ciphertexts with the secret key and decodes them to vectors."""

    def __init__(self, context: CkksContext, secret_key: SecretKey) -> None:
        self.context = context
        self.secret_key = secret_key

    def decrypt_poly(self, ciphertext: Ciphertext):
        """Return the raw plaintext polynomial ``sum_i c_i s^i`` (RNS, coefficient form)."""
        if ciphertext.size < 2:
            raise ExecutionError("ciphertext is transparent or malformed")
        c0, *tail = ciphertext.settle(first=1)
        if c0.basis.special:
            # Nothing reads c0 in evaluation form again: transform it back
            # whole and divide there, without rebinding the ciphertext.
            c0 = settled_coefficients(c0)
        basis = c0.basis
        # One forward over the c_1.. still in coefficient form, one inverse of
        # the summed products: the powers of s are static and cached in
        # evaluation form on the key.
        tail = np.stack([poly.to_eval().residues for poly in tail])
        powers = self.secret_key.evaluation_powers(basis, len(tail))
        products = tail * powers % basis.primes_column
        total = RnsPolynomial(basis, products.sum(axis=0) % basis.primes_column, EVAL)
        if c0.form == COEFF:
            total = total.to_coeff()
        return c0.add(total).to_coeff()

    def decrypt(self, ciphertext: Ciphertext) -> np.ndarray:
        """Decrypt and decode to a real-valued slot vector."""
        coefficients = self.decrypt_poly(ciphertext).to_float_coefficients()
        return self.context.encoder.decode_real(coefficients, ciphertext.scale)

"""CKKS decryption and decoding."""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .ciphertext import Ciphertext
from .context import CkksContext
from .keys import SecretKey
from .rns import RnsPolynomial


class Decryptor:
    """Decrypts ciphertexts with the secret key and decodes them to vectors."""

    def __init__(self, context: CkksContext, secret_key: SecretKey) -> None:
        self.context = context
        self.secret_key = secret_key

    def decrypt_poly(self, ciphertext: Ciphertext):
        """Return the raw plaintext polynomial ``sum_i c_i s^i`` (RNS form)."""
        if ciphertext.size < 2:
            raise ExecutionError("ciphertext is transparent or malformed")
        basis = ciphertext.basis
        kernel = basis.kernel
        # One forward over c_1.., one inverse of the summed products: the
        # powers of s are static and cached in evaluation form on the key.
        tail = kernel.forward(np.stack([poly.residues for poly in ciphertext.polys[1:]]))
        powers = self.secret_key.evaluation_powers(basis, ciphertext.size - 1)
        products = tail * powers % basis.primes_column
        total = products.sum(axis=0, keepdims=True) % basis.primes_column
        return ciphertext.polys[0].add(RnsPolynomial(basis, kernel.inverse(total)[0]))

    def decrypt(self, ciphertext: Ciphertext) -> np.ndarray:
        """Decrypt and decode to a real-valued slot vector."""
        message = self.decrypt_poly(ciphertext)
        coefficients = np.asarray(message.to_int_coefficients(), dtype=np.float64)
        return self.context.encoder.decode_real(coefficients, ciphertext.scale)

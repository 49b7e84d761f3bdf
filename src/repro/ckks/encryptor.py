"""CKKS encoding + encryption front door.

Two ways to encrypt, chosen by what the encryptor holds:

* **Symmetric**, when it holds the secret key (a client kit, a server-held-key
  session): ``c1 = a`` is the expansion of a fresh per-ciphertext seed and
  ``c0 = -a*s + e + m``.  One forward pass (of ``a``) and one inverse — ``2L``
  rows where the public-key path pays ``3L`` — a single error term instead of
  ``e0 + e*u + e1*s``, and a ``c1`` the wire can replace by its 32-byte seed
  (:attr:`Ciphertext.seed`).  A ciphertext's seed expands to *coefficients*
  (label ``cipher``): a fresh ``c1`` first meets a rotation's coefficient path
  or a multiplication's own transform, and an evaluation-form ``c1`` would
  make every addition convert its partner.
* **Public-key**, when it does not (an ``evaluation_context()``):
  ``(b*u + e0 + m, a*u + e1)`` as before.

No two ciphertexts share a seed — reuse would publish ``m - m' + e - e'`` —
so the seed source is advanced on every encryption, fixed test seed or not.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..errors import ParameterError
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .keys import PublicKey, SecretKey, evaluation_forms
from .rns import RnsBasis, RnsPolynomial
from .sampling import (
    CIPHERTEXT_SEEDS,
    ENCRYPTION_SECRETS,
    RlweSampler,
    SeedSource,
    expand_uniform,
)

#: Label of a fresh ciphertext's seeded ``c1``.
CIPHERTEXT_LABEL = "cipher"


def expand_ciphertext_seed(seed: bytes, basis: RnsBasis) -> RnsPolynomial:
    """The coefficient-form ``c1`` a ciphertext seed names over ``basis``."""
    rows = expand_uniform(seed, CIPHERTEXT_LABEL, basis.primes, basis.poly_modulus_degree)
    return RnsPolynomial(basis, rows)


class Encryptor:
    """Encodes vectors into plaintexts and encrypts them (see the module docstring)."""

    def __init__(
        self,
        context: CkksContext,
        public_key: PublicKey,
        secret_key: Optional[SecretKey] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.context = context
        self.public_key = public_key
        self.secret_key = secret_key
        self.sampler = RlweSampler(seed, ENCRYPTION_SECRETS)
        self.seeds = SeedSource(seed, CIPHERTEXT_SEEDS)

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
        """Encrypt an encoded plaintext: symmetrically when the secret key is here."""
        basis = self.context.data_basis(plaintext.level)
        if plaintext.poly.basis != basis:
            raise ParameterError("plaintext level does not match its polynomial basis")
        if self.secret_key is None:
            return self._encrypt_public(plaintext, basis)
        seed = self.seeds.next_seed()
        a = expand_ciphertext_seed(seed, basis)
        kernel = basis.kernel
        s_hat = self.secret_key.evaluation_powers(basis, 1)[0]
        a_times_s = kernel.inverse(kernel.forward(a.residues) * s_hat % basis.primes_column)
        c0 = self.sampler.error(basis).add(plaintext.poly).sub(RnsPolynomial(basis, a_times_s))
        return Ciphertext([c0, a], plaintext.scale, plaintext.level, seed=seed)

    def _encrypt_public(self, plaintext: Plaintext, basis: RnsBasis) -> Ciphertext:
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
        """``(2, K, N)`` evaluation form of ``(b, a)`` over ``basis``, cached on the key.

        Built once over the level-0 data basis; every other data basis is a
        prefix of it and the NTT is row-wise, so a level is a row selection.
        """
        key = self.public_key
        if key._evaluation_form is None:
            top = self.context.data_basis(0)
            key._evaluation_form = evaluation_forms(self.context, [key.b, key.a], top)
        return key._evaluation_form[:, : len(basis)]

    def encode_and_encrypt(
        self,
        values: Union[float, Sequence[float], np.ndarray],
        scale: float,
        level: int = 0,
    ) -> Ciphertext:
        """Convenience: encode then encrypt."""
        return self.encrypt(self.encode(values, scale, level))

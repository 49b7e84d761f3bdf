"""Key material and key generation for the RNS-CKKS scheme.

Key switching uses the "special prime" (hybrid) technique: switching keys are
generated modulo ``Q * P`` where ``P`` is the special prime, the decomposition
digits are the per-prime residues of the polynomial being switched, and the
final result is divided by ``P`` (with rounding), which keeps the switching
noise small relative to the scale.

The same :class:`KeySwitchingKey` structure backs relinearization keys (which
switch from ``s^2`` to ``s``) and Galois keys (which switch from ``s(X^g)`` to
``s``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ParameterError
from .context import CkksContext
from .rns import RnsBasis, RnsPolynomial
from .sampling import RlweSampler


def _evaluation_cache():
    """Per-basis cache of a static key's evaluation (NTT) form.

    Lives on the key object so it is dropped with the key; it is derived
    data in the kernel's private slot order and is never serialized.
    """
    return field(default_factory=dict, repr=False, compare=False)


@dataclass
class SecretKey:
    """Ternary secret key, stored as raw coefficients plus per-basis caches."""

    coefficients: np.ndarray
    _cache: Dict[Tuple[int, ...], RnsPolynomial] = field(default_factory=dict, repr=False)
    _evaluation_forms: Dict[Tuple[int, ...], np.ndarray] = _evaluation_cache()

    def poly_for(self, basis: RnsBasis) -> RnsPolynomial:
        """The secret key reduced into the given RNS basis (cached)."""
        key = tuple(basis.primes)
        poly = self._cache.get(key)
        if poly is None:
            poly = RnsPolynomial.from_int64_coefficients(basis, self.coefficients)
            self._cache[key] = poly
        return poly

    def evaluation_powers(self, basis: RnsBasis, count: int) -> np.ndarray:
        """Evaluation form of ``s, s^2, ..., s^count`` over ``basis`` as ``(count, K, N)``."""
        key = tuple(basis.primes)
        powers = self._evaluation_forms.get(key)
        if powers is None:
            powers = basis.kernel.forward(self.poly_for(basis).residues[np.newaxis])
        while len(powers) < count:
            higher = powers[-1:] * powers[:1] % basis.primes_column
            powers = np.concatenate([powers, higher])
        self._evaluation_forms[key] = powers
        return powers[:count]


@dataclass
class PublicKey:
    """RLWE public key ``(b, a) = (-(a*s + e), a)`` over the level-0 data basis."""

    b: RnsPolynomial
    a: RnsPolynomial
    #: ``(2, K, N)`` evaluation form of ``(b, a)`` per data basis (see ``Encryptor``).
    _evaluation_forms: Dict[Tuple[int, ...], np.ndarray] = _evaluation_cache()


@dataclass
class KeySwitchingKey:
    """Switching key from some key ``s'`` to the secret key ``s``.

    ``pairs[prime] = (b_j, a_j)`` over the level-0 key basis (data primes plus
    the special prime), one pair per consumable prime ``q_j``.
    """

    pairs: Dict[int, Tuple[RnsPolynomial, RnsPolynomial]]
    #: ``(2, L, K, N)`` evaluation form of the pairs per key basis (see ``Evaluator``).
    _evaluation_forms: Dict[Tuple[int, ...], np.ndarray] = _evaluation_cache()


@dataclass
class RelinearizationKey:
    """Key switching key from ``s^2`` to ``s``."""

    key: KeySwitchingKey


@dataclass
class GaloisKeys:
    """Key switching keys from ``s(X^g)`` to ``s``, one per Galois element."""

    keys: Dict[int, KeySwitchingKey] = field(default_factory=dict)

    def key_for(self, galois_element: int) -> KeySwitchingKey:
        key = self.keys.get(int(galois_element))
        if key is None:
            raise ParameterError(
                f"no Galois key was generated for element {galois_element}; "
                "regenerate keys with the required rotation steps"
            )
        return key


class KeyGenerator:
    """Generates secret, public, relinearization, and Galois keys."""

    def __init__(self, context: CkksContext, seed: Optional[int] = None) -> None:
        self.context = context
        self.sampler = RlweSampler(seed)
        self.secret_key = SecretKey(self.sampler.ternary_coefficients(context.poly_modulus_degree))

    # -- public key -----------------------------------------------------------------
    def create_public_key(self) -> PublicKey:
        basis = self.context.data_basis(0)
        a = self.sampler.uniform(basis)
        e = self.sampler.error(basis)
        (a_times_s,) = self._times_secret(basis, a.residues[np.newaxis])
        return PublicKey(b=a_times_s.add(e).negate(), a=a)

    def _times_secret(self, basis: RnsBasis, residues: np.ndarray) -> List[RnsPolynomial]:
        """``p * s`` for every polynomial of a ``(count, K, N)`` stack, in one kernel pass.

        Only the stack is transformed: ``s`` is static, so its evaluation form is cached.
        """
        s_hat = self.secret_key.evaluation_powers(basis, 1)
        product = basis.kernel.forward(residues) * s_hat % basis.primes_column
        return [RnsPolynomial(basis, rows) for rows in basis.kernel.inverse(product)]

    # -- key switching keys ------------------------------------------------------------
    def _create_keyswitch_key(self, target: RnsPolynomial) -> KeySwitchingKey:
        """Create a switching key from the key ``target`` (over the key basis) to ``s``."""
        context = self.context
        key_basis = context.key_basis(0)
        special = context.special_prime
        primes = context.consumable_primes
        samples = [
            (self.sampler.uniform(key_basis), self.sampler.error(key_basis)) for _ in primes
        ]
        masks = self._times_secret(key_basis, np.stack([a.residues for a, _ in samples]))
        pairs: Dict[int, Tuple[RnsPolynomial, RnsPolynomial]] = {}
        prime_rows = {prime: i for i, prime in enumerate(key_basis.primes)}
        for q_j, (a_j, e_j), a_j_times_s in zip(primes, samples, masks):
            w = RnsPolynomial.zero(key_basis)
            row = prime_rows[q_j]
            w.residues[row] = (target.residues[row] * (special % q_j)) % q_j
            pairs[q_j] = (w.sub(a_j_times_s).sub(e_j), a_j)
        return KeySwitchingKey(pairs)

    def create_relin_key(self) -> RelinearizationKey:
        """Relinearization key: switches ``s^2`` back to ``s``."""
        key_basis = self.context.key_basis(0)
        s = self.secret_key.poly_for(key_basis)
        s_squared = s.multiply(s)
        return RelinearizationKey(self._create_keyswitch_key(s_squared))

    def create_galois_keys(self, rotation_steps: Iterable[int]) -> GaloisKeys:
        """Galois keys for the given left-rotation step counts."""
        keys = GaloisKeys()
        key_basis = self.context.key_basis(0)
        s = self.secret_key.poly_for(key_basis)
        for step in sorted({int(s_) % self.context.slots for s_ in rotation_steps}):
            if step == 0:
                continue
            element = self.context.galois_element_for_step(step)
            rotated_s = s.automorphism(element)
            keys.keys[element] = self._create_keyswitch_key(rotated_s)
        return keys

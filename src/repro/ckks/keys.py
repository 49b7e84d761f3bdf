"""Key material and key generation for the RNS-CKKS scheme.

Key switching uses the "special prime" (hybrid) technique: switching keys are
generated modulo ``Q * P`` where ``P`` is the special prime, the decomposition
digits are the per-prime residues of the polynomial being switched, and the
final result is divided by ``P`` (with rounding), which keeps the switching
noise small relative to the scale.

The same :class:`KeySwitchingKey` structure backs relinearization keys (which
switch from ``s^2`` to ``s``) and Galois keys (which switch from ``s(X^g)`` to
``s``).

Seeded halves
-------------
Every key here is a pair ``(b, a)`` whose ``a`` is uniformly random and
public, and whose only consumers multiply it pointwise in evaluation form.
So ``a`` is not stored, shipped or transformed: it is a
:class:`SeededUniform` — the 32-byte seed of the key set plus a label —
whose expansion (:func:`repro.ckks.sampling.expand_uniform`) *is* its
evaluation form.  The ``N`` expanded values of the row for prime ``q_k`` are
the evaluations in natural slot order, ``i -> a(psi_k^(2i+1))`` with ``psi_k =
find_primitive_root(2N, q_k)``; :meth:`SeededUniform.evaluations` maps that to
the NTT kernel's private order, so the kernel stays free to change its layout.
Key generation computes ``b = w - INTT(a_hat * s_hat) - e`` with one inverse
pass and no forward pass; an importer fills the ``a`` half of the form it
multiplies by straight from the seed and forward-transforms only ``b``
(:func:`evaluation_forms`).  Labels separate every polynomial under one
key-set seed: ``public``, ``relin/<j>`` and ``galois/<element>/<j>``, ``j``
the digit's index in the chain's consumption order (and the prime of each row
is part of the expander's input).

A key set written by a build before seeds carries ``a`` in coefficient form;
such an ``a`` stays an :class:`RnsPolynomial` and is transformed on first use,
as both halves used to be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ParameterError
from .context import CkksContext
from .ntt import bit_reverse_indices
from .rns import EVAL, RnsBasis, RnsPolynomial
from .sampling import KEY_SEEDS, RlweSampler, SeedSource, expand_uniform


@dataclass(frozen=True)
class SeededUniform:
    """A public uniform polynomial, named by the seed and label it expands from."""

    seed: bytes
    label: str

    def evaluations(self, basis: RnsBasis) -> np.ndarray:
        """The ``(K, N)`` evaluation form over ``basis``, in the kernel's slot order."""
        degree = basis.poly_modulus_degree
        natural = expand_uniform(self.seed, self.label, basis.primes, degree)
        return natural[:, bit_reverse_indices(degree)]

    def coefficients(self, basis: RnsBasis) -> RnsPolynomial:
        """Written out in coefficient form (what builds before seeds exchange)."""
        return RnsPolynomial(basis, self.evaluations(basis), EVAL).to_coeff()


#: The uniform half of a key: named by its seed, or written out by an older build.
UniformHalf = Union[SeededUniform, RnsPolynomial]

#: Label families under a key-set seed.  A switching key's digit ``j`` (the
#: index of its prime in the chain's consumption order) is ``<family>/<j>``.
PUBLIC_LABEL = "public"
RELIN_LABEL = "relin"


def galois_label(galois_element: int) -> str:
    return f"galois/{int(galois_element)}"


def digit_label(family: str, index: int) -> str:
    return f"{family}/{int(index)}"


def evaluation_forms(
    context: CkksContext, polys: Sequence[UniformHalf], basis: RnsBasis
) -> np.ndarray:
    """``(len(polys), K, N)`` evaluation forms of key polynomials over ``basis``.

    The written-out ones are restricted to ``basis`` and transformed in one
    kernel pass; the seeded ones are expanded for its primes and cost no row.
    """
    forms = np.empty((len(polys), len(basis), basis.poly_modulus_degree), dtype=np.int64)
    written = [i for i, poly in enumerate(polys) if isinstance(poly, RnsPolynomial)]
    if written:
        stack = np.stack([context.restrict(polys[i], basis).residues for i in written])
        forms[written] = basis.kernel.forward(stack)
    for i, poly in enumerate(polys):
        if isinstance(poly, SeededUniform):
            forms[i] = poly.evaluations(basis)
    return forms


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
    a: UniformHalf
    #: ``(2, L, N)`` evaluation form of ``(b, a)`` over that basis (see ``Encryptor``).
    _evaluation_form: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


@dataclass
class KeySwitchingKey:
    """Switching key from some key ``s'`` to the secret key ``s``.

    ``pairs[prime] = (b_j, a_j)`` over the level-0 key basis (data primes plus
    the special prime), one pair per consumable prime ``q_j``; ``b_j`` is in
    coefficient form (the wire's), ``a_j`` is its :data:`UniformHalf`.
    """

    pairs: Dict[int, Tuple[RnsPolynomial, UniformHalf]]
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
    """Generates secret, public, relinearization, and Galois keys.

    One key-set seed names the uniform half of every key generated here; the
    secret key and the errors come from the secret sampler.
    """

    def __init__(self, context: CkksContext, seed: Optional[int] = None) -> None:
        self.context = context
        self.sampler = RlweSampler(seed)
        self.seed = SeedSource(seed, KEY_SEEDS).next_seed()
        self.secret_key = SecretKey(self.sampler.ternary_coefficients(context.poly_modulus_degree))

    def _masks(self, basis: RnsBasis, uniforms: Sequence[SeededUniform]) -> np.ndarray:
        """``a * s`` in coefficient form for every ``a``, as ``(count, K, N)``: one inverse pass.

        Neither factor is transformed: each ``a`` is born in evaluation form
        and the evaluation form of the static ``s`` is cached on the key.
        """
        a_hat = np.stack([uniform.evaluations(basis) for uniform in uniforms])
        s_hat = self.secret_key.evaluation_powers(basis, 1)
        return basis.kernel.inverse(a_hat * s_hat % basis.primes_column)

    # -- public key -----------------------------------------------------------------
    def create_public_key(self) -> PublicKey:
        basis = self.context.data_basis(0)
        a = SeededUniform(self.seed, PUBLIC_LABEL)
        (a_times_s,) = self._masks(basis, [a])
        e = self.sampler.error(basis)
        return PublicKey(b=RnsPolynomial(basis, a_times_s).add(e).negate(), a=a)

    # -- key switching keys ------------------------------------------------------------
    def _create_keyswitch_key(self, target: RnsPolynomial, family: str) -> KeySwitchingKey:
        """Create a switching key from the key ``target`` (over the key basis) to ``s``."""
        context = self.context
        key_basis = context.key_basis(0)
        special = context.special_prime
        primes = context.consumable_primes
        uniforms = [SeededUniform(self.seed, digit_label(family, j)) for j in range(len(primes))]
        masks = self._masks(key_basis, uniforms)
        pairs: Dict[int, Tuple[RnsPolynomial, UniformHalf]] = {}
        prime_rows = {prime: i for i, prime in enumerate(key_basis.primes)}
        for q_j, a_j, a_j_times_s in zip(primes, uniforms, masks):
            w = RnsPolynomial.zero(key_basis)
            row = prime_rows[q_j]
            w.residues[row] = (target.residues[row] * (special % q_j)) % q_j
            e_j = self.sampler.error(key_basis)
            pairs[q_j] = (w.sub(RnsPolynomial(key_basis, a_j_times_s)).sub(e_j), a_j)
        return KeySwitchingKey(pairs)

    def create_relin_key(self) -> RelinearizationKey:
        """Relinearization key: switches ``s^2`` back to ``s``."""
        key_basis = self.context.key_basis(0)
        s_squared_hat = self.secret_key.evaluation_powers(key_basis, 2)[1]
        s_squared = RnsPolynomial(key_basis, s_squared_hat, EVAL).to_coeff()
        return RelinearizationKey(self._create_keyswitch_key(s_squared, RELIN_LABEL))

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
            keys.keys[element] = self._create_keyswitch_key(rotated_s, galois_label(element))
        return keys

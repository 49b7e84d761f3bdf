"""Key material and key generation for the RNS-CKKS scheme.

Key switching uses the hybrid (grouped-digit) technique: switching keys are
generated modulo ``Q * P`` where ``P`` is the product of the context's special
primes, the decomposition digits are the residues of the polynomial being
switched modulo each group of data primes (:meth:`CkksContext.digit_groups`),
and the final result is divided by ``P`` (with rounding), which keeps the
switching noise small relative to the scale.  The key of group ``g`` encrypts
``P * E_g * s'``, ``E_g`` being 1 modulo the group's primes and 0 modulo
every other prime, so one key serves every level: a level reads its rows.

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
the index in the chain's consumption order of the prime that names the
digit's group — its first data prime in basis order (and the prime of each
row is part of the expander's input).

A key set written by a build before seeds carries ``a`` in coefficient form;
such an ``a`` is forward-transformed with ``b`` when the key is imported, and
exported again as it came.  A seeded ``a`` is only ever exported as its seed:
nothing here writes it out.
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


#: The uniform half of a key: named by its seed, or written out by an older build.
UniformHalf = Union[SeededUniform, RnsPolynomial]

#: Label families under a key-set seed.  A switching key's digit ``j`` (the
#: index in the chain's consumption order of the prime naming its group) is
#: ``<family>/<j>``.
PUBLIC_LABEL = "public"
RELIN_LABEL = "relin"


def galois_label(galois_element: int) -> str:
    return f"galois/{int(galois_element)}"


def digit_label(family: str, index: int) -> str:
    return f"{family}/{int(index)}"


def evaluation_forms(polys: Sequence[UniformHalf], basis: RnsBasis) -> np.ndarray:
    """``(len(polys), K, N)`` evaluation forms of key polynomials over ``basis``.

    The written-out ones, which live over ``basis``, are transformed in one
    kernel pass; the seeded ones are expanded for its primes and cost no row.
    """
    forms = np.empty((len(polys), len(basis), basis.poly_modulus_degree), dtype=np.int64)
    written = [i for i, poly in enumerate(polys) if isinstance(poly, RnsPolynomial)]
    if any(polys[i].basis != basis for i in written):
        raise ParameterError("a key polynomial is not over the basis of its evaluation form")
    if written:
        stack = np.stack([polys[i].to_coeff().residues for i in written])
        forms[written] = basis.kernel.forward(stack)
    for i, poly in enumerate(polys):
        if isinstance(poly, SeededUniform):
            forms[i] = poly.evaluations(basis)
    return forms


@dataclass
class SecretKey:
    """Ternary secret key, stored as raw coefficients plus per-basis caches."""

    coefficients: np.ndarray
    _cache: Dict[Tuple[int, ...], RnsPolynomial] = field(default_factory=dict, repr=False)
    #: Per-basis evaluation forms of ``s`` and its powers (derived, never serialized).
    _evaluation_forms: Dict[Tuple[int, ...], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

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

    The key switch reads one array, :meth:`evaluation_form`: ``(2, d, L+k, N)``
    ``uint32`` over the level-0 key basis, ``[0, g]`` holding ``b_g`` and
    ``[1, g]`` holding ``a_g`` in evaluation form for digit group ``g`` in
    basis order (residues are below 2^31).  Every other level reads its rows
    of it: the NTT is row-wise and a level's digits and key primes are subsets
    of level 0's.

    ``pairs[prime] = (b_g, a_g)`` — keyed by the prime naming the group
    (:meth:`CkksContext.group_primes`), ``b_g`` in coefficient form (the
    wire's), ``a_g`` its :data:`UniformHalf` — is what a key generator made;
    it keeps them for export and builds the form on first use.  An imported
    key (:meth:`imported`) is the form alone, plus its seeded ``a_g``: the key
    held once, ``2*d*(L+k)*N*4`` bytes, its export rebuilt from the form.
    """

    pairs: Dict[int, Tuple[RnsPolynomial, UniformHalf]]
    form: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: An imported key's seeded ``a_g`` by prime: the ``a`` half of its export.
    seeds: Dict[int, SeededUniform] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def imported(
        cls, context: CkksContext, pairs: Dict[int, Tuple[RnsPolynomial, UniformHalf]]
    ) -> "KeySwitchingKey":
        """A received key, prepared: its evaluation form built now, its pairs dropped."""
        form = cls(pairs).evaluation_form(context)
        seeds = {prime: a for prime, (_, a) in pairs.items() if isinstance(a, SeededUniform)}
        return cls({}, form, seeds)

    def evaluation_form(self, context: CkksContext) -> np.ndarray:
        """The ``(2, d, L+k, N)`` form, built on first use: every ``b_g``
        forward-transformed in one pass, every seeded ``a_g`` expanded into it."""
        if self.form is None:
            names = context.group_primes()
            missing = [q_g for q_g in names if q_g not in self.pairs]
            if missing:
                raise ParameterError(f"switching key is missing the digit for prime {missing[0]}")
            halves = zip(*(self.pairs[q_g] for q_g in names))
            polys = [poly for half in halves for poly in half]  # every b_g, then every a_g
            form = evaluation_forms(polys, context.key_basis(0))
            self.form = form.reshape(2, len(names), *form.shape[1:]).astype(np.uint32)
        return self.form

    def exported_pairs(self, context: CkksContext) -> Dict[int, Tuple[RnsPolynomial, UniformHalf]]:
        """``pairs``; for an imported key, rebuilt from the form by one inverse pass."""
        if self.pairs:
            return self.pairs
        key_basis = context.key_basis(0)
        b, a = (key_basis.kernel.inverse(half.astype(np.int64)) for half in self.form)
        return {
            q_g: (RnsPolynomial(key_basis, b[g]), self.seeds.get(q_g) or RnsPolynomial(key_basis, a[g]))
            for g, q_g in enumerate(context.group_primes())
        }


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
        multiplier = key_basis.special_multiplier()
        # Groups by the prime naming them, generated in consumption order.
        groups = dict(zip(context.group_primes(), context.digit_groups(0)))
        names = list(groups)[::-1]
        uniforms = [
            SeededUniform(self.seed, digit_label(family, context.consumable_primes.index(q_g)))
            for q_g in names
        ]
        masks = self._masks(key_basis, uniforms)
        pairs: Dict[int, Tuple[RnsPolynomial, UniformHalf]] = {}
        for q_g, a_g, a_g_times_s in zip(names, uniforms, masks):
            w = RnsPolynomial.zero(key_basis)
            rows = groups[q_g]
            w.residues[rows] = target.residues[rows] * multiplier[rows] % key_basis.primes_column[rows]
            e_g = self.sampler.error(key_basis)
            pairs[q_g] = (w.sub(RnsPolynomial(key_basis, a_g_times_s)).sub(e_g), a_g)
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

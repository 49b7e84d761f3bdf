"""The record shapes builds before seeds and bit-packing wrote, kept as test oracles.

Every writer now sends a uniform polynomial as its seed and every residue
matrix at its primes' bit widths; every reader still accepts what earlier
builds wrote in their place.  These helpers make those earlier shapes from
the new ones, so tests (and ``benchmarks/bench_ckks_kernels.py``) can hold
the readers to them:

* :func:`written_out` — a seeded uniform polynomial in coefficient form: one
  inverse transform of its expansion, which *is* its evaluation form.  This
  is ``SeededUniform.coefficients`` as it shipped in ``repro.ckks.keys``, and
  what the key-switch oracle multiplies by.
* :func:`write_out_seeds` — an exported key set with every seed record
  replaced by that polynomial, packed as a residue record.
* :func:`in_words` — a message tree with every bit-packed record rewritten
  as the ``u4`` words builds before bit-packing wrote.

A fresh ciphertext's ``c1`` needs no helper: a copy of the handle carries no
seed (``Ciphertext.copy``), so it exports written out.
"""

from __future__ import annotations

from typing import Any

from repro.ckks.keys import SeededUniform
from repro.ckks.rns import EVAL, RnsBasis, RnsPolynomial
from repro.core.serialization.packing import pack_residues, unpack_residues


def written_out(uniform: SeededUniform, basis: RnsBasis) -> RnsPolynomial:
    """``uniform`` over ``basis`` in coefficient form (one inverse transform)."""
    return RnsPolynomial(basis, uniform.evaluations(basis), EVAL).to_coeff()


def write_out_seeds(client: Any, keys: dict) -> dict:
    """``keys``, the export of the key-generating backend context ``client``,
    with the ``a`` half of every key written out in coefficient form."""
    context, evaluator = client.context, client.evaluator

    def rows(uniform, basis):
        return pack_residues(written_out(uniform, basis).residues, basis.primes)

    keys["public_key"][1] = rows(client.encryptor.public_key.a, context.data_basis(0))
    tables = [(keys["relin_key"], evaluator.relin_key.key)] if "relin_key" in keys else []
    if "galois_keys" in keys:
        tables += [(keys["galois_keys"][str(e)], key) for e, key in evaluator.galois_keys.keys.items()]
    for table, key in tables:
        for prime, (_, a) in key.pairs.items():
            table[str(prime)][1] = rows(a, context.key_basis(0))
    return keys


def in_words(node: Any) -> Any:
    """A copy of ``node`` with every bit-packed record as ``u4`` words."""
    if isinstance(node, dict):
        if node.get("dtype") == "bits":
            return pack_residues(unpack_residues(node))
        return {key: in_words(value) for key, value in node.items()}
    if isinstance(node, list):
        return [in_words(item) for item in node]
    return node

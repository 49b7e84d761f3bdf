"""Analytical cost model for RNS-CKKS operations.

The paper's latency results were measured on SEAL running on a 56-core Xeon;
this reproduction replaces the hardware with a calibrated analytical model so
the *relative* behaviour (which policy wins, how the advantage scales with
network depth, how the DAG parallelises) is preserved.

The model follows the asymptotic costs of the RNS-CKKS primitives: every
primitive touches all ``L`` remaining RNS components of ``N`` coefficients,
NTTs cost ``N log N`` per component, and key-switching operations
(relinearization, rotation) additionally pay a quadratic factor in ``L`` for
the decomposition products.  The constants were chosen so that a LeNet-scale
program lands in the seconds range on the paper's reference machine, which
makes the reproduced tables easy to compare side by side with the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.types import ValueType

#: Seconds per (coefficient * RNS component) of simple modular arithmetic.
_BASE_SECONDS = 2.0e-9


@dataclass
class CostModel:
    """Per-operation latency model parameterized by N and the remaining level count."""

    base_seconds: float = _BASE_SECONDS
    #: Relative weight of each operation class.
    weights: Dict[str, float] = field(
        default_factory=lambda: {
            "add": 0.4,
            "negate": 0.25,
            "multiply": 3.0,
            "multiply_plain": 1.6,
            "relinearize": 0.0,  # keyswitch term dominates; see keyswitch_weight
            "rotate": 0.0,
            "mod_switch": 0.4,
            "rescale": 1.2,
            "encode": 1.0,
            "encrypt": 2.5,
            "decrypt": 1.0,
        }
    )
    #: Weight of the key-switching inner product, multiplied by L (quadratic in L overall).
    keyswitch_weight: float = 1.5
    #: Seconds per byte of Galois key material generated and shipped at
    #: session setup (keygen + serialization + upload, ~80 MB/s end to end —
    #: calibrated against the PR 7 streaming-key-upload measurements).
    key_seconds_per_byte: float = 1.25e-8
    #: Amortization horizon: evaluations one session is expected to serve.
    #: Key costs are paid once per session, rotations on every evaluation.
    session_evaluations: float = 64.0

    def op_seconds(self, kind: str, poly_degree: int, remaining_levels: int) -> float:
        """Latency (seconds) of one primitive of class ``kind``.

        ``remaining_levels`` is the number of RNS components still present in
        the operand ciphertexts (the paper's ``r`` minus the consumed levels).
        """
        levels = max(int(remaining_levels), 1)
        n = max(int(poly_degree), 2)
        log_n = max(n.bit_length() - 1, 1)
        unit = self.base_seconds * n * levels
        weight = self.weights.get(kind, 1.0)
        cost = weight * unit * log_n / 14.0
        if kind in ("relinearize", "rotate"):
            cost += self.keyswitch_weight * unit * levels * log_n / 14.0
        return cost

    def galois_key_bytes(self, poly_degree: int, levels: int) -> int:
        """Modeled wire size of *one* Galois key at ``(N, L)``.

        A key-switching key holds one pair of RNS polynomials per
        decomposition component: ``L`` components x 2 polynomials x ``L + 1``
        primes x ``N`` coefficients x 8 bytes.  The estimate is deterministic
        in the parameters, so telemetry and benchmarks report the same number
        on the mock and real backends.
        """
        levels = max(int(levels), 1)
        n = max(int(poly_degree), 2)
        return 2 * levels * (levels + 1) * n * 8

    def rotation_plan_seconds(
        self,
        key_count: int,
        extra_rotations: int,
        poly_degree: int,
        remaining_levels: int,
    ) -> float:
        """Amortized per-session cost of a rotation-key plan.

        ``key_count`` Galois keys are generated and uploaded once per session;
        ``extra_rotations`` (giant steps not already computed directly) are
        paid on each of the session's ``session_evaluations`` evaluations.
        The BSGS planner minimizes this sum.
        """
        key_seconds = (
            key_count
            * self.galois_key_bytes(poly_degree, remaining_levels)
            * self.key_seconds_per_byte
        )
        run_seconds = (
            extra_rotations
            * self.op_seconds("rotate", poly_degree, remaining_levels)
            * self.session_evaluations
        )
        return key_seconds + run_seconds

    def program_seconds(self, program, poly_degree: int, remaining_levels: int) -> float:
        """Modeled evaluation latency of a compiled program graph.

        Uses a flat level count for every term (pessimistic for late, cheap
        levels) — the number is meant for *relative* comparisons, e.g. the
        deadline admission's execute estimate before a program has run.
        """
        total = 0.0
        for term in program.terms():
            if term.is_root:
                continue
            cipher_operands = sum(
                1 for arg in term.args if arg.value_type is ValueType.CIPHER
            )
            kind = term.instruction.cost_kind(cipher_operands)
            total += self.op_seconds(kind, poly_degree, remaining_levels)
        return total


#: Shared default instance used by the scheduler and the benchmarks.
DEFAULT_COST_MODEL = CostModel()

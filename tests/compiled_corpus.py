"""The pinned compiled-program corpus: what the compiler makes of a fixed set of programs.

``python tests/compiled_corpus.py`` prints, for every program of ``CASES``, the
SHA-256 and length of the compiled graph's proto bytes, the selected
parameters, the rotation steps and the signature, as JSON.
``tests/data/compiled_corpus.json`` is that output with RESCALE and
RELINEARIZE summed before (``sink_below_sums`` at the end of the match-scale
and relinearize passes).  It was first captured at the commit before the
instruction table (``repro.core.instructions``); the sinking changed the proto
bytes of every case but ``sums_copies_and_constants`` and left their
parameters, rotation steps and signatures as they were.  Since the compiler
chooses the special prime's width (never below 30 bits) and gives an output
factor at least 20 bits, ``poly_relin`` and ``sums_copies_and_constants`` —
the two cases at ``max_rescale_bits=25`` — end their chains in 30 where they
ended in 25, and the latter's output factor is 20 bits where it was 15 (the
backend ran 65537, a 17-bit prime, for it); signatures did not move.  The
proto extension field ``Instruction.kernel`` then lengthened the proto bytes
of the two LeNet cases, the only ones whose instructions carry kernel labels;
their parameters and signatures did not move.  Grouped key switching then
moved the ``parameters`` of every case whose program switches a key and whose
``N`` has room: their chains end in the special primes of the digit groups
(``special_primes`` and ``group_size`` are written when either is not 1), and
proto bytes, rotation steps and signatures did not move.  The signature then
became the SHA-256 of the source's proto bytes plus options and scales (it
hashed the source's JSON nodes before), which moved every ``signature`` and
nothing else.
``tests/test_instructions.py`` holds the current compiler to it byte for byte.
Regenerate it only from a clone of the commit you compare against::

    cd tests && PYTHONPATH=<clone>/src python compiled_corpus.py > data/compiled_corpus.json
"""

import hashlib
import json

import numpy as np

from repro.apps import build_harris_program, build_sobel_program
from repro.core import CompilerOptions, Program
from repro.core.compiler import CompilationResult
from repro.core.serialization import serialize
from repro.core.types import Op, ValueType
from repro.frontend import EvaProgram, input_encrypted, output
from repro.nn import DnnCompiler, ScaleConfig, build_lenet_small


def relinearized_polynomial():
    program = EvaProgram("poly_relin", vec_size=32, default_scale=25)
    with program:
        x = input_encrypted("x", 25)
        y = input_encrypted("y", 25)
        output("z", x * x * y + x * y * 0.5 - 1.0, 25)
    return program.graph


def sums_copies_and_constants():
    """SUM and COPY on a ciphertext, and constant subgraphs that fold."""
    program = Program("lowered", vec_size=16)
    x = program.input("x", ValueType.CIPHER, scale=25)
    period = program.constant(np.array([1.0, 2.0]), scale=20)
    wide = program.constant(np.arange(1.0, 5.0), scale=20)
    folded = program.make_term(
        Op.MULTIPLY,
        [
            program.make_term(Op.SUM, [period]),
            program.make_term(Op.ROTATE_RIGHT, [program.make_term(Op.NEGATE, [wide])], rotation=3),
        ],
    )
    copied = program.make_term(Op.COPY, [x])
    summed = program.make_term(Op.SUM, [program.make_term(Op.MULTIPLY, [copied, folded])])
    program.set_output("out", program.make_term(Op.ADD, [summed, program.make_term(Op.SUB, [x, wide])]), 25)
    return program


def lenet(policy):
    return DnnCompiler(ScaleConfig(cipher=25, vector=15, scalar=10, output=30)).build_program(
        build_lenet_small()
    ), CompilerOptions(policy=policy)


#: name -> () -> (program, options)
CASES = {
    "sobel": lambda: (build_sobel_program(image_size=8), CompilerOptions()),
    "sobel_lanes": lambda: (build_sobel_program(image_size=8), CompilerOptions(lane_width=8)),
    "harris": lambda: (build_harris_program(image_size=8), CompilerOptions()),
    "harris_lanes": lambda: (build_harris_program(image_size=8), CompilerOptions(lane_width=8)),
    "lenet5_small_eva": lambda: lenet("eva"),
    "lenet5_small_chet": lambda: lenet("chet"),
    "poly_relin": lambda: (relinearized_polynomial(), CompilerOptions(max_rescale_bits=25)),
    "sums_copies_and_constants": lambda: (sums_copies_and_constants(), CompilerOptions(max_rescale_bits=25)),
}


def compiled_corpus():
    """One entry per case: what the compiler produced, in comparable form."""
    corpus = {}
    for name, case in CASES.items():
        program, options = case()
        compiled = CompilationResult.compile(program, options=options)
        proto = serialize(compiled.program)
        corpus[name] = {
            "proto_sha256": hashlib.sha256(proto).hexdigest(),
            "proto_bytes": len(proto),
            "parameters": {
                "poly_modulus_degree": compiled.parameters.poly_modulus_degree,
                "coeff_modulus_bits": list(compiled.parameters.coeff_modulus_bits),
                "security_level": compiled.parameters.security_level,
                "rotation_steps": list(compiled.parameters.rotation_steps),
            },
            "rotation_steps": list(compiled.rotation_steps),
            "signature": compiled.signature,
        }
        shape = (compiled.parameters.special_primes, compiled.parameters.group_size)
        if shape != (1, 1):
            corpus[name]["parameters"].update(special_primes=shape[0], group_size=shape[1])
    return corpus


if __name__ == "__main__":
    print(json.dumps(compiled_corpus(), indent=1))

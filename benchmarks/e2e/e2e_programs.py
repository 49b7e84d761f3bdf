"""Source programs, seeded inputs and independent references for the e2e harness.

Nothing here is shared with ``benchmarks/*.py``: the network scale table is a
copy of the one in ``benchmarks/conftest.py`` so the harness stays
self-contained.  Every reference below is plain NumPy written against the
*source* semantics of a workload (or ``execute_reference`` /
``Network.forward`` on the source program), never the compiler's output.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.api import CompilerOptions, EvaProgram, input_encrypted, output

#: Scale (bits) and prime-size cap shared by the four served programs.  The
#: pure-Python CKKS backend supports primes of at most 30 bits, so the server
#: is started with ``--max-rescale-bits 25`` and clients compile alike.
SCALE_BITS = 25
MAX_RESCALE_BITS = 25.0

ROTATE_SUM_SLOTS = 1024
RELIN_POLY_SLOTS = 2048
BATCH_POLY_SLOTS = 64
#: Values per ``batch_pairs`` request; 4 such requests fit the 64 slots.
BATCH_POLY_WIDTH = 16

#: Decrypted-output tolerance against the plaintext reference on real CKKS.
ATOL_CKKS = 0.05
#: Tolerance for the mock backend when it only serves as the compile zoo's
#: checker (its simulated noise stays below 2e-4 on every zoo program).
ATOL_MOCK_CHECK = 5e-3


def serving_options() -> CompilerOptions:
    """The options both sides compile with, so program signatures agree."""
    return CompilerOptions(
        policy="eva", max_rescale_bits=MAX_RESCALE_BITS, security_level=128
    )


# -- served programs ------------------------------------------------------------
def build_rotate_sum() -> EvaProgram:
    """Log-tree slot sum: 10 rotations + 10 adds, no ciphertext multiply."""
    program = EvaProgram("rotate_sum", vec_size=ROTATE_SUM_SLOTS, default_scale=SCALE_BITS)
    with program:
        acc = input_encrypted("x", SCALE_BITS)
        step = 1
        while step < ROTATE_SUM_SLOTS:
            acc = acc + (acc << step)
            step *= 2
        output("y", acc, SCALE_BITS)
    return program


def reference_rotate_sum(x: np.ndarray) -> np.ndarray:
    return np.full(len(x), float(np.sum(x)))


def build_relin_poly() -> EvaProgram:
    """``x^4 + x^3 + x^2 + x`` with three multiplies and no rotation."""
    program = EvaProgram("relin_poly", vec_size=RELIN_POLY_SLOTS, default_scale=SCALE_BITS)
    with program:
        x = input_encrypted("x", SCALE_BITS)
        x2 = x * x
        x3 = x2 * x
        x4 = x2 * x2
        output("y", x4 + x3 + x2 + x, SCALE_BITS)
    return program


def reference_relin_poly(x: np.ndarray) -> np.ndarray:
    return x**4 + x**3 + x**2 + x


def build_batch_poly() -> EvaProgram:
    """Slotwise ``x*x + x``: small requests the server may pack together."""
    program = EvaProgram("batch_poly", vec_size=BATCH_POLY_SLOTS, default_scale=SCALE_BITS)
    with program:
        x = input_encrypted("x", SCALE_BITS)
        output("y", x * x + x, SCALE_BITS)
    return program


def reference_batch_poly(x: np.ndarray) -> np.ndarray:
    return x * x + x


def uniform_inputs(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size)


# -- the compile zoo -------------------------------------------------------------
class ZooEntry(NamedTuple):
    name: str
    #: Layer the source construction is charged to.
    build_layer: str
    #: () -> (source EvaProgram, context handed to ``check``)
    build: Callable[[], Tuple[EvaProgram, Any]]
    #: (context, rng) -> (inputs, {output name: expected first values})
    case: Callable[[Any, np.random.Generator], Tuple[Dict[str, Any], Dict[str, np.ndarray]]]


#: Programmer-specified scales per network (copied from benchmarks/conftest.py).
_NETWORK_SCALES = {
    "LeNet-5-small": dict(cipher=25, vector=15, scalar=10, output=30),
    "LeNet-5-medium": dict(cipher=25, vector=15, scalar=10, output=30),
    "SqueezeNet-CIFAR": dict(cipher=25, vector=15, scalar=10, output=30),
}


def _network_entry(name: str, model: str) -> ZooEntry:
    from repro.nn import DnnCompiler, ScaleConfig, build_model

    def build():
        network = build_model(model)
        compiler = DnnCompiler(ScaleConfig(**_NETWORK_SCALES[model]), CompilerOptions())
        program = compiler.build_program(network)
        return program, (network, list(program.graph.outputs))

    def case(context, rng):
        network, output_names = context
        channels, height, width = network.input_shape
        image = rng.uniform(0.0, 1.0, (channels, height, width))
        inputs = {f"image_c{i}": image[i].reshape(-1) for i in range(channels)}
        # One output per class; its value sits in slot 0 (dense logits, or the
        # 1x1 result of SqueezeNet's global pool).
        logits = np.asarray(network.forward(image)).reshape(-1)
        return inputs, {name: logits[i : i + 1] for i, name in enumerate(output_names)}

    return ZooEntry(name, "nn.chet.build_program", build, case)


def _app_entry(name: str, builder: Callable[[], EvaProgram], draw) -> ZooEntry:
    from repro.api import execute_reference

    def build():
        program = builder()
        return program, program

    def case(program, rng):
        inputs = draw(rng)
        reference = execute_reference(program.graph, inputs)
        return inputs, {key: np.asarray(value) for key, value in reference.items()}

    return ZooEntry(name, "frontend.build", build, case)


def _image_inputs(rng: np.random.Generator) -> Dict[str, np.ndarray]:
    # Smoothed [0, 0.5] image: keeps gradients inside the sqrt polynomial's range.
    image = rng.uniform(0.0, 0.5, (32, 32))
    image = 0.5 * image + 0.25 * (np.roll(image, 1, axis=0) + np.roll(image, 1, axis=1))
    return {"image": image.reshape(-1)}


def _path_inputs(rng: np.random.Generator) -> Dict[str, np.ndarray]:
    coords = np.cumsum(rng.normal(0.0, 0.05, (3, 1024)), axis=1)
    coords -= coords.mean(axis=1, keepdims=True)
    coords = np.clip(coords, -1.0, 1.0)
    return {"x": coords[0], "y": coords[1], "z": coords[2]}


def compile_zoo() -> List[ZooEntry]:
    """The programs one sweep of the compile zoo compiles: networks first, then applications."""
    from repro import apps

    return [
        _network_entry("squeezenet-cifar", "SqueezeNet-CIFAR"),
        _network_entry("lenet5-medium", "LeNet-5-medium"),
        _network_entry("lenet5-small", "LeNet-5-small"),
        _app_entry("sobel32", lambda: apps.build_sobel_program(image_size=32), _image_inputs),
        _app_entry("harris32", lambda: apps.build_harris_program(image_size=32), _image_inputs),
        _app_entry(
            "polyreg4096",
            lambda: apps.build_polynomial_regression_program(vec_size=4096),
            lambda rng: {"x": rng.uniform(-1.0, 1.0, 4096)},
        ),
        _app_entry(
            "pathlen1024", lambda: apps.build_path_length_program(num_points=1024), _path_inputs
        ),
    ]

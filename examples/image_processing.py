"""Image processing on encrypted images: Sobel filtering and Harris corners.

Reproduces the applications of Section 8.3 (Table 8): both programs are a few
dozen lines of PyEVA, are compiled once, and then run on an encrypted image.
The decrypted results are compared against the NumPy reference.

Run with::

    python examples/image_processing.py [image_size]
"""

import sys
import time

import numpy as np

from repro.api import ClientKit, CompiledProgram, EvaServer
from repro.apps import (
    build_harris_program,
    build_sobel_program,
    random_image,
    reference_harris,
    reference_sobel,
)
from repro.backend import MockBackend


def run(name, program, inputs, reference):
    compiled = CompiledProgram.compile(program)
    summary = compiled.summary()
    # Client encrypts, the server evaluates blindly, the client decrypts.
    client = ClientKit(compiled, backend=MockBackend(seed=7))
    with EvaServer(backend=client.backend) as server:
        server.register(name, compiled)
        server.create_session(name, client.client_id, client.evaluation_context())
        start = time.perf_counter()
        reply = server.request_encrypted(name, client.encrypt_inputs(inputs))
        outputs = client.decrypt_outputs(reply.outputs)
        elapsed = time.perf_counter() - start
    output_name = next(iter(outputs))
    error = np.max(np.abs(outputs[output_name] - reference.reshape(-1)))
    print(
        f"{name:>24}: logN=2^{summary['log_n']} logQ={summary['log_q']} r={summary['r']} "
        f"| {elapsed:5.2f}s on 1 thread | max error {error:.2e}"
    )


def main() -> None:
    image_size = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    image = random_image(image_size, seed=3)
    print(f"processing an encrypted {image_size}x{image_size} image\n")

    run(
        "Sobel filter detection",
        build_sobel_program(image_size=image_size),
        {"image": image.reshape(-1)},
        reference_sobel(image),
    )
    run(
        "Harris corner detection",
        build_harris_program(image_size=image_size),
        {"image": image.reshape(-1)},
        reference_harris(image),
    )


if __name__ == "__main__":
    main()

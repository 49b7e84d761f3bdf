"""Statistical machine learning and arithmetic on encrypted data.

Reproduces the remaining Table 8 applications: 3-D path length (the secure
fitness-tracking kernel), linear regression, polynomial regression, and
multivariate regression, each evaluated on encrypted inputs and checked
against the plaintext reference.

Run with::

    python examples/statistical_ml.py
"""

import time

import numpy as np

from repro.api import ClientKit, CompiledProgram, EvaServer
from repro.apps import (
    build_linear_regression_program,
    build_multivariate_regression_program,
    build_path_length_program,
    build_polynomial_regression_program,
    random_path,
    reference_linear_regression,
    reference_multivariate_regression,
    reference_path_length,
    reference_polynomial_regression,
)
from repro.backend import MockBackend


def run(name, program, inputs, reference):
    compiled = CompiledProgram.compile(program)
    client = ClientKit(compiled, backend=MockBackend(seed=11))
    with EvaServer(backend=client.backend) as server:
        server.register(name, compiled)
        server.create_session(name, client.client_id, client.evaluation_context())
        start = time.perf_counter()
        reply = server.request_encrypted(name, client.encrypt_inputs(inputs))
        outputs = client.decrypt_outputs(reply.outputs)
        elapsed = time.perf_counter() - start
    prediction = outputs[next(iter(outputs))]
    reference = np.atleast_1d(np.asarray(reference, dtype=np.float64))
    error = np.max(np.abs(prediction[: reference.size] - reference))
    print(f"{name:>26}: vec_size={program.vec_size:5d} | {elapsed:5.3f}s | max error {error:.2e}")


def main() -> None:
    rng = np.random.default_rng(1)

    path = random_path(1024, seed=4)
    run(
        "3-D path length",
        build_path_length_program(num_points=1024),
        path,
        reference_path_length(path["x"], path["y"], path["z"]),
    )

    x = rng.uniform(-1, 1, 2048)
    run(
        "linear regression",
        build_linear_regression_program(vec_size=2048),
        {"x": x},
        reference_linear_regression(x),
    )

    xp = rng.uniform(-1, 1, 4096)
    run(
        "polynomial regression",
        build_polynomial_regression_program(vec_size=4096),
        {"x": xp},
        reference_polynomial_regression(xp),
    )

    features = {f"x{i}": rng.uniform(-1, 1, 2048) for i in range(5)}
    run(
        "multivariate regression",
        build_multivariate_regression_program(vec_size=2048),
        features,
        reference_multivariate_regression(features),
    )


if __name__ == "__main__":
    main()

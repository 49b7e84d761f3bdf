"""Quickstart: the three-artifact flow — compile, encrypt, evaluate, decrypt.

This example mirrors the deployment model of the paper: the *client* owns the
keys and the data, the *server* owns the compiled program and evaluates on
ciphertexts only.  The workflow is:

1. write the program — here with the ``@eva_program`` decorator, which traces
   a plain Python function into a family of programs parameterized by
   ``vec_size`` (the classic ``with program:`` block still works too);
2. compile it into a ``CompiledProgram`` artifact (the EVA compiler inserts
   the FHE-specific operations, validates the result, and selects encryption
   parameters and rotation keys);
3. split the execution across the trust boundary: a ``ClientKit`` generates
   keys and encrypts, an in-process ``EvaServer`` — which never receives the
   secret key — evaluates the ciphertext bundle, and the client decrypts.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.api import ClientKit, EvaServer, eva_program
from repro.backend import MockBackend


# -- 1. write the program as a traced function --------------------------------
@eva_program(vec_size=1024, default_scale=30)
def kernel(x, y):
    # An arbitrary arithmetic kernel: note the rotation (x << 1), the free
    # mixing of ciphertext and plaintext operands, and plaintext division.
    return (x * y + (x << 1)) ** 2 + x / 2 + 1.0


def main() -> None:
    # -- 2. compile into the shared artifact ----------------------------------
    compiled = kernel.compile()
    print("compiled program:")
    for key, value in compiled.summary().items():
        print(f"  {key:>18}: {value}")
    print(f"  coeff modulus bits: {compiled.parameters.coeff_modulus_bits}")
    print(f"  rotation steps    : {compiled.rotation_steps}")

    # -- 3. client: keygen + encrypt ------------------------------------------
    rng = np.random.default_rng(0)
    inputs = {"x": rng.uniform(-1, 1, 1024), "y": rng.uniform(-1, 1, 1024)}

    client = ClientKit(compiled, backend=MockBackend(seed=1))
    bundle = client.encrypt_inputs(inputs)

    # -- 4. server: blind evaluation ------------------------------------------
    # The server receives only the compiled program, the client's *evaluation*
    # keys, and ciphertexts.  Handing it a context holding a secret key is an
    # error; decryption on its context raises.
    server_context = client.evaluation_context()
    with EvaServer(backend=client.backend) as server:
        server.register("kernel", compiled)
        server.create_session("kernel", client.client_id, server_context)
        reply = server.request_encrypted("kernel", bundle)

        # -- 5. client: decrypt and check vs the plaintext reference ----------
        outputs = client.decrypt_outputs(reply.outputs)
        reply.release()
    reference = compiled.execute_reference(inputs)

    error = np.max(np.abs(outputs["out"] - reference["out"]))
    print(f"\nmax |encrypted - plaintext| = {error:.2e}")
    print(
        f"server evaluated {server_context.op_count} homomorphic operations "
        f"in {reply.execute_seconds:.3f}s without the secret key "
        f"(has_secret_key={server_context.has_secret_key})"
    )

if __name__ == "__main__":
    main()

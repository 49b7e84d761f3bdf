"""Homomorphic neural-network inference: CHET re-targeted onto EVA (Section 7.2).

The example trains a small LeNet-style network on a synthetic dataset, lowers
it through the homomorphic tensor kernels into an EVA program, compiles it
under both the EVA policy and the CHET baseline policy, and compares:

* the selected encryption parameters (Table 6),
* the modeled 56-thread latency (Table 5 / Figure 7), and
* the encrypted vs unencrypted predictions (Table 4).

Run with::

    python examples/dnn_inference.py
"""

import numpy as np

from repro.backend import MockBackend
from repro.core import CompilerOptions, simulate_schedule
from repro.nn import (
    DnnCompiler,
    EncryptedInferenceSession,
    ScaleConfig,
    build_lenet_small,
    synthetic_image_dataset,
    train_readout,
)
from repro.nn.training import accuracy


def main() -> None:
    # -- data and model ----------------------------------------------------------
    network = build_lenet_small()
    dataset = synthetic_image_dataset(
        num_classes=10, image_shape=network.input_shape, train_per_class=15, test_per_class=3, seed=0
    )
    train_readout(network, dataset, epochs=500, learning_rate=1.0)
    plain_accuracy = accuracy(network, dataset.test_images, dataset.test_labels)
    print(f"{network.name}: unencrypted test accuracy {100 * plain_accuracy:.1f}%\n")

    scales = ScaleConfig(cipher=25, vector=15, scalar=10, output=30)
    compiled = {}
    for policy in ("chet", "eva"):
        compiled[policy] = DnnCompiler(scales, CompilerOptions(policy=policy)).compile(network)
        params = compiled[policy].compilation.parameters.summary()
        discipline = "dag" if policy == "eva" else "kernel"
        latency = simulate_schedule(
            compiled[policy].compilation, threads=56, discipline=discipline
        ).makespan_seconds
        print(
            f"{policy.upper():>4}: logN={params['log_n']} logQ={params['log_q']} r={params['r']} "
            f"| modeled latency on 56 threads: {latency:.3f}s"
        )

    # -- encrypted inference -------------------------------------------------------
    # One session = one client and one in-process server: the client keeps the
    # keys, the server evaluates ciphertexts only, and keygen is paid once for
    # all images.
    matches, correct = 0, 0
    samples = 10
    print(f"\nrunning {samples} encrypted inferences (EVA policy, mock CKKS backend)")
    with EncryptedInferenceSession(compiled["eva"], backend=MockBackend(seed=5)) as session:
        for image, label in zip(dataset.test_images[:samples], dataset.test_labels[:samples]):
            logits = session.infer(image)
            encrypted_prediction = int(np.argmax(logits))
            matches += int(encrypted_prediction == network.predict(image))
            correct += int(encrypted_prediction == int(label))
    print(f"encrypted predictions agreeing with plaintext: {matches}/{samples}")
    print(f"encrypted accuracy on these samples:           {correct}/{samples}")


if __name__ == "__main__":
    main()

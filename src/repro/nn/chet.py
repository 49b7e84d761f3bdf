"""CHET re-targeted onto EVA: compile neural networks to EVA programs.

This module plays the role of the modified CHET of Section 7.2: it takes a
network described as high-level tensor operations (:class:`~repro.nn.network.Network`),
lowers every layer through the homomorphic tensor kernels of
:mod:`repro.nn.kernels` into a single EVA program, and hands that program to
the EVA compiler for FHE-specific optimization, validation, parameter
selection, and rotation-key selection.

The original CHET baseline is reproduced by compiling the same program with
``CompilerOptions(policy="chet")``, which swaps in the per-multiply rescaling,
lazy modulus switching, and per-kernel level alignment that model CHET's
expert kernel library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..backend.hisa import HomomorphicBackend
from ..core.compiler import CompilationResult, CompilerOptions
from ..errors import CompilationError
from ..frontend.pyeva import EvaProgram
from .kernels import KernelBuilder, NeuronVector, SpatialTensor
from .layout import TensorLayout
from .network import Activation, AveragePool2D, Conv2D, Dense, Flatten, Network


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


@dataclass
class ScaleConfig:
    """Programmer-specified scaling factors (Table 4's logP values)."""

    cipher: float = 25.0
    vector: float = 15.0
    scalar: float = 10.0
    output: float = 30.0


@dataclass
class CompiledNetwork:
    """A network compiled to an executable EVA program."""

    network: Network
    compilation: CompilationResult
    input_names: List[str]
    output_names: List[str]
    vec_size: int
    scales: ScaleConfig

    def image_to_inputs(self, image: np.ndarray) -> Dict[str, np.ndarray]:
        """Pack one (C, H, W) image into the executor's input dictionary."""
        channels, height, width = self.network.input_shape
        image = np.asarray(image, dtype=np.float64).reshape(channels, height, width)
        inputs = {}
        for index in range(channels):
            flat = np.zeros(self.vec_size)
            flat[: height * width] = image[index].reshape(-1)
            inputs[self.input_names[index]] = flat
        return inputs

    def logits_from_outputs(self, outputs: Dict[str, np.ndarray]) -> np.ndarray:
        """Extract the logits vector from decrypted program outputs."""
        return np.array([outputs[name][0] for name in self.output_names])


class DnnCompiler:
    """Compiles :class:`Network` objects to EVA programs (the CHET frontend)."""

    def __init__(
        self,
        scales: Optional[ScaleConfig] = None,
        options: Optional[CompilerOptions] = None,
    ) -> None:
        self.scales = scales or ScaleConfig()
        self.options = options or CompilerOptions()

    # -- program construction -----------------------------------------------------------
    def build_program(self, network: Network) -> EvaProgram:
        """Lower the network through the tensor kernels into an EVA input program."""
        channels, height, width = network.input_shape
        vec_size = _next_power_of_two(height * width)
        program = EvaProgram(network.name, vec_size=vec_size, default_scale=self.scales.cipher)
        with program:
            builder = KernelBuilder(program, self.scales.vector, self.scales.scalar)
            layout = TensorLayout.packed(height, width)
            data = SpatialTensor(
                [
                    program.input_encrypted(f"image_c{index}", scale=self.scales.cipher)
                    for index in range(channels)
                ],
                layout,
            )
            data = self._lower_layers(builder, data, network)
            if isinstance(data, NeuronVector):
                for index, neuron in enumerate(data.neurons):
                    program.output(f"logit_{index}", neuron, scale=self.scales.output)
            else:
                for index, channel in enumerate(data.channels):
                    program.output(f"channel_{index}", channel, scale=self.scales.output)
        return program

    def _lower_layers(self, builder: KernelBuilder, data, network: Network):
        for layer in network.layers:
            if isinstance(layer, Conv2D):
                data = builder.conv2d(data, layer)
            elif isinstance(layer, AveragePool2D):
                data = builder.average_pool(data, layer)
            elif isinstance(layer, Activation):
                data = builder.activation(data, layer)
            elif isinstance(layer, Dense):
                data = builder.dense(data, layer)
            elif isinstance(layer, Flatten):
                continue  # flattening is implicit in the dense kernel
            else:
                raise CompilationError(f"unsupported layer type {type(layer).__name__}")
        return data

    def compile(self, network: Network) -> CompiledNetwork:
        """Build and compile the network, returning an executable artifact."""
        program = self.build_program(network)
        compilation = program.compile(options=self.options)
        channels = network.input_shape[0]
        input_names = [f"image_c{i}" for i in range(channels)]
        output_names = [
            name for name in compilation.program.outputs if name.startswith("logit_")
        ]
        if not output_names:
            output_names = list(compilation.program.outputs)
        return CompiledNetwork(
            network=network,
            compilation=compilation,
            input_names=input_names,
            output_names=output_names,
            vec_size=program.vec_size,
            scales=self.scales,
        )


class EncryptedInferenceSession:
    """A client/server pair for repeated encrypted inferences on one network.

    Uses the three-artifact API of :mod:`repro.api`: the client kit owns the
    keys and encrypts each image, the server runtime evaluates the compiled
    network on ciphertexts only (it is never given the secret key), and the
    client decrypts the logits.  Key generation happens once per session, so
    batch evaluations (accuracy sweeps) amortize it across images.
    """

    def __init__(
        self,
        compiled: CompiledNetwork,
        backend: Optional[HomomorphicBackend] = None,
        threads: int = 1,
    ) -> None:
        from ..api import ClientKit, ServerRuntime

        self.compiled = compiled
        self.client = ClientKit(compiled.compilation, backend=backend)
        self.server = ServerRuntime(
            compiled.compilation, backend=self.client.backend, threads=threads
        )
        self.server.attach_client(
            self.client.client_id, self.client.evaluation_context()
        )

    def infer(self, image: np.ndarray) -> np.ndarray:
        """Encrypt one image, evaluate blindly, decrypt and return the logits."""
        bundle = self.client.encrypt_inputs(self.compiled.image_to_inputs(image))
        outputs = self.client.decrypt_outputs(self.server.evaluate(bundle))
        return self.compiled.logits_from_outputs(outputs)


def encrypted_inference(
    compiled: CompiledNetwork,
    image: np.ndarray,
    backend: Optional[HomomorphicBackend] = None,
    threads: int = 1,
) -> np.ndarray:
    """Run one encrypted inference and return the logits."""
    session = EncryptedInferenceSession(compiled, backend=backend, threads=threads)
    return session.infer(image)


def encrypted_accuracy(
    compiled: CompiledNetwork,
    images: Sequence[np.ndarray],
    labels: Sequence[int],
    backend: Optional[HomomorphicBackend] = None,
    threads: int = 1,
) -> float:
    """Fraction of images classified correctly under encryption."""
    session = EncryptedInferenceSession(compiled, backend=backend, threads=threads)
    correct = 0
    for image, label in zip(images, labels):
        if int(np.argmax(session.infer(image))) == int(label):
            correct += 1
    return correct / max(len(labels), 1)


def unencrypted_accuracy(network: Network, images: Sequence[np.ndarray], labels: Sequence[int]) -> float:
    """Fraction of images classified correctly by the plaintext reference."""
    correct = sum(
        1 for image, label in zip(images, labels) if network.predict(image) == int(label)
    )
    return correct / max(len(labels), 1)

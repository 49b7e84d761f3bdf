"""Tests for the DNN layers, layouts, kernels, and the CHET-style compiler."""

import threading

import numpy as np
import pytest

from repro.core import CompilerOptions, ReferenceExecutor
from repro.nn import (
    Activation,
    AveragePool2D,
    Conv2D,
    Dense,
    DnnCompiler,
    EncryptedInferenceSession,
    Flatten,
    Network,
    ScaleConfig,
    TensorLayout,
    build_model,
    build_lenet_small,
    encrypted_accuracy,
    encrypted_inference,
    synthetic_image_dataset,
    train_readout,
    unencrypted_accuracy,
)
from repro.nn.training import accuracy, extract_features


class TestTensorLayout:
    def test_packed_layout_indices(self):
        layout = TensorLayout.packed(4, 4)
        assert layout.physical_index(0, 0) == 0
        assert layout.physical_index(1, 2) == 6
        assert layout.required_slots() == 16

    def test_strided_layout_after_conv(self):
        layout = TensorLayout.packed(8, 8).after_conv(3, 2, "same")
        assert (layout.height, layout.width, layout.gap) == (4, 4, 2)
        assert layout.physical_index(1, 1) == 2 * 8 + 2

    def test_valid_padding_dims(self):
        layout = TensorLayout.packed(8, 8).after_conv(3, 1, "valid")
        assert (layout.height, layout.width) == (6, 6)

    def test_offset_scales_with_gap(self):
        layout = TensorLayout.packed(8, 8).after_conv(2, 2, "valid")
        assert layout.offset(1, 1) == 2 * (8 + 1)

    def test_unknown_padding_rejected(self):
        with pytest.raises(ValueError):
            TensorLayout.packed(8, 8).after_conv(3, 1, "reflect")


class TestReferenceLayers:
    def test_conv_same_matches_manual(self):
        rng = np.random.default_rng(0)
        layer = Conv2D(rng.normal(size=(2, 1, 3, 3)), None, stride=1, padding="same")
        image = rng.normal(size=(1, 5, 5))
        out = layer.forward(image)
        # manual check for one output position
        padded = np.pad(image[0], 1)
        expected = sum(
            layer.weights[0, 0, dy, dx] * padded[2 + dy - 1 + 1 - 1, 2 + dx - 1 + 1 - 1]
            for dy in range(3)
            for dx in range(3)
        )
        # recompute cleanly: output (0,1,1) windows padded[1:4,1:4]
        expected = float(np.sum(layer.weights[0, 0] * padded[1:4, 1:4]))
        assert out[0, 1, 1] == pytest.approx(expected)
        assert out.shape == (2, 5, 5)

    def test_conv_stride_and_bias(self):
        rng = np.random.default_rng(1)
        layer = Conv2D(rng.normal(size=(3, 2, 3, 3)), np.array([1.0, -1.0, 0.5]), stride=2)
        out = layer.forward(rng.normal(size=(2, 8, 8)))
        assert out.shape == (3, 4, 4)

    def test_average_pool(self):
        image = np.arange(16, dtype=float).reshape(1, 4, 4)
        out = AveragePool2D(2, 2).forward(image)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))

    def test_activation_polynomial(self):
        act = Activation.polynomial(0.5, 2.0, 1.0)
        x = np.array([1.0, -2.0])
        np.testing.assert_allclose(act.forward(x), 0.5 * x * x + 2.0 * x + 1.0)

    def test_dense(self):
        layer = Dense(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0]))
        np.testing.assert_allclose(layer.forward(np.array([1.0, 1.0])), [4.0, 6.0])

    def test_network_forward_and_summary(self):
        net = build_lenet_small()
        logits = net.forward(np.zeros((1, 8, 8)))
        assert logits.shape == (10,)
        assert net.count_layers() == {"conv": 2, "fc": 2, "act": 3}
        assert len(net.layer_summary()) == len(net.layers)


def tiny_network(seed=0) -> Network:
    """A small conv+act+dense network used for exact-equivalence tests."""
    rng = np.random.default_rng(seed)
    return Network(
        name="tiny",
        input_shape=(1, 4, 4),
        layers=[
            Conv2D(rng.normal(0, 0.5, (2, 1, 3, 3)), rng.normal(0, 0.1, 2), stride=2, name="conv1"),
            Activation.polynomial(0.5, 0.5, name="act1"),
            Flatten(),
            Dense(rng.normal(0, 0.5, (3, 8)), rng.normal(0, 0.1, 3), name="fc1"),
        ],
    )


class TestKernelEquivalence:
    """The EVA program generated by the kernels must match the NumPy reference."""

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid")])
    def test_conv_kernel_matches_reference(self, stride, padding):
        rng = np.random.default_rng(2)
        if padding == "same":
            out_spatial = (6 + stride - 1) // stride
        else:
            out_spatial = (6 - 3) // stride + 1
        in_features = 3 * out_spatial * out_spatial
        net = Network(
            "conv_only",
            (2, 6, 6),
            [
                Conv2D(
                    rng.normal(0, 0.5, (3, 2, 3, 3)),
                    rng.normal(0, 0.1, 3),
                    stride=stride,
                    padding=padding,
                    name="c",
                ),
                Flatten(),
                Dense(rng.normal(0, 0.3, (5, in_features)), None, name="fc"),
            ],
        )
        self._assert_equivalence(net, rng.normal(0, 0.5, (2, 6, 6)))

    def test_pooling_kernel_matches_reference(self):
        rng = np.random.default_rng(3)
        net = Network(
            "pool",
            (1, 4, 4),
            [
                AveragePool2D(2, 2, name="pool"),
                Flatten(),
                Dense(rng.normal(0, 0.5, (2, 4)), None, name="fc"),
            ],
        )
        self._assert_equivalence(net, rng.normal(0, 0.5, (1, 4, 4)))

    def test_full_tiny_network(self):
        rng = np.random.default_rng(4)
        self._assert_equivalence(tiny_network(), rng.uniform(-1, 1, (1, 4, 4)))

    def test_dense_chain(self):
        rng = np.random.default_rng(5)
        net = Network(
            "mlp",
            (1, 2, 2),
            [
                Flatten(),
                Dense(rng.normal(0, 0.5, (4, 4)), rng.normal(0, 0.1, 4), name="fc1"),
                Activation.square("act"),
                Dense(rng.normal(0, 0.5, (3, 4)), None, name="fc2"),
            ],
        )
        self._assert_equivalence(net, rng.uniform(-1, 1, (1, 2, 2)))

    @staticmethod
    def _assert_equivalence(net: Network, image: np.ndarray) -> None:
        compiler = DnnCompiler(ScaleConfig())
        program = compiler.build_program(net)
        compiled_names = [
            name for name in program.graph.outputs if name.startswith(("logit_", "channel_"))
        ]
        reference = net.forward(image).reshape(-1)
        # Identity-scheme execution of the *input* program (no compilation involved).
        channels = net.input_shape[0]
        height, width = net.input_shape[1:]
        inputs = {}
        for c in range(channels):
            flat = np.zeros(program.vec_size)
            flat[: height * width] = image[c].reshape(-1)
            inputs[f"image_c{c}"] = flat
        outputs = ReferenceExecutor(program.graph).execute(inputs)
        logits = np.array([outputs[name][0] for name in compiled_names])
        np.testing.assert_allclose(logits, reference, rtol=1e-8, atol=1e-8)


class TestDnnCompiler:
    def test_compiled_network_inference_matches_plaintext(self, noiseless_backend):
        net = tiny_network()
        compiled = DnnCompiler(ScaleConfig()).compile(net)
        image = np.random.default_rng(6).uniform(-1, 1, (1, 4, 4))
        logits = encrypted_inference(compiled, image, backend=noiseless_backend)
        np.testing.assert_allclose(logits, net.forward(image).reshape(-1), rtol=1e-6, atol=1e-6)

    def test_mock_noise_model_keeps_predictions(self, mock_backend):
        net = build_lenet_small()
        ds = synthetic_image_dataset(num_classes=4, image_shape=(1, 8, 8), train_per_class=10, test_per_class=2, seed=1)
        net = Network(net.name, net.input_shape, net.layers)
        net.layers[-1] = Dense(np.random.default_rng(0).normal(0, 0.3, (4, 16)), np.zeros(4), name="fc2")
        train_readout(net, ds, epochs=200)
        compiled = DnnCompiler(ScaleConfig()).compile(net)
        image = ds.test_images[0]
        logits = encrypted_inference(compiled, image, backend=mock_backend)
        assert int(np.argmax(logits)) == int(np.argmax(net.forward(image)))

    def test_eva_parameters_not_worse_than_chet(self):
        net = tiny_network()
        eva = DnnCompiler(ScaleConfig(), CompilerOptions(policy="eva")).compile(net)
        chet = DnnCompiler(ScaleConfig(), CompilerOptions(policy="chet")).compile(net)
        assert eva.compilation.parameters.modulus_count <= chet.compilation.parameters.modulus_count
        assert (
            eva.compilation.parameters.total_coeff_modulus_bits
            <= chet.compilation.parameters.total_coeff_modulus_bits
        )

    def test_kernel_labels_attached(self):
        compiled = DnnCompiler(ScaleConfig()).compile(tiny_network())
        kernels = {t.kernel for t in compiled.compilation.program.terms() if t.kernel}
        assert {"conv1", "act1", "fc1"} <= kernels

    def test_image_to_inputs_shapes(self):
        compiled = DnnCompiler(ScaleConfig()).compile(tiny_network())
        inputs = compiled.image_to_inputs(np.ones((1, 4, 4)))
        assert set(inputs) == {"image_c0"}
        assert inputs["image_c0"].shape == (compiled.vec_size,)


class TestModelsAndTraining:
    @pytest.mark.parametrize(
        "name,conv,fc,act",
        [
            ("LeNet-5-small", 2, 2, 3),
            ("LeNet-5-medium", 2, 2, 3),
            ("LeNet-5-large", 2, 2, 3),
            ("Industrial", 5, 2, 6),
            ("SqueezeNet-CIFAR", 10, 0, 9),
        ],
    )
    def test_model_layer_counts(self, name, conv, fc, act):
        net = build_model(name)
        counts = net.count_layers()
        assert counts == {"conv": conv, "fc": fc, "act": act}

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            build_model("AlexNet")

    def test_dataset_shapes_and_labels(self):
        ds = synthetic_image_dataset(num_classes=5, image_shape=(1, 8, 8), train_per_class=3, test_per_class=2, seed=0)
        assert ds.train_images.shape == (15, 1, 8, 8)
        assert ds.test_images.shape == (10, 1, 8, 8)
        assert set(np.unique(ds.train_labels)) <= set(range(5))
        assert np.max(np.abs(ds.train_images)) <= 1.0

    def test_training_improves_over_chance(self):
        net = build_lenet_small()
        ds = synthetic_image_dataset(num_classes=10, image_shape=(1, 8, 8), train_per_class=12, test_per_class=3, seed=0)
        train_readout(net, ds, epochs=400, learning_rate=1.0)
        train_acc = accuracy(net, ds.train_images, ds.train_labels)
        assert train_acc > 0.5  # far above the 10% chance level

    def test_extract_features_shape(self):
        net = build_lenet_small()
        ds = synthetic_image_dataset(num_classes=3, image_shape=(1, 8, 8), train_per_class=2, test_per_class=1, seed=0)
        features = extract_features(net, ds.train_images)
        assert features.shape == (6, net.layers[-1].in_features)

    def test_unencrypted_accuracy_helper(self):
        net = build_lenet_small()
        ds = synthetic_image_dataset(num_classes=3, image_shape=(1, 8, 8), train_per_class=4, test_per_class=2, seed=0)
        value = unencrypted_accuracy(net, ds.test_images, ds.test_labels)
        assert 0.0 <= value <= 1.0


class TestNoServerThreadOutlivesItsCaller:
    """Each encrypted entry point evaluates on an in-process server it owns
    and closes: when the call returns, none of the server's workers runs."""

    @staticmethod
    def _serving_threads():
        return {t for t in threading.enumerate() if t.name.startswith("eva-serve-")}

    def _session_block(self, compiled, image, backend):
        with EncryptedInferenceSession(compiled, backend=backend) as session:
            assert self._serving_threads()
            return session.infer(image)

    def _run_application(self, _compiled, _image, backend):
        from repro.apps import build_linear_regression_program, run_application

        program = build_linear_regression_program(vec_size=64)
        return run_application(program, {"x": np.linspace(-1, 1, 64)}, backend=backend)

    @pytest.mark.parametrize(
        "entry",
        ["run_application", "encrypted_inference", "encrypted_accuracy", "session_block"],
    )
    def test_entry_point(self, entry, noiseless_backend):
        compiled = DnnCompiler(ScaleConfig()).compile(tiny_network())
        image = np.random.default_rng(6).uniform(-1, 1, (1, 4, 4))
        call = {
            "run_application": self._run_application,
            "encrypted_inference": encrypted_inference,
            "encrypted_accuracy": lambda c, i, backend: encrypted_accuracy(c, [i], [0], backend=backend),
            "session_block": self._session_block,
        }[entry]
        before = self._serving_threads()  # another test's leak is not this one's
        call(compiled, image, backend=noiseless_backend)
        assert self._serving_threads() <= before

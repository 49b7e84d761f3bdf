"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so that ``pip install -e .`` works in
offline environments whose setuptools predates full PEP 660 editable-install
support (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of EVA: an encrypted vector arithmetic language and "
        "compiler for efficient homomorphic computation (PLDI 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The NTT stage loop's C source: compiled on first use, not at install.
    package_data={"repro.ckks": ["ntt.c"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
)

"""Build entry point and dependency metadata.

Kept as a plain ``setup.py`` so ``pip install -e .`` works in offline
environments that lack the ``wheel`` package (pip falls back to
``setup.py develop``).

The ``jit`` extra pulls in numba for the compiled hot kernels in
:mod:`repro.simulator._kernels`.  It is strictly optional: without it
the fabric runs its list-based reference of the same algorithms,
bit-identically (the golden trace and ``repro bench --check`` gate
both legs), so the base install never needs a compiler toolchain.  ``REPRO_NO_JIT=1`` forces the fallback
even when numba is importable.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.9.0",
    description=(
        "Simulation harness for studying big-data performance "
        "reproducibility under cloud network variability"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.26",
        "scipy>=1.11",
    ],
    extras_require={
        "jit": ["numba>=0.59"],
    },
)

"""Build entry point and dependency metadata.

Kept as a plain ``setup.py`` so ``pip install -e .`` works in offline
environments that lack the ``wheel`` package (pip falls back to
``setup.py develop``).

The install needs only numpy and scipy: the simulator's hot loops are
plain Python and numpy, with no compiled backend.
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
)

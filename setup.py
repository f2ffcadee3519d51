"""Packaging for the ISPASS 2013 benchmark-selection reproduction.

Pure setup.py (no pyproject.toml yet) so `pip install -e .` works on
environments whose setuptools predates PEP 660 editable wheels.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ispass2013",
    version="1.1.0",
    description=("Reproduction of Velasquez, Michaud & Seznec, 'Selecting "
                 "Benchmark Combinations for the Evaluation of Multicore "
                 "Throughput' (ISPASS 2013)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",      # columnar analytics core (repro.core.columnar)
    ],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)

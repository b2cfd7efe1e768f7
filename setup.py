"""Packaging metadata (there is no pyproject.toml; this file is all of it).

``PYTHONPATH=src`` is how the tests, the CI and the ledger run the
package; ``pip install -e .`` works offline, without the ``wheel``
package, through the setuptools develop path.  ``package_data`` ships
the C sources ``repro/algorithms/*.c`` (``native.SOURCES``), the only
non-``.py`` files the package needs: ``repro.algorithms.native`` reads
them through ``importlib.resources`` and builds them on first use.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Reproduction of 'Energy efficient packet classification "
        "hardware accelerator'"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.algorithms": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
)

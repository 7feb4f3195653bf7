"""Packaging of the ``repro`` library: the one packaging file.

There is no ``pyproject.toml``; on minimal/offline environments where
the ``wheel`` package (required by PEP 660 editable builds with older
setuptools) is unavailable, install with

    pip install -e . --no-build-isolation --no-use-pep517
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'^__version__ = "(.+)"$', _INIT.read_text(),
                      re.MULTILINE).group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)

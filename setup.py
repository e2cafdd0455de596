"""Packaging metadata for `pip install -e .` (the one place it lives).

Kept in setup.py rather than a pyproject.toml ``[project]`` table
because the offline build environment lacks the `wheel` package that
PEP 660 editable installs require; pyproject.toml holds tooling
configuration only.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Parsed, not imported: importing repro needs numpy, which may not be
# installed yet when this file runs.
_init = Path(__file__).parent / "src" / "repro" / "__init__.py"
_version = re.search(r'^__version__ = "([^"]+)"',
                     _init.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="repro",
    version=_version,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)

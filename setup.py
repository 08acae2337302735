"""Setuptools entry point; all project metadata lives in ``pyproject.toml``.

Without the ``wheel`` package, pip can build neither a wheel nor a PEP 660
editable wheel, so ``pip install -e .`` fails offline with ``invalid command
'bdist_wheel'``.  This file keeps the legacy ``python setup.py develop``
install available for that case.
"""

from setuptools import setup

setup()

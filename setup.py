"""Setuptools shim for the legacy ``python setup.py develop`` install.

``pip install -e .`` builds a PEP 660 editable wheel, which needs the
``wheel`` package; where it is missing (e.g. an offline host that ships
only setuptools), ``python setup.py develop`` installs the package without
it.  All project metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()

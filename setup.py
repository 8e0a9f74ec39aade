"""Setuptools shim.

The canonical build configuration lives in ``pyproject.toml``
(``pip install -e ".[test]"``).  This file only exists for offline
environments whose setuptools lacks the ``wheel`` package that pip needs for
editable installs: there, ``python setup.py develop --no-deps`` installs the
package and the ``mas-attention`` command from the same metadata.
"""

from setuptools import setup

setup()

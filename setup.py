"""Setup shim: the package metadata lives in setup.cfg.

``pip install -e .`` runs this file, so editable installs also work
with setuptools releases that predate PEP 660 editable wheels.
"""
from setuptools import setup

setup()

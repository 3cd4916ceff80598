"""Build script for the optional compiled kernels.

The package works without the extension (a pure-Python backend is selected at
import time), so the extension is declared ``optional``: when it fails to
compile, setuptools prints a warning and the build goes on without it.  Every
build compiles the committed ``_speedups.c``, so it needs no Cython and works
offline:

    python setup.py build_ext --inplace
    pip install -e . --no-build-isolation

The C is generated from ``_speedups.pyx``; after editing the ``.pyx``,
regenerate it by hand with ``cython src/sombor_trees/_kernels/_speedups.pyx``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "sombor_trees._kernels._speedups",
            ["src/sombor_trees/_kernels/_speedups.c"],
            optional=True,
        )
    ],
)

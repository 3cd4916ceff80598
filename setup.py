"""Build script for the optional compiled kernels.

The package works without the extension (a pure-Python backend is selected at
import time), so a failed compile downgrades to a warning instead of aborting
the install.  Every build compiles the committed ``_speedups.c``, so it needs
no Cython and works offline:

    python setup.py build_ext --inplace
    pip install -e . --no-build-isolation

The C is generated from ``_speedups.pyx``; after editing the ``.pyx``,
regenerate it by hand with ``cython src/sombor_trees/_kernels/_speedups.pyx``.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Try to build the speedup module; fall back to pure Python on failure."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # no compiler, or no Python headers
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: compiled kernels skipped ({exc}); "
            "falling back to the pure-Python backend",
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "sombor_trees._kernels._speedups",
            ["src/sombor_trees/_kernels/_speedups.c"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)

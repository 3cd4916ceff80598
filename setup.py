"""Build script for the optional compiled kernels.

The package works without the extension (a pure-Python backend is selected at
import time), so a failed compile downgrades to a warning instead of aborting
the install.  Without Cython the committed, pre-generated ``_speedups.c`` is
compiled instead, so an offline build still gets the compiled backend:

    python setup.py build_ext --inplace
    pip install -e . --no-build-isolation
"""

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Try to build the speedup module; fall back to pure Python on failure."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler or Cython missing
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


KERNELS = "src/sombor_trees/_kernels/"


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        c_source = KERNELS + "_speedups.c"
        if not os.path.exists(c_source):
            return []
        return [Extension("sombor_trees._kernels._speedups", [c_source])]
    return cythonize(
        [Extension("sombor_trees._kernels._speedups", [KERNELS + "_speedups.pyx"])],
        language_level="3",
    )


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})

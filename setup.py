"""Build script: compiles the C flow kernel extension when a C compiler is
available, and falls back to a pure-Python install otherwise.
Set CONNDIM_NO_EXT=1 to skip the extension build entirely."""

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


def extension_modules():
    if os.environ.get("CONNDIM_NO_EXT"):
        return []
    return [Extension("conndim._kernels._speedups",
                      ["src/conndim/_kernels/_speedups.c"],
                      extra_compile_args=["-O3"])]


class optional_build_ext(build_ext):
    """Treat extension build failures as non-fatal; the package selects the
    pure-Python kernel at import time when the extension is missing."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"conndim: extension build skipped ({exc}); "
                  "pure-Python kernels will be used", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"conndim: building {ext.name} failed ({exc}); "
                  "pure-Python kernels will be used", file=sys.stderr)


setup(ext_modules=extension_modules(), cmdclass={"build_ext": optional_build_ext})

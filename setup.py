"""Build script: compiles the optional C search kernels.

`src/ncflow/_kernels.c` uses no Python C-API; it is built as a plain
shared library, `ncflow/_kernels.so`, which `ncflow.kernels` loads with
ctypes.  The package works without it (the pure-Python kernels are used
instead), so a failed compile is downgraded to a warning instead of
aborting the install.
"""

import os
import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalLibrary(build_ext):
    def get_ext_filename(self, fullname):
        # the fixed name `ncflow.kernels.LIBRARY` looks for
        return os.path.join(*fullname.split(".")) + ".so"

    def get_export_symbols(self, ext):
        return []

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            warnings.warn(f"compiled kernels skipped: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"compiled kernels skipped: {exc}")


setup(
    ext_modules=[Extension("ncflow._kernels", ["src/ncflow/_kernels.c"])],
    cmdclass={"build_ext": OptionalLibrary},
)

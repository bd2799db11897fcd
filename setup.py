"""Build script: compiles the zone-closure kernel when a C compiler is
available.  The build is optional; without it the package uses the pure
numpy fallback."""

from setuptools import Extension, setup

setup(ext_modules=[Extension("ptasynth._zonecore", ["src/ptasynth/_zonecore.c"],
                             optional=True)])

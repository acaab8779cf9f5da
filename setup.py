"""Package definition of ``repro`` (src layout).

There is no ``pyproject.toml``: this file is the whole description.  It
declares the ``src`` layout and ships the compiled chunk kernel's C source
(``repro/core/chunk_kernel.c``) as package data, because the installed
package builds that kernel at first use; without the source an installed
copy would run the NumPy fallback kernel.  NumPy is the one runtime
dependency.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.core": ["chunk_kernel.c"]},
    install_requires=["numpy"],
)

"""Setuptools entry point.

The build environment of this reproduction is fully offline and does not ship
the ``wheel`` package, so PEP 517/660 editable installs (which need to build a
wheel) are unavailable.  Keeping the project metadata here and leaving
``pyproject.toml`` without a ``[project]`` table lets ``pip install -e .``
fall back to the classic ``setup.py develop`` code path, which works offline.
"""

from pathlib import Path

from setuptools import find_packages, setup

_readme = Path(__file__).parent / "README.md"

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Autotuning Wavefront Applications for Multicore "
        "Multi-GPU Hybrid Architectures' (Mohanty & Cole, PMAM 2014)"
    ),
    long_description=_readme.read_text(encoding="utf-8") if _readme.exists() else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=2.0"],
    extras_require={
        "dev": [
            "pytest>=7.0",
            "hypothesis>=6.0",
            "scipy>=1.9",
            "mpmath>=1.0",
        ],
    },
    entry_points={"console_scripts": ["repro-tune = repro.cli:main"]},
)

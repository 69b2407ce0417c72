"""Complete biconservative surfaces of revolution in R^3 and the unit
3-sphere: closed-form/quadrature constructions, an independent
differential-geometry oracle for verification, and mesh/figure export.
"""

import importlib
import logging

from . import checks, diffgeo, euclidean, gluing, numerics, spherical

__version__ = "0.1.0"

# silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())


def __getattr__(name):
    # the CLI loads on first use: were it imported here, `python -m
    # biconsurf.cli` would find it loaded and runpy would warn on stderr
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "numerics",
    "diffgeo",
    "euclidean",
    "spherical",
    "gluing",
    "checks",
    "cli",
    "__version__",
]

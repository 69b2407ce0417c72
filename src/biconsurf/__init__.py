"""Complete biconservative surfaces of revolution in R^3 and the unit
3-sphere: closed-form/quadrature constructions, an independent
differential-geometry oracle for verification, and mesh/figure export.
"""

import logging

from . import cli, checks, diffgeo, euclidean, gluing, numerics, spherical

__version__ = "0.1.0"

# silent unless the application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

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

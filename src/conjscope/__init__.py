"""Curvature, normal frames and conjugate-point analysis for dynamic pairs.

A dynamic pair is a vector field X together with a distribution V on the
state space.  The package computes the pair's curvature operator, transports
normal frames along trajectories, integrates the Jacobi matrix system,
locates conjugate times with multiplicity, verifies curvature-based bounds on
their position, and checks semi-Hamiltonian structure when a 2-form is
supplied.  Most users start from `catalog.build` or the `conjscope` CLI.
"""

import importlib

from . import analysis, bounds, catalog, frames, hamiltonian, jacobi, ode, pair, scalar
from .analysis import analyze
from .errors import ConjscopeError
from .pair import GenericPair, SODEModel, lift_sode

__version__ = "0.1.0"

__all__ = [
    "analysis", "bounds", "catalog", "cli", "frames", "hamiltonian", "jacobi",
    "ode", "pair", "scalar", "analyze", "ConjscopeError", "GenericPair",
    "SODEModel", "lift_sode", "__version__",
]


def __getattr__(name):
    # ``cli`` loads on first use, so that ``python -m conjscope.cli`` runs
    # the module once, as __main__, rather than after a package import
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Identifiability bounds and monitoring-path design for Boolean network tomography.

The package computes closed-form upper bounds on the number of nodes whose
working/failed state can be inferred from binary end-to-end path measurements,
verifies identifiability and routing consistency of concrete (topology, path
set) instances, and generates topologies that meet the bounds exactly.

This namespace carries the README tour and the types and errors it exposes;
everything else is imported from its submodule.
"""

from .bounds import BoundResult, Scenario, bound, bound_single_server
from .construct import ConstructedInstance, ConstructionError, ica
from .identifiability import one_identifiable_set, testing_matrix
from .model import Graph, PathSet, build_graph
from .routing import (
    ConsistencyReport,
    ConsistencyViolation,
    check_consistency,
    consistent_shortest_paths,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "ConsistencyReport",
    "ConsistencyViolation",
    "ConstructedInstance",
    "ConstructionError",
    "Graph",
    "PathSet",
    "Scenario",
    "bound",
    "bound_single_server",
    "build_graph",
    "check_consistency",
    "consistent_shortest_paths",
    "ica",
    "one_identifiable_set",
    "testing_matrix",
]

"""maxdom: pick at most k planar query points whose closed lower-left
quadrants cover the maximum total weight of a weighted point set.

The solver sums the ground points into at most min(n, m^2) cells of the
covered region in one pass over the point columns, and runs a layered
dynamic program in O(k*m^2 + n log m) time and O(n + k*m) space, or, when
that is predicted faster, in O(k*(c + m)*log m) time for c nonzero cells.
An exhaustive oracle provides ground truth at verification scale.
"""

from .instances import (
    FAMILIES,
    GeneratorSpec,
    ParseError,
    generate,
    parse,
    parse_text,
    serialize,
    serialize_text,
)
from .model import (
    Instance,
    PointColumns,
    QueryPoint,
    Solution,
    WeightedPoint,
    weight_of_dom,
)
from .oracle import oracle_solve
from .solver import (
    PipelineResult,
    run_pipeline,
    solve_pipeline,
    solve_reference,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "GeneratorSpec",
    "Instance",
    "ParseError",
    "PipelineResult",
    "PointColumns",
    "QueryPoint",
    "Solution",
    "WeightedPoint",
    "generate",
    "oracle_solve",
    "parse",
    "parse_text",
    "run_pipeline",
    "serialize",
    "serialize_text",
    "solve_pipeline",
    "solve_reference",
    "weight_of_dom",
]

"""maxdom: pick at most k planar query points whose closed lower-left
quadrants cover the maximum total weight of a weighted point set.

The solver sums the ground points into at most min(n, m^2) cells of the
covered region in one pass over the point columns, and runs a layered
dynamic program in O(k*m^2 + n log m) time and O(n + m) space, or, when
that is predicted faster, in O(k*(c + m)*log m) time for c nonzero cells.
An exhaustive oracle provides ground truth at verification scale.
"""

from .cells import (
    CellGrid,
    CellKey,
    CompressedP,
    build_grid,
    cell_boxes,
    compress,
)
from .coverage import CoverageSweep, build_row_sums
from .instances import (
    FAMILIES,
    GeneratorSpec,
    ParseError,
    generate,
    parse,
    parse_text,
    serialize,
    serialize_text,
    strict_skyline,
)
from .model import (
    Instance,
    PointColumns,
    QueryPoint,
    Solution,
    WeightedPoint,
    dominates_closed,
    weight_of_dom,
)
from .oracle import oracle_solve
from .prng import SplitMix64
from .ranking import drop_uncovered, rank_transform, y_sorted_queries
from .render import render_svg
from .solver import (
    PipelineResult,
    dp_layers,
    run_pipeline,
    solve_pipeline,
    solve_reference,
)

__version__ = "0.1.0"

__all__ = [
    "CellGrid",
    "CellKey",
    "CompressedP",
    "CoverageSweep",
    "FAMILIES",
    "GeneratorSpec",
    "Instance",
    "ParseError",
    "PipelineResult",
    "PointColumns",
    "QueryPoint",
    "Solution",
    "SplitMix64",
    "WeightedPoint",
    "build_grid",
    "build_row_sums",
    "cell_boxes",
    "compress",
    "dominates_closed",
    "dp_layers",
    "drop_uncovered",
    "generate",
    "oracle_solve",
    "parse",
    "parse_text",
    "rank_transform",
    "render_svg",
    "run_pipeline",
    "serialize",
    "serialize_text",
    "solve_pipeline",
    "solve_reference",
    "strict_skyline",
    "weight_of_dom",
    "y_sorted_queries",
]

import maxdom

# The top-level API: instances and their files, the solvers and their
# results.  The stage internals (the grid, the coverage sweep, the rank
# transform, the engines) are imported from their own modules.
PUBLIC = [
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


def test_public_names_resolve_sorted_and_unique():
    names = maxdom.__all__
    assert [name for name in names if not hasattr(maxdom, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_public_names_are_pinned():
    assert maxdom.__all__ == PUBLIC

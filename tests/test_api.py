import maxdom


def test_public_names_resolve_sorted_and_unique():
    names = maxdom.__all__
    assert [name for name in names if not hasattr(maxdom, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)

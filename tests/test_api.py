import msshadow as ms


def test_all_names_resolve_once():
    assert len(ms.__all__) == len(set(ms.__all__))
    missing = [name for name in ms.__all__ if not hasattr(ms, name)]
    assert missing == []

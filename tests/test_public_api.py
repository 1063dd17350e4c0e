import qbarnes


def test_every_exported_name_resolves():
    # a deletion that leaves its name in __all__ fails here, not at a user's
    # `from qbarnes import *`
    assert [name for name in qbarnes.__all__ if not hasattr(qbarnes, name)] == []
    exec("from qbarnes import *", {})

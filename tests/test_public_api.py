import qbarnes
from qbarnes.exact_numbers import Frozen


def test_every_exported_name_resolves():
    # a deletion that leaves its name in __all__ fails here, not at a user's
    # `from qbarnes import *`
    assert [name for name in qbarnes.__all__ if not hasattr(qbarnes, name)] == []
    exec("from qbarnes import *", {})


def test_every_exported_value_type_is_frozen():
    # a slotted class of the package takes equality, hash, repr, immutability
    # and pickling from Frozen; PadicNumber alone stays out, since its
    # equality depends on precision and it is unhashable on purpose
    classes = [getattr(qbarnes, name) for name in qbarnes.__all__]
    slotted = [
        cls
        for cls in classes
        if isinstance(cls, type)
        and cls.__module__.startswith("qbarnes.")
        and "__slots__" in vars(cls)
    ]
    assert {cls.__name__ for cls in slotted if not issubclass(cls, Frozen)} == {"PadicNumber"}
    assert len(slotted) == 11

"""The package's export list against what the package binds."""

import importlib
import types

import pytest

import fusionq
import reference


def test_all_is_sorted_and_complete():
    """__all__ is sorted and is exactly the names bound on import plus the
    names served on first use.  Each resolves through getattr to the object
    of its defining module, and dir() lists them all.  No name defined in
    tests/reference.py is reachable from the package."""
    eager = {
        name
        for name, value in vars(fusionq).items()
        if not name.startswith("_")
        and not isinstance(value, types.ModuleType)
        and name not in fusionq._LAZY
    }
    assert fusionq.__all__ == sorted(fusionq.__all__)
    assert set(fusionq.__all__) == eager | set(fusionq._LAZY)
    assert not eager & set(fusionq._LAZY)
    assert set(fusionq.__all__) <= set(dir(fusionq))
    for name in fusionq.__all__:
        value = getattr(fusionq, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value
        if name in fusionq._LAZY:
            assert value.__module__ == f"fusionq.{fusionq._LAZY[name]}"
        else:
            assert value.__module__ in ("fusionq.cartan", "fusionq.fusion")
    assert fusionq.smatrix.NumericDegradationError is fusionq.NumericDegradationError
    with pytest.raises(AttributeError):
        fusionq.no_such_name
    # The test references are not part of the package.
    defined = [
        name
        for name, value in vars(reference).items()
        if getattr(value, "__module__", None) == "reference"
    ]
    assert "alcove_reduce" in defined
    assert not [name for name in defined if hasattr(fusionq, name)]

"""The package's export list against what the package binds."""

import types

import fusionq


def test_all_is_sorted_and_complete():
    public = {
        name
        for name, value in vars(fusionq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert fusionq.__all__ == sorted(fusionq.__all__)
    assert set(fusionq.__all__) == public

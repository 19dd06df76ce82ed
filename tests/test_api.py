"""The public API: ``__all__`` lists exactly what the package exports."""

import types

import fcontact
from fcontact import jets


def test_all_matches_the_exported_names():
    exported = {
        name
        for name, value in vars(fcontact).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(fcontact.__all__) == exported
    assert len(fcontact.__all__) == len(set(fcontact.__all__))


def test_jets_all_resolves():
    for name in jets.__all__:
        assert hasattr(jets, name), name


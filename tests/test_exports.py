"""The package's export list: every name in ``sgk.__all__`` resolves, none
appears twice, and every public attribute of the package is exported."""

import types

import sgk


def test_exports_resolve_once_and_cover_the_package():
    names = sgk.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(sgk, n)] == []
    public = {
        n for n, v in vars(sgk).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(public - set(names)) == []

from __future__ import annotations

import cspack


def test_all_names_resolve_once():
    assert len(set(cspack.__all__)) == len(cspack.__all__)
    missing = [name for name in cspack.__all__ if not hasattr(cspack, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict[str, object] = {}
    exec("from cspack import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cspack.__all__)

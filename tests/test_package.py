"""The package's public names."""

import gravnet


def test_star_import_resolves_every_exported_name():
    # a stale name in __all__ makes the star import itself raise
    namespace = {}
    exec("from gravnet import *", namespace)
    assert len(set(gravnet.__all__)) == len(gravnet.__all__)
    for name in gravnet.__all__:
        assert namespace[name] is getattr(gravnet, name), name

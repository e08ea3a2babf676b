"""The package's public names."""

import poisonlab as pl


def test_every_export_resolves_once():
    assert len(pl.__all__) == len(set(pl.__all__))
    missing = [name for name in pl.__all__ if not hasattr(pl, name)]
    assert not missing
    namespace = {}
    exec("from poisonlab import *", namespace)
    assert set(pl.__all__) <= set(namespace)

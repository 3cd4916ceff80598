"""The package's public surface."""

import sombor_trees


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sombor_trees import *", namespace)
    for name in sombor_trees.__all__:
        assert namespace[name] is getattr(sombor_trees, name)
    assert namespace["KERNEL_BACKEND"] in ("pure", "compiled")

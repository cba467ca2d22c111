"""The package's public surface: every exported name resolves."""

import evrl


def test_every_exported_name_resolves():
    assert [name for name in evrl.__all__ if not hasattr(evrl, name)] == []


def test_star_import_binds_all_exports():
    namespace = {}
    exec("from evrl import *", namespace)
    assert set(evrl.__all__) <= set(namespace)

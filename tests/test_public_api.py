"""The public namespace: every name in ``__all__`` must resolve."""

import stackzeta


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from stackzeta import *", namespace)
    assert set(stackzeta.__all__) <= set(namespace)


def test_every_exported_name_resolves():
    missing = [name for name in stackzeta.__all__ if not hasattr(stackzeta, name)]
    assert missing == []

"""The package's export list: every name in ``windmodal.__all__`` must
resolve, so an export left behind by a deletion fails here."""

import windmodal


def test_every_exported_name_resolves():
    missing = [name for name in windmodal.__all__
               if not hasattr(windmodal, name)]
    assert missing == []
    assert len(set(windmodal.__all__)) == len(windmodal.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from windmodal import *", namespace)
    assert set(windmodal.__all__) <= set(namespace)

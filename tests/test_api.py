import eegnet


def test_every_export_resolves():
    missing = [name for name in eegnet.__all__ if not hasattr(eegnet, name)]
    assert missing == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from eegnet import *", namespace)
    assert set(eegnet.__all__) <= set(namespace)


def test_exports_hold_no_duplicates():
    assert len(eegnet.__all__) == len(set(eegnet.__all__))

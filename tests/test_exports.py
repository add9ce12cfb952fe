import bosonbin


def test_all_lists_each_export_once_in_order():
    names = bosonbin.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(bosonbin, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from bosonbin import *", namespace)
    assert set(bosonbin.__all__) <= set(namespace)

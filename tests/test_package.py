import gspurify


def test_every_export_resolves_once():
    # A name left in __all__ after its definition is gone breaks
    # `from gspurify import *`; a repeated one is a copy left behind.
    assert len(set(gspurify.__all__)) == len(gspurify.__all__)
    missing = [name for name in gspurify.__all__ if not hasattr(gspurify, name)]
    assert not missing, f"gspurify.__all__ names what the package lacks: {missing}"

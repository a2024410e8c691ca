"""The package's public names."""
import wifipoi


def test_every_exported_name_resolves():
    assert [name for name in wifipoi.__all__ if not hasattr(wifipoi, name)] == []
    assert len(set(wifipoi.__all__)) == len(wifipoi.__all__)

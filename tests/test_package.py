import floqnet


def test_every_export_is_defined():
    missing = [name for name in floqnet.__all__ if getattr(floqnet, name, None) is None]
    assert missing == []

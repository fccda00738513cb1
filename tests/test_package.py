"""The package's public names."""
import levsketch


def test_every_exported_name_resolves():
    missing = [name for name in levsketch.__all__
               if not hasattr(levsketch, name)]
    assert missing == []

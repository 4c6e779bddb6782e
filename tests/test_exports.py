"""The package's export list names what the package holds, once each."""

from collections import Counter

import ptalgebra


def test_every_exported_name_resolves_and_is_listed_once():
    assert [name for name in ptalgebra.__all__ if not hasattr(ptalgebra, name)] == []
    assert [name for name, count in Counter(ptalgebra.__all__).items() if count > 1] == []

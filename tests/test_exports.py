import pytest

import hadaseg
import hadaseg.netkit


@pytest.mark.parametrize("package", [hadaseg, hadaseg.netkit], ids=lambda p: p.__name__)
def test_every_exported_name_exists(package):
    # A name left in __all__ after its import was dropped would break
    # ``from <package> import *``.
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []

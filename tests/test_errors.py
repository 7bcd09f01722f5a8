import os

import pytest

from mgfk import fsd
from mgfk.errors import MgfkError, require_memory


def test_require_memory_refuses_past_physical_memory():
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    require_memory(memory, "all of it")
    with pytest.raises(MgfkError, match=f"too much needs {memory + 1} bytes"):
        require_memory(memory + 1, "too much")


def unreadable(error):
    def sysconf(name):
        raise error(f"no {name}")

    return sysconf


@pytest.mark.parametrize("sysconf", [None, unreadable(ValueError), unreadable(OSError)])
def test_require_memory_refuses_nothing_where_memory_cannot_be_read(sysconf, monkeypatch):
    # os.sysconf exists on Unix only; elsewhere, or where it cannot answer
    # for its names, the guard lets everything through instead of raising
    # AttributeError from every tape, stepper and `mgfk coeffs`
    if sysconf is None:
        monkeypatch.delattr(os, "sysconf")
    else:
        monkeypatch.setattr(os, "sysconf", sysconf)
    require_memory(2**80, "more than any machine has")
    assert fsd.FsdCoefficients.build(0.3, 2, 1.0, 0.1, 8).l.shape == (9,)

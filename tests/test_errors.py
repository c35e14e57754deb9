import pickle

import pytest

from agmod import errors


def _error_types():
    seen, todo = [], [errors.AgmodError]
    while todo:
        kind = todo.pop()
        seen.append(kind)
        todo.extend(kind.__subclasses__())
    return seen


@pytest.mark.parametrize("kind", _error_types(), ids=lambda kind: kind.__name__)
def test_errors_survive_pickling(kind):
    # a worker's error crosses the process boundary as a pickle: it must
    # come back with its type, text, args, details and cap
    if kind is errors.ResourceLimitError:
        exc = kind("more than 3 submodules (lattice cap)", 3)
        exc.details = ["extra"]
    else:
        exc = kind("bad input", ["field"])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is kind
    assert str(back) == str(exc) and back.args == exc.args == (str(exc),)
    assert back.details == exc.details
    assert getattr(back, "limit", None) == getattr(exc, "limit", None)


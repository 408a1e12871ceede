"""The README's "Array evaluation" example runs as printed, and its values
have the shapes and agreements that its comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _array_evaluation_block() -> str:
    """The first python block of the README's "Array evaluation" section."""
    section = README.read_text().split("## Array evaluation", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_array_evaluation_example_runs_as_printed():
    scope = {}
    exec(compile(_array_evaluation_block(), str(README), "exec"), scope)
    assert scope["E"].shape == (9, 1, 22)
    assert scope["W"].shape == scope["F"].shape == (5, 1, 22)
    assert scope["h"].shape == (22,) and scope["b"].bracket[0].shape == (22, 2)
    assert scope["b"].tail[0].shape == (22,)
    assert scope["b3"].n_max == 3 and scope["E4"].shape == (9, 1)
    w_all, m, t, s = scope["W_all"], scope["m"], scope["t"], scope["s"]
    assert w_all.shape == (5, 21, 42)
    own = scope["basis"](2.5, m, 20)
    scale = np.max(np.abs(own.imag(t)), axis=0)
    assert np.all(np.abs(w_all[:, [3]] - own.imag(t)) <= 1e-13 * scale)
    scale = np.max(np.abs(own.real(s)), axis=0)
    assert np.all(np.abs(scope["orders"].real(s)[:, [3]] - own.real(s)) <= 1e-14 * scale)

import numpy as np
import pytest

from noisebits.expr import Product
from noisebits.reference import build_reference_system
from noisebits.window import materialize

from delayline import DelayLineRegister, delay_line_reference_values


@pytest.mark.parametrize("n_eff", [1, 2, 3])
@pytest.mark.parametrize("start", [0, 97])
def test_register_matches_index_offsets(n_eff, start):
    seed = 42
    length = 2000
    rows = delay_line_reference_values(seed, n_eff, start, length)
    assert rows.shape == (2 * n_eff, length)
    sys = build_reference_system(seed, n_eff)
    for o in range(2 * n_eff):
        want = materialize(sys.source, Product((o,)), start, length).values
        assert np.array_equal(rows[o], want), f"offset {o} diverged"


def test_zero_depth_register_is_the_wave():
    reg = DelayLineRegister(42, 0)
    rows = reg.run(0, 256)
    want = materialize(42, Product((0,)), 0, 256).values
    assert np.array_equal(rows[0], want)


def test_depth_validation():
    with pytest.raises(ValueError):
        DelayLineRegister(42, -1)

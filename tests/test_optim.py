import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from predfuse.optim import Adam


def out_of_place(params, grads, lr):
    """The textbook ADAM update, a new array at every operation; yields the
    parameters and both moments after each step."""
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, grad in enumerate(grads, start=1):
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        params = params - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        yield params, m, v


_GRADIENT = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-320, 1e300, -1e300, np.inf, -np.inf, np.nan]))


@st.composite
def _runs(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    steps = draw(st.integers(1, 60))
    params = draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    grads = draw(arrays(np.float64, (steps, *shape), elements=_GRADIENT))
    lr = draw(st.sampled_from([1e-3, 0.05, 1.0, 1e300]) | st.floats(1e-6, 10.0))
    return params, grads, lr


class TestInPlaceStep:
    @given(_runs())
    def test_bits_of_the_out_of_place_formula(self, run):
        params, grads, lr = run
        opt = Adam(params.shape, lr=lr)
        mine = params.copy()
        with np.errstate(all="ignore"):
            for grad, (want, m, v) in zip(grads, out_of_place(params, grads, lr)):
                assert opt.step(mine, grad) is mine
                assert mine.tobytes() == want.tobytes()
                assert opt.m.tobytes() == m.tobytes()
                assert opt.v.tobytes() == v.tobytes()
        assert opt.t == len(grads)

"""Autograd engine tests: op correctness and numeric gradient checks."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    as_tensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        grad.ravel()[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build, shape, seed=0, atol=1e-5):
    """Compare autograd gradient of sum(build(x)) against finite differences."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)
    with default_dtype(np.float64):
        t = Tensor(x0.copy(), requires_grad=True)
        out = build(t)
        out.sum().backward()
        auto = t.grad.copy()

        def scalar(arr):
            return build(Tensor(arr)).sum().item()

        num = numeric_grad(scalar, x0.copy())
    np.testing.assert_allclose(auto, num, atol=atol, rtol=1e-4)


class TestDtypeControl:
    def test_default_is_float32(self):
        assert get_default_dtype() == np.dtype(np.float32)
        assert Tensor([1.0]).data.dtype == np.float32

    def test_context_manager_restores(self):
        with default_dtype(np.float64):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_rejects_int_dtype(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)


class TestBasicOps:
    def test_add_forward(self):
        c = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(c.numpy(), [4.0, 6.0])

    def test_scalar_broadcast(self):
        c = Tensor([[1.0, 2.0]]) * 3.0
        np.testing.assert_allclose(c.numpy(), [[3.0, 6.0]])

    def test_radd_rsub_rmul(self):
        t = Tensor([2.0])
        np.testing.assert_allclose((1.0 + t).numpy(), [3.0])
        np.testing.assert_allclose((1.0 - t).numpy(), [-1.0])
        np.testing.assert_allclose((3.0 * t).numpy(), [6.0])
        np.testing.assert_allclose((8.0 / t).numpy(), [4.0])

    def test_matmul_shapes(self):
        out = Tensor(np.ones((3, 4))) @ Tensor(np.ones((4, 5)))
        assert out.shape == (3, 5)

    def test_getitem(self):
        t = Tensor(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(t[1].numpy(), [2.0, 3.0])

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_detach_cuts_tape(self):
        t = Tensor([1.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestGradients:
    def test_add(self):
        check_gradient(lambda t: t + t * 2.0, (3, 4))

    def test_mul(self):
        check_gradient(lambda t: t * t, (4,))

    def test_div(self):
        check_gradient(lambda t: t / (t * t + 2.0), (5,))

    def test_pow(self):
        check_gradient(lambda t: t**3, (6,))

    def test_matmul(self):
        w = np.random.default_rng(1).normal(size=(4, 2))
        with default_dtype(np.float64):
            wt = Tensor(w)
            check_gradient(lambda t: t @ wt, (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=0), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: t.mean(axis=1), (3, 4))

    def test_max(self):
        # Perturb away from ties for a well-defined subgradient.
        check_gradient(lambda t: t.max(axis=1), (5, 7), seed=3)

    def test_reshape_transpose(self):
        check_gradient(lambda t: (t.reshape(6, 2).T * 2.0), (3, 4))

    def test_getitem_grad(self):
        idx = np.array([0, 2, 2])
        check_gradient(lambda t: t[idx] * 3.0, (4, 2))

    def test_diamond_reuse(self):
        """A tensor consumed twice accumulates both paths' gradients."""
        with default_dtype(np.float64):
            t = Tensor([1.0, 2.0], requires_grad=True)
            y = t * 3.0
            z = (y + y * 2.0).sum()
            z.backward()
            np.testing.assert_allclose(t.grad, [9.0, 9.0])

    def test_grad_accumulates_across_backward(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None


class _Counted(np.ndarray):
    """An array that counts the ufunc calls it takes part in, by name."""

    calls: dict = {}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.calls[ufunc.__name__] = _Counted.calls.get(ufunc.__name__, 0) + 1
        plain = [np.asarray(i) if isinstance(i, _Counted) else i for i in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestNoGradientForConstants:
    """Backward closures used to build the gradient of *both* operands and
    let ``_accumulate_fresh`` drop the one nobody asked for — in every first
    layer that is ``grad @ W.T``, the size of the feature matrix."""

    def _operands(self, const_shape, param_shape):
        rng = np.random.default_rng(0)
        const = Tensor(rng.normal(size=const_shape))
        param = Tensor(rng.normal(size=param_shape) + 3.0, requires_grad=True)
        const.data = const.data.view(_Counted)
        param.data = param.data.view(_Counted)
        _Counted.calls = {}
        return const, param

    def test_const_matmul_param_performs_one_backward_product(self):
        const, param = self._operands((6, 4), (4, 3))
        out = const @ param
        assert _Counted.calls == {"matmul": 1}
        out.backward(np.ones((6, 3), dtype=np.float32))
        # forward + the parameter's gradient; not the constant's
        assert _Counted.calls == {"matmul": 2}
        assert const.grad is None
        np.testing.assert_array_equal(
            param.grad, np.asarray(const.data).T @ np.ones((6, 3), dtype=np.float32)
        )

    def test_param_matmul_const_mirrors_it(self):
        const, param = self._operands((4, 3), (6, 4))
        (param @ const).backward(np.ones((6, 3), dtype=np.float32))
        assert _Counted.calls == {"matmul": 2}
        assert const.grad is None and param.grad.shape == (6, 4)

    @pytest.mark.parametrize(
        "op,products",
        [(lambda c, p: c * p, {"multiply": 2}), (lambda c, p: p / c, {"divide": 2})],
        ids=["mul", "div"],
    )
    def test_elementwise_ops_skip_the_constant_too(self, op, products):
        const, param = self._operands((5, 2), (5, 2))
        op(const, param).backward(np.ones((5, 2), dtype=np.float32))
        assert _Counted.calls == products  # forward + one gradient
        assert const.grad is None and param.grad is not None

    def test_results_are_byte_identical_when_both_need_gradients(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        seed = rng.normal(size=(5, 3)).astype(np.float32)
        (a @ b).backward(seed)
        np.testing.assert_array_equal(a.grad, seed @ b.data.T)
        np.testing.assert_array_equal(b.grad, a.data.T @ seed)


class TestNoGrad:
    def test_no_tape_inside_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_nested_restores(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_on_one_thread_leaves_another_recording(self):
        entered, done = threading.Event(), threading.Event()

        def evaluate():
            with no_grad():
                entered.set()
                done.wait(5)

        thread = threading.Thread(target=evaluate)
        thread.start()
        try:
            assert entered.wait(5)
            assert is_grad_enabled()
            assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad
        finally:
            done.set()
            thread.join(5)
        assert not thread.is_alive()

    def test_overlapping_blocks_on_two_threads_leave_grad_on(self):
        """A enters, B enters, A exits, B exits.  With one process-wide flag
        B restores the ``False`` it saw on entry and every later training in
        the process runs without gradients; grad mode is per thread."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen: dict[str, bool] = {}

        def first():
            with no_grad():
                a_in.set()
                b_in.wait(5)
            seen["a_after"] = is_grad_enabled()
            a_out.set()

        def second():
            a_in.wait(5)
            with no_grad():
                b_in.set()
                a_out.wait(5)
                seen["b_inside"] = is_grad_enabled()
            seen["b_after"] = is_grad_enabled()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert seen == {"a_after": True, "b_inside": False, "b_after": True}
        assert is_grad_enabled()
        assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_broadcast_grad_property(rows, cols, seed):
    """Gradient of broadcast ops sums over broadcast axes (shape invariant)."""
    rng = np.random.default_rng(seed)
    with default_dtype(np.float64):
        a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        b = Tensor(rng.normal(size=(cols,)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (rows, cols)
        assert b.grad.shape == (cols,)
        # b's gradient is the column sums of a.
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0), rtol=1e-10)

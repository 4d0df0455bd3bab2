"""Kernel parity suite (``docs/kernels.md`` contract).

``reference`` must be byte-identical to the pre-refactor spmm path —
forward *and* backward — on every conv type; optimized kernels must match
within float32 tolerance on random CSR graphs including empty-row and
single-node edge cases; and a real training run's loss trajectory must obey
the same split (bit-exact for ``reference``, tolerance-bounded otherwise).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd.functional import nll_loss, relu
from repro.autograd.sparse import normalized_adjacency, spmm
from repro.autograd.tensor import Tensor
from repro.config.settings import KERNEL_NAMES, TaskSpec, TrainingConfig
from repro.errors import ConfigError
from repro.graphs.csr import CSRGraph
from repro.nn.graphconv import Propagation
from repro.nn.models import build_model
from repro.runtime.backend import RuntimeBackend
from repro.runtime.kernels import (
    ParallelKernel,
    SpmmKernel,
    get_kernel,
    kernel_counters,
    kernel_names,
    register_kernel,
    reset_kernel_counters,
)

OPTIMIZED = tuple(name for name in KERNEL_NAMES if name != "reference")

#: float32 tolerance for kernels that reassociate sums (docs/kernels.md)
TOL = dict(rtol=1e-4, atol=1e-5)


def _random_csr(
    n_rows: int, n_cols: int, density: float, seed: int, *, empty_rows: int = 0
) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    matrix = sp.random(
        n_rows, n_cols, density=density, format="csr",
        dtype=np.float32, random_state=np.random.RandomState(seed),
    )
    if empty_rows:
        rows = rng.choice(n_rows, size=empty_rows, replace=False)
        mask = np.ones(n_rows, dtype=np.float32)
        mask[rows] = 0.0
        matrix = sp.diags(mask).astype(np.float32) @ matrix
        matrix.eliminate_zeros()
        matrix = matrix.tocsr()
    return matrix


# ---------------------------------------------------------------- registry
class TestRegistry:
    def test_registry_matches_config_names(self):
        assert set(kernel_names()) == set(KERNEL_NAMES)

    def test_get_kernel_returns_singleton(self):
        assert get_kernel("reference") is get_kernel("reference")

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("cusparse")

    def test_reregistering_name_raises(self):
        class Impostor(SpmmKernel):
            name = "reference"

        with pytest.raises(ValueError, match="already registered"):
            register_kernel(Impostor)

    def test_abstract_name_rejected(self):
        class Nameless(SpmmKernel):
            pass

        with pytest.raises(ValueError, match="concrete"):
            register_kernel(Nameless)


# ------------------------------------------------------------------ config
class TestConfigKernelField:
    def test_default_is_reference(self, monkeypatch):
        # CI's kernels matrix runs this file under each REPRO_KERNEL
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert TrainingConfig().kernel == "reference"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "parallel")
        assert TrainingConfig().kernel == "parallel"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            TrainingConfig(kernel="cusparse")

    def test_roundtrips_through_dict(self):
        cfg = TrainingConfig(kernel="fused")
        assert cfg.to_dict()["kernel"] == "fused"
        assert TrainingConfig.from_dict(cfg.to_dict()) == cfg

    def test_describe_mentions_non_default_kernel(self):
        assert "kernel=fused" in TrainingConfig(kernel="fused").describe()
        assert "kernel=" not in TrainingConfig(kernel="reference").describe()

    def test_feature_vector_excludes_kernel(self):
        # Estimator feature stability: the analytic cost model is
        # kernel-independent, so the encoding must not fork on it.
        names = TrainingConfig.feature_names()
        assert not any("kernel" in name for name in names)
        assert TrainingConfig(kernel="parallel").as_features().shape == (
            len(names),
        )
        np.testing.assert_array_equal(
            TrainingConfig(kernel="parallel").as_features(),
            TrainingConfig().as_features(),
        )


# ------------------------------------------------------------- raw parity
class TestRawSpmmParity:
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize(
        "shape,density,empty_rows",
        [((80, 80), 0.1, 0), ((120, 120), 0.05, 17), ((1, 1), 1.0, 0)],
        ids=["dense-ish", "empty-rows", "single-node"],
    )
    def test_matches_scipy_product(self, kernel_name, shape, density, empty_rows):
        matrix = _random_csr(*shape, density, seed=3, empty_rows=empty_rows)
        x = Tensor(
            np.random.default_rng(4).standard_normal((shape[1], 8)),
            requires_grad=True,
        )
        kernel = get_kernel(kernel_name)

        out = kernel.spmm(matrix, x)
        expected = spmm(matrix, x)
        out.sum().backward()
        grad = x.grad.copy()
        x.zero_grad()
        expected.sum().backward()

        if kernel.bit_exact:
            np.testing.assert_array_equal(out.data, expected.data)
            np.testing.assert_array_equal(grad, x.grad)
        else:
            np.testing.assert_allclose(out.data, expected.data, **TOL)
            np.testing.assert_allclose(grad, x.grad, **TOL)

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_symmetric_and_transposed_backward(self, kernel_name):
        n = 60
        g = CSRGraph.from_edges(
            n,
            np.random.default_rng(5).integers(0, n, 400),
            np.random.default_rng(6).integers(0, n, 400),
        )
        sym = normalized_adjacency(g.indptr, g.indices, n, mode="sym")
        row = normalized_adjacency(g.indptr, g.indices, n, mode="row")
        row_t = row.T.tocsr()
        kernel = get_kernel(kernel_name)
        for kwargs, matrix in (
            ({"symmetric": True}, sym),
            ({"transposed": row_t}, row),
            ({}, row),
        ):
            x = Tensor(
                np.random.default_rng(7).standard_normal((n, 6)),
                requires_grad=True,
            )
            kernel.spmm(matrix, x, **kwargs).sum().backward()
            got = x.grad.copy()
            x.zero_grad()
            spmm(matrix, x, **kwargs).sum().backward()
            np.testing.assert_allclose(got, x.grad, **TOL)


# ---------------------------------------------------------- fused epilogue
class TestFusedEpilogue:
    @pytest.mark.parametrize("with_add", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("activation", [None, "relu"])
    def test_matches_composed_ops(self, with_add, with_bias, activation):
        n, d = 90, 12
        matrix = _random_csr(n, n, 0.08, seed=9)
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        add = Tensor(rng.standard_normal((n, d)), requires_grad=True) if with_add else None
        bias = Tensor(rng.standard_normal(d), requires_grad=True) if with_bias else None

        fused = get_kernel("fused").spmm_epilogue(
            matrix, x, add=add, bias=bias, activation=activation
        )
        composed = spmm(matrix, x)
        if add is not None:
            composed = composed + add
        if bias is not None:
            composed = composed + bias
        if activation == "relu":
            composed = relu(composed)
        np.testing.assert_array_equal(fused.data, composed.data)

        fused.sum().backward()
        grads = [
            t.grad.copy() for t in (x, add, bias) if t is not None
        ]
        for t in (x, add, bias):
            if t is not None:
                t.zero_grad()
        composed.sum().backward()
        for got, t in zip(grads, [t for t in (x, add, bias) if t is not None]):
            np.testing.assert_allclose(got, t.grad, **TOL)

    def test_elu_falls_back_to_composed_path(self):
        # The fused kernel declines to fuse elu; the result must still be
        # correct (it routes through the base-class composition).
        matrix = _random_csr(40, 40, 0.1, seed=11)
        x = Tensor(np.random.default_rng(12).standard_normal((40, 4)))
        from repro.autograd.functional import elu

        out = get_kernel("fused").spmm_epilogue(matrix, x, activation="elu")
        np.testing.assert_array_equal(out.data, elu(spmm(matrix, x)).data)


# ----------------------------------------------------------- model parity
class TestModelParity:
    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat"])
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_forward_backward_vs_legacy_path(self, small_graph, arch, kernel_name):
        """Every conv type, every kernel, against the ``kernel=None``
        pre-refactor path: bit-exact for ``reference``, tolerance-bounded
        otherwise (forward output and every parameter gradient)."""

        def run(kernel):
            model = build_model(
                arch,
                small_graph.feature_dim,
                small_graph.num_classes,
                hidden_channels=16,
                dropout_p=0.0,
                seed=42,
            )
            model.train()
            prop = Propagation.from_graph(small_graph, kernel=kernel)
            out = model(Tensor(small_graph.features), prop)
            loss = nll_loss(out, small_graph.labels)
            loss.backward()
            return out.data, [p.grad for p in model.parameters()]

        legacy_out, legacy_grads = run(None)
        kernel = get_kernel(kernel_name)
        out, grads = run(kernel)
        if kernel.bit_exact:
            np.testing.assert_array_equal(out, legacy_out)
            for got, want in zip(grads, legacy_grads, strict=True):
                np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(out, legacy_out, **TOL)
            for got, want in zip(grads, legacy_grads, strict=True):
                np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-4)


# -------------------------------------------------------- loss trajectory
class TestLossTrajectoryGuard:
    def _losses(self, small_graph, kernel_name, *, legacy=False):
        task = TaskSpec(dataset="tiny", arch="gcn", epochs=2, lr=0.02)
        config = TrainingConfig(
            batch_size=128, hidden_channels=16, kernel=kernel_name
        )
        backend = RuntimeBackend(task, config, graph=small_graph)
        if legacy:  # exercise the exact pre-refactor spmm code path
            backend.kernel = None
            backend._full_prop.kernel = None
        report = backend.train()
        return np.array([e.loss for e in report.epochs]), report.accuracy

    def test_reference_bit_identical_to_legacy(self, small_graph):
        legacy_losses, legacy_acc = self._losses(
            small_graph, "reference", legacy=True
        )
        losses, acc = self._losses(small_graph, "reference")
        np.testing.assert_array_equal(losses, legacy_losses)
        assert acc == legacy_acc

    @pytest.mark.parametrize("kernel_name", OPTIMIZED)
    def test_optimized_within_tolerance(self, small_graph, kernel_name):
        legacy_losses, _ = self._losses(small_graph, "reference", legacy=True)
        losses, _ = self._losses(small_graph, kernel_name)
        np.testing.assert_allclose(losses, legacy_losses, rtol=1e-3, atol=1e-4)


# -------------------------------------------------------- plans + counters
class TestPlansAndCounters:
    def test_plan_cached_per_matrix_and_invalidated_on_mutation(self):
        kernel = get_kernel("reference")  # _plan lives on the base class
        matrix = _random_csr(64, 64, 0.1, seed=13)
        builds = []

        def build(m):
            builds.append(m)
            return "plan"

        assert kernel._plan(matrix, build) == "plan"
        assert kernel._plan(matrix, build) == "plan"
        assert len(builds) == 1  # cached across calls, same topology
        # Rebinding the CSR arrays (in-place topology change) must miss.
        matrix.indices = matrix.indices.copy()
        assert kernel._plan(matrix, build) == "plan"
        assert len(builds) == 2
        # A new matrix object naturally starts cold.
        other = _random_csr(64, 64, 0.1, seed=14)
        kernel._plan(other, build)
        assert len(builds) == 3

    def test_parallel_blocks_are_nnz_balanced_and_exact(self, monkeypatch):
        import repro.runtime.kernels.parallel as par

        monkeypatch.setattr(par, "MIN_PARALLEL_NNZ", 1)
        kernel = ParallelKernel(num_workers=4)
        try:
            # skewed matrix: hub rows first, then a long sparse tail
            matrix = sp.vstack(
                [
                    _random_csr(8, 300, 0.9, seed=15),
                    _random_csr(292, 300, 0.01, seed=16),
                ]
            ).tocsr()
            plan = kernel._build_plan(matrix)
            assert plan is not None and len(plan) >= 2
            assert plan[0][0] == 0 and plan[-1][1] == matrix.shape[0]
            sizes = [matrix.indptr[hi] - matrix.indptr[lo] for lo, hi, _ in plan]
            assert max(sizes) <= 2 * (matrix.nnz / len(plan)) + max(
                np.diff(matrix.indptr)
            )
            dense = np.random.default_rng(17).standard_normal((300, 5))
            np.testing.assert_allclose(
                kernel._matmul(matrix, dense), matrix @ dense, **TOL
            )
        finally:
            kernel.close()

    def test_parallel_close_is_idempotent(self):
        kernel = ParallelKernel(num_workers=2)
        kernel.close()
        kernel.close()

    def test_counters_accumulate_per_kernel(self):
        reset_kernel_counters()
        matrix = _random_csr(30, 30, 0.2, seed=18)
        x = Tensor(np.random.default_rng(19).standard_normal((30, 3)))
        get_kernel("reference").spmm(matrix, x)
        counters = kernel_counters()
        assert counters["reference"]["calls"] >= 1
        assert counters["reference"]["seconds"] >= 0.0
        reset_kernel_counters()
        assert kernel_counters() == {}


# ------------------------------------------------------ backend threading
class TestBackendThreading:
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_backend_selects_configured_kernel(self, small_graph, kernel_name):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        backend = RuntimeBackend(
            task,
            TrainingConfig(kernel=kernel_name, hidden_channels=16),
            graph=small_graph,
        )
        assert backend.kernel.name == kernel_name
        assert backend._full_prop.kernel is backend.kernel

    def test_server_exposes_and_sweeps_kernel_gauges(self, tmp_path):
        from repro.serving import NavigationServer
        from repro.serving.metrics import labeled

        server = NavigationServer(workers=1, cache_dir=None, autostart=False)
        name = labeled("kernel_spmm_calls", kernel="reference")
        assert name in server.metrics.snapshot()
        server.stop()
        assert name not in server.metrics.snapshot()
        server.start()  # restart re-registers the labeled series
        try:
            assert name in server.metrics.snapshot()
        finally:
            server.stop()

"""Randomized serving-parity suite: compiled plans vs module path vs session.

The harness itself lives in :mod:`tests.serve.parity` so other suites (and
future backends) can import :func:`assert_serving_parity` and
:func:`random_quantized_model` directly; this file drives it across seeds,
backends and the paper's headline architecture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import gated_attention_net, resnet18, resnet20
from repro.nn import Tensor
from repro.serve import InferenceEngine, InferencePlan

from .parity import assert_serving_parity, random_quantized_model

FAST_SEEDS = tuple(range(8))
# The loop-level reference backend is slow, so it covers a sampled subset —
# plus CI runs the whole file under REPRO_BACKEND=numpy for the full matrix.
NUMPY_SEEDS = (1, 4, 9)


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_random_model_parity(self, seed):
        model, shape = random_quantized_model(seed)
        assert_serving_parity(model, shape, backends=("fast",))

    @pytest.mark.parametrize("seed", NUMPY_SEEDS)
    def test_random_model_parity_reference_backend(self, seed):
        model, shape = random_quantized_model(seed)
        assert_serving_parity(model, shape, backends=("numpy",))

    def test_generator_is_deterministic(self):
        first, shape = random_quantized_model(3)
        second, _ = random_quantized_model(3)
        x = np.random.default_rng(0).standard_normal((2, *shape)).astype(np.float32)
        np.testing.assert_array_equal(
            InferenceEngine(first).predict_logits(x),
            InferenceEngine(second).predict_logits(x),
        )

    def test_generator_covers_both_topologies_and_shortcut_kinds(self):
        joins, identity, projection, flatten_heads = [], 0, 0, 0
        for seed in FAST_SEEDS:
            model, shape = random_quantized_model(seed)
            plan = InferencePlan.trace(model, shape)
            joins.append(plan.meta["residual_joins"])
            identity += plan.meta["identity_shortcuts"]
            projection += plan.meta["projection_shortcuts"]
            flatten_heads += int(model.use_flatten)
        assert any(count > 0 for count in joins), "no residual models generated"
        assert any(count == 0 for count in joins), "no pure chains generated"
        assert identity > 0 and projection > 0
        assert 0 < flatten_heads < len(FAST_SEEDS)

    def test_generator_covers_dag_joins_and_never_falls_back(self):
        """ISSUE 9 acceptance: every seed compiles — there is no fallback
        class left — and the pool exercises mul joins, concat joins and
        multi-output heads."""
        mul = cat = multi = 0
        for seed in range(24):
            model, shape = random_quantized_model(seed)
            plan = InferencePlan.trace(model, shape)  # raises if untraceable
            mul += plan.meta["mul_joins"]
            cat += plan.meta["concat_joins"]
            multi += int(model.multi_output)
            if model.multi_output:
                assert plan.meta["output_slots"] == 2
        assert mul > 0, "no mul-join models generated"
        assert cat > 0, "no concat-join models generated"
        assert multi > 0, "no multi-output models generated"


class TestDagShapeParity:
    """Mul joins, concat heads and named output slots hold the parity contract."""

    def _gated(self, rng, **kwargs):
        config = dict(
            num_classes=5, base_channels=8, num_blocks=1, groups=4,
            input_size=8, seed=0,
        )
        config.update(kwargs)
        model = gated_attention_net(**config)
        model(Tensor(rng.standard_normal((8, 3, 8, 8)).astype(np.float32)))
        model.eval()
        return model

    @pytest.mark.parametrize("backend", ["fast", "numpy"])
    def test_gated_attention_parity(self, rng, backend):
        model = self._gated(rng)
        assert_serving_parity(model, (3, 8, 8), batch=2, backends=(backend,))

    @pytest.mark.parametrize("backend", ["fast", "numpy"])
    def test_multi_output_head_parity(self, rng, backend):
        model = self._gated(rng, aux_head=True)
        assert_serving_parity(model, (3, 8, 8), batch=2, backends=(backend,))

    @pytest.mark.parametrize("backend", ["fast", "numpy"])
    def test_depthwise_grouped_conv_parity(self, rng, backend):
        # groups == channels: every group convolves a single channel.
        model = self._gated(rng, groups=8)
        assert_serving_parity(model, (3, 8, 8), batch=2, backends=(backend,))

    def test_plan_report_classifies_the_new_shapes(self, rng):
        model = self._gated(rng, num_blocks=2, aux_head=True)
        engine = InferenceEngine(model)
        engine.predict_logits(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        plan = engine.plan_report()["plan"]
        assert plan["mul_joins"] == 2          # one per gated block
        assert plan["residual_joins"] == 2     # each block ends in an add
        assert plan["concat_joins"] == 1       # the grouped conv re-join
        assert plan["output_slots"] == 2       # {"logits", "aux"}
        kinds = plan["step_kinds"]
        assert kinds["ResidualMulStep"] == 2
        assert kinds["ConcatStep"] == 1
        assert kinds["SigmoidStep"] == 2
        assert kinds["ChannelSliceStep"] == 4  # one zero-copy view per group
        assert kinds["OutputsStep"] == 1


class TestResNetParity:
    """The acceptance case: the paper's architecture serves from compiled plans."""

    def _warmed(self, builder, shape, rng, **kwargs):
        model = builder(**kwargs)
        model(Tensor(rng.standard_normal((8, *shape)).astype(np.float32)))
        model.eval()
        return model

    def test_resnet18_parity_fast_backend(self, rng):
        model = self._warmed(
            resnet18, (3, 16, 16), rng,
            num_classes=4, width_multiplier=0.125, input_size=16, seed=0,
        )
        assert_serving_parity(model, (3, 16, 16), batch=2)

    def test_resnet18_parity_reference_backend(self, rng):
        model = self._warmed(
            resnet18, (3, 8, 8), rng,
            num_classes=4, width_multiplier=0.125, input_size=8, seed=0,
        )
        assert_serving_parity(model, (3, 8, 8), batch=2, backends=("numpy",))

    def test_resnet20_three_stage_variant_compiles(self, rng):
        model = self._warmed(
            resnet20, (3, 16, 16), rng,
            num_classes=4, width_multiplier=0.5, input_size=16, seed=0,
        )
        assert_serving_parity(model, (3, 16, 16), batch=2, check_integer=False)

    def test_resnet18_engine_reports_compiled_not_fallback(self, rng):
        model = self._warmed(
            resnet18, (3, 16, 16), rng,
            num_classes=4, width_multiplier=0.125, input_size=16, seed=0,
        )
        engine = InferenceEngine(model)
        engine.predict_logits(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        report = engine.plan_report()
        assert report["state"] == "compiled"
        assert report["plan"]["residual_joins"] == 8
        assert report["plan"]["identity_shortcuts"] == 5
        assert report["plan"]["projection_shortcuts"] == 3

    def test_resnet_mixed_bit_assignment_stays_bitwise(self, rng):
        model = self._warmed(
            resnet18, (3, 16, 16), rng,
            num_classes=4, width_multiplier=0.125, input_size=16, seed=0,
        )
        free = [n for n, l in model.quantizable_layers().items() if not l.pinned]
        model.apply_assignment(
            {name: (2 if i % 2 else 4) for i, name in enumerate(free)}
        )
        assert_serving_parity(model, (3, 16, 16), batch=2)

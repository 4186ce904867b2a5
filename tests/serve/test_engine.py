"""Inference engine: plan compilation, parity, batching, refusal boundary."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.backend import use_backend
from repro.models import resnet18, simple_cnn, vgg11
from repro.nn import Tensor
from repro.nn.tensor import no_grad
from repro.quant import IntegerInferenceSession
from repro.serve import InferenceEngine, InferencePlan, PlanTraceError

from .parity import (
    FlattenAfterDivisionNet,
    FlattenAfterScaleNet,
    FlattenAfterShiftNet,
    MendableNet,
    UntraceableNet,
)


def _warmed_model(builder, shape, rng, **kwargs):
    """Build a model and populate its BatchNorm running statistics."""
    model = builder(**kwargs)
    model(Tensor(rng.standard_normal((8, *shape)).astype(np.float32)))
    model.eval()
    return model


def _assert_mostly_close(got, want, frac=0.999, atol=1e-4, rtol=1e-3):
    """Parity up to rare one-step PACT staircase flips (see plan docstring)."""
    within = np.abs(got - want) <= atol + rtol * np.abs(want)
    assert within.mean() >= frac, (
        f"only {within.mean():.4f} of outputs within tolerance "
        f"(max diff {np.abs(got - want).max():.3e})"
    )


@pytest.fixture
def cnn(rng):
    return _warmed_model(
        simple_cnn, (3, 12, 12), rng, num_classes=4, input_size=12, channels=4, seed=0
    )


@pytest.fixture
def vgg(rng):
    return _warmed_model(
        vgg11, (3, 32, 32), rng,
        num_classes=10, width_multiplier=0.125, input_size=32, seed=0,
    )


class TestFloatParity:
    @pytest.mark.parametrize("backend", ["fast", "numpy"])
    def test_simple_cnn_matches_module_forward(self, cnn, rng, backend):
        x = rng.standard_normal((5, 3, 12, 12)).astype(np.float32)
        with use_backend(backend):
            with no_grad():
                want = cnn(Tensor(x)).data
            got = InferenceEngine(cnn).predict_logits(x)
        _assert_mostly_close(got, want)

    def test_vgg_matches_module_forward(self, vgg, rng):
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        with no_grad():
            want = vgg(Tensor(x)).data
        engine = InferenceEngine(vgg)
        got = engine.predict_logits(x)
        assert engine.plan_report()["state"] == "compiled"
        _assert_mostly_close(got, want)

    def test_fused_plan_equals_unfused_eval_predictions(self, vgg, rng):
        # The fused BN/PACT kernels must leave classification unchanged.
        x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
        with no_grad():
            reference = vgg(Tensor(x)).data.argmax(axis=-1)
        engine_predictions = InferenceEngine(vgg).predict(x)
        assert (engine_predictions == reference).mean() >= 0.95


class TestIntegerParity:
    @pytest.mark.parametrize("backend", ["fast", "numpy"])
    def test_matches_integer_session(self, cnn, rng, backend):
        x = rng.standard_normal((5, 3, 12, 12)).astype(np.float32)
        with use_backend(backend):
            want = IntegerInferenceSession(cnn).run(x)
            got = InferenceEngine(cnn, mode="integer").predict_logits(x)
        _assert_mostly_close(got, want)

    def test_matches_float_forward_to_roundoff(self, cnn, rng):
        x = rng.standard_normal((5, 3, 12, 12)).astype(np.float32)
        with no_grad():
            want = cnn(Tensor(x)).data
        got = InferenceEngine(cnn, mode="integer").predict_logits(x)
        _assert_mostly_close(got, want, atol=1e-3)


class TestBatchingAndLifecycle:
    def test_batched_predict_equals_single_batch(self, cnn, rng):
        x = rng.standard_normal((11, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        whole = engine.predict_logits(x)
        sliced = engine.predict_logits(x, batch_size=3)
        np.testing.assert_allclose(sliced, whole, rtol=1e-5, atol=1e-6)

    def test_training_mode_restored(self, cnn, rng):
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        cnn.train()
        InferenceEngine(cnn).predict_logits(x)
        assert cnn.training
        cnn.eval()
        InferenceEngine(cnn).predict_logits(x)
        assert not cnn.training

    def test_weight_updates_are_honoured(self, cnn, rng):
        x = rng.standard_normal((3, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        before = engine.predict_logits(x)
        layer = next(iter(cnn.quantizable_layers().values()))
        layer.weight.data = layer.weight.data + 0.5
        layer.weight.bump_version()
        after = engine.predict_logits(x)
        assert np.abs(after - before).max() > 1e-3

    def test_bit_reassignment_is_honoured(self, cnn, rng):
        x = rng.standard_normal((3, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        before = engine.predict_logits(x)
        cnn.apply_assignment(
            {name: (layer.bits if layer.pinned else 2)
             for name, layer in cnn.quantizable_layers().items()}
        )
        after = engine.predict_logits(x)
        assert np.abs(after - before).max() > 1e-3

    def test_rejects_bad_arguments(self, cnn):
        with pytest.raises(ValueError):
            InferenceEngine(cnn, mode="binary")
        with pytest.raises(ValueError):
            InferenceEngine(cnn, batch_size=0)
        with pytest.raises(ValueError):
            InferenceEngine(cnn).predict_logits(np.zeros((1, 3, 12, 12)), batch_size=-1)


class TestWarmup:
    def test_warmup_traces_from_model_hint(self, rng):
        model = _warmed_model(
            resnet18, (3, 16, 16), rng,
            num_classes=4, width_multiplier=0.125, input_size=16, seed=0,
        )
        engine = InferenceEngine(model).warmup()
        assert engine.plan_report()["state"] == "compiled"

    def test_warmup_hint_respects_nonstandard_input_channels(self, rng):
        model = _warmed_model(
            simple_cnn, (1, 12, 12), rng,
            num_classes=4, input_size=12, input_channels=1, channels=4, seed=0,
        )
        # No stored input_channels attribute: the hint must derive the
        # channel count from the stem conv, not assume RGB.
        assert model.example_input_shape() == (1, 12, 12)
        engine = InferenceEngine(model).warmup()
        assert engine.plan_report()["state"] == "compiled"

    def test_warmup_requires_shape_when_no_hint(self, rng):
        model = _warmed_model(lambda: UntraceableNet(), (3, 8, 8), rng)
        model.input_size = None
        with pytest.raises(ValueError, match="input-shape hint"):
            InferenceEngine(model).warmup()

    def test_warmup_refuses_untraceable_model(self, rng):
        # An eager warmup moves the refusal to deploy time: the trace error
        # names the division that blocked the compile.
        model = _warmed_model(lambda: UntraceableNet(), (3, 8, 8), rng)
        engine = InferenceEngine(model)
        with pytest.raises(PlanTraceError, match="division"):
            engine.warmup()
        assert engine.plan_report()["state"] == "untraced"


class TestStalenessCheck:
    def test_refresh_skipped_on_frozen_weights(self, cnn, rng):
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        engine.predict_logits(x)  # traces + first refresh
        calls = []
        original = engine.plan.refresh
        engine.plan.refresh = lambda: (calls.append(1), original())[-1]
        engine.predict_logits(x)
        engine.predict_logits(x)
        assert calls == []  # nothing changed: serving skips the re-resolve

    def test_refresh_reruns_after_version_bump_and_bits_change(self, cnn, rng):
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        engine.predict_logits(x)
        calls = []
        original = engine.plan.refresh
        engine.plan.refresh = lambda: (calls.append(1), original())[-1]

        layer = next(iter(cnn.quantizable_layers().values()))
        layer.weight.data = layer.weight.data + 0.25
        layer.weight.bump_version()
        engine.predict_logits(x)
        assert len(calls) == 1

        cnn.apply_assignment(
            {name: (layer.bits if layer.pinned else 2)
             for name, layer in cnn.quantizable_layers().items()}
        )
        engine.predict_logits(x)
        assert len(calls) == 2

        engine.predict_logits(x)
        assert len(calls) == 2  # steady state again

    def test_refresh_true_escape_hatch_forces_rerun(self, cnn, rng):
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        engine.predict_logits(x)
        calls = []
        original = engine.plan.refresh
        engine.plan.refresh = lambda: (calls.append(1), original())[-1]
        engine.predict_logits(x, refresh=True)
        engine.predict_logits(x, refresh=True)
        assert len(calls) == 2

    def test_bn_statistics_updates_are_caught(self, cnn, rng):
        # A training-mode forward moves the running stats and bumps each
        # BatchNorm's stats_version, which the token reads.
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        before = engine.predict_logits(x)
        cnn.train()
        cnn(Tensor(rng.standard_normal((16, 3, 12, 12)).astype(np.float32) * 3.0))
        cnn.eval()
        after = engine.predict_logits(x)
        assert np.abs(after - before).max() > 1e-4

    def test_permuted_bn_statistics_load_is_caught(self, cnn, rng):
        """Statistics with the same sums are still a different state."""
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        engine = InferenceEngine(cnn)
        engine.predict_logits(x)
        permuted = {}
        for name, value in cnn.state_dict().items():
            if not name.endswith(("running_mean", "running_var")):
                continue
            # Swap the first pair of unequal entries whose swap leaves the
            # float sum bit for bit unchanged.
            for i, j in itertools.combinations(range(value.size), 2):
                swapped = value.copy()
                swapped[[i, j]] = value[[j, i]]
                if value[i] != value[j] and swapped.sum() == value.sum():
                    permuted[name] = swapped
                    break
        assert permuted
        cnn.load_state_dict(permuted)
        np.testing.assert_array_equal(
            engine.predict_logits(x), InferenceEngine(cnn).predict_logits(x)
        )


class TestFallbackBoundary:
    """Only genuinely unsupported glue is refused; residual graphs compile."""

    def test_resnet_compiles_and_stays_correct(self, rng):
        model = _warmed_model(
            resnet18, (3, 16, 16), rng,
            num_classes=4, width_multiplier=0.125, input_size=16, seed=0,
        )
        x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
        with no_grad():
            want = model(Tensor(x)).data
        engine = InferenceEngine(model)
        got = engine.predict_logits(x)
        assert engine.plan_report()["state"] == "compiled"
        _assert_mostly_close(got, want)

    def test_untraceable_trace_raises(self, rng):
        model = _warmed_model(lambda: UntraceableNet(), (3, 8, 8), rng)
        with pytest.raises(PlanTraceError):
            InferencePlan.trace(model, (3, 8, 8))

    def test_resnet_integer_compiles_and_matches_session(self, rng):
        model = _warmed_model(
            resnet18, (3, 16, 16), rng,
            num_classes=4, width_multiplier=0.125, input_size=16, seed=0,
        )
        x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
        want = IntegerInferenceSession(model).run(x)
        engine = InferenceEngine(model, mode="integer")
        got = engine.predict_logits(x)
        assert engine.plan_report()["state"] == "compiled"
        _assert_mostly_close(got, want)


class TestRefusal:
    """A model that cannot compile is refused, naming the op that blocked it."""

    @pytest.mark.parametrize("mode", ["float", "integer"])
    def test_predict_logits_refuses_untraceable_model(self, rng, mode):
        model = _warmed_model(lambda: UntraceableNet(), (3, 8, 8), rng)
        model.train()
        x = rng.standard_normal((3, 3, 8, 8)).astype(np.float32)
        engine = InferenceEngine(model, mode=mode)
        with pytest.raises(PlanTraceError, match="division"):
            engine.predict_logits(x)
        with pytest.raises(PlanTraceError, match="division"):
            engine.predict(x)
        assert model.training  # the failed trace restored the train mode

    def test_plan_report_stays_untraced_after_refusal(self, rng):
        model = _warmed_model(lambda: UntraceableNet(), (3, 8, 8), rng)
        engine = InferenceEngine(model)
        assert engine.plan_report()["state"] == "untraced"
        with pytest.raises(PlanTraceError, match="division"):
            engine.predict_logits(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        report = engine.plan_report()
        assert report["state"] == "untraced"
        assert report["plan"] is None

    @pytest.mark.parametrize("mend_to", ["add", "mul", "cat"])
    def test_refusal_is_not_cached(self, rng, mend_to):
        """A later call traces again: a mended model compiles without refresh.

        The mend lands on each join kind the compiler serves.
        """
        model = _warmed_model(lambda: MendableNet(mend_to=mend_to), (3, 8, 8), rng)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        engine = InferenceEngine(model)
        with pytest.raises(PlanTraceError, match="division"):
            engine.predict_logits(x)
        model.mended = True  # the glue is rewritten into compilable form
        got = engine.predict_logits(x)
        report = engine.plan_report()
        assert report["state"] == "compiled"
        expected_joins = {"add": "residual_joins", "mul": "mul_joins", "cat": "concat_joins"}
        assert report["plan"][expected_joins[mend_to]] == 1
        with no_grad():
            want = model(Tensor(x)).data
        _assert_mostly_close(got, want)

    def test_zero_row_request_is_refused_too(self, rng):
        model = _warmed_model(lambda: UntraceableNet(), (3, 8, 8), rng)
        with pytest.raises(PlanTraceError, match="division"):
            InferenceEngine(model).predict_logits(np.empty((0, 3, 8, 8), dtype=np.float32))

    @pytest.mark.parametrize(
        "mode, net, op",
        [
            pytest.param("float", FlattenAfterDivisionNet, "division", id="float"),
            pytest.param("integer", FlattenAfterDivisionNet, "division", id="integer"),
            pytest.param(
                "float", FlattenAfterScaleNet, "scalar multiplication", id="float-scalar-mul"
            ),
            pytest.param(
                "integer", FlattenAfterScaleNet, "scalar multiplication", id="integer-scalar-mul"
            ),
            pytest.param("float", FlattenAfterShiftNet, "scalar addition", id="float-scalar-add"),
            pytest.param(
                "integer", FlattenAfterShiftNet, "scalar addition", id="integer-scalar-add"
            ),
        ],
    )
    def test_division_before_inferred_flatten_is_refused(self, rng, mode, net, op):
        """Glue arithmetic between a traced value and a flatten is not skipped."""
        model = _warmed_model(net, (3, 4, 4), rng)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        with pytest.raises(PlanTraceError, match=op):
            InferenceEngine(model, mode=mode).predict_logits(x)


class TestPlanStructure:
    def test_plan_compiles_fused_steps(self, vgg):
        plan = InferencePlan.trace(vgg, (3, 32, 32))
        kinds = [type(step).__name__ for step in plan.steps]
        assert "_FusedConvStep" in kinds
        assert "_FusedLinearStep" in kinds
        # Eval-mode BatchNorm is folded away: no standalone BN steps on VGG.
        assert "_BatchNormStep" not in kinds

    def test_verification_catches_corrupted_plan(self, vgg):
        plan = InferencePlan.trace(vgg, (3, 32, 32))
        plan.steps = plan.steps[:-1]  # drop the classifier
        with pytest.raises(PlanTraceError):
            plan._verify((3, 32, 32), rtol=1e-3, atol=1e-3)


class TestStepProfiling:
    def test_profiled_run_is_bitwise_identical(self, cnn, rng):
        engine = InferenceEngine(cnn)
        x = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
        plain = engine.predict_logits(x)
        engine.enable_step_profiling()
        profiled = engine.predict_logits(x)
        np.testing.assert_array_equal(plain, profiled)

    def test_step_timings_report(self, cnn, rng):
        engine = InferenceEngine(cnn)
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        assert engine.plan_report().get("step_timings") is None  # untraced
        engine.enable_step_profiling()
        for _ in range(3):
            engine.predict_logits(x)
        timings = engine.plan_report()["step_timings"]
        assert timings is not None
        assert len(timings) == len(engine.plan.steps)
        assert all(entry["calls"] == 3 for entry in timings)
        assert all(entry["total_ms"] >= 0.0 for entry in timings)
        assert sum(entry["share"] for entry in timings) == pytest.approx(1.0, abs=0.01)
        assert [entry["key"] for entry in timings] == [s.key for s in engine.plan.steps]

    def test_disable_hides_report_but_keeps_accumulators(self, cnn, rng):
        engine = InferenceEngine(cnn)
        x = rng.standard_normal((1, 3, 12, 12)).astype(np.float32)
        engine.enable_step_profiling()
        engine.predict_logits(x)
        engine.enable_step_profiling(False)
        assert engine.plan_report()["step_timings"] is None
        engine.enable_step_profiling(True)
        assert engine.plan_report()["step_timings"][0]["calls"] == 1
        engine.plan.reset_profile()
        assert engine.plan.step_timings()[0]["calls"] == 0

class TestZeroRowRequests:
    """Regression: a zero-row batch returns empty logits, not a crash.

    The chunk loop used ``range(0, max(n, 1), step)``, which pushed an empty
    slice through ``plan.run`` for ``n == 0``.
    """

    def test_compiled_engine_returns_empty_logits(self, cnn, rng):
        engine = InferenceEngine(cnn)
        out = engine.predict_logits(np.empty((0, 3, 12, 12), dtype=np.float32))
        assert out.shape == (0, 4)
        assert out.dtype == np.float32
        assert engine.predict(np.empty((0, 3, 12, 12), dtype=np.float32)).shape == (0,)

    def test_zero_rows_after_nonempty_traffic(self, cnn, rng):
        engine = InferenceEngine(cnn)
        x = rng.standard_normal((3, 3, 12, 12)).astype(np.float32)
        engine.predict_logits(x)
        assert engine.predict_logits(x[:0]).shape == (0, 4)

    def test_integer_engine_returns_empty_logits(self, cnn):
        engine = InferenceEngine(cnn, mode="integer")
        out = engine.predict_logits(np.empty((0, 3, 12, 12), dtype=np.float32))
        assert out.shape == (0, 4)

    def test_multi_output_engine_returns_empty_slots(self, rng):
        from repro.models import gated_attention_net

        model = _warmed_model(
            gated_attention_net, (3, 8, 8), rng,
            num_classes=5, base_channels=8, num_blocks=1, groups=4,
            input_size=8, seed=0, aux_head=True,
        )
        engine = InferenceEngine(model)
        out = engine.predict_logits(np.empty((0, 3, 8, 8), dtype=np.float32))
        assert set(out) == {"logits", "aux"}
        assert all(value.shape == (0, 5) for value in out.values())
        assert engine.predict(np.empty((0, 3, 8, 8), dtype=np.float32)).shape == (0,)

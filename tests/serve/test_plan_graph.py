"""Unit coverage for the DAG plan tracer: joins, shortcuts, errors, staleness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.base import QuantizableModel
from repro.models.resnet import BasicBlock
from repro.models import resnet18
from repro.nn import Tensor
from repro.nn.modules import BatchNorm2d, GlobalAvgPool2d, ReLU
from repro.nn.tensor import no_grad
from repro.quant.qmodules import QConv2d, QLinear
from repro.serve import InferenceEngine, InferencePlan, PlanTraceError, PlanVerifyError
from repro.serve.plan import _LoadStep, _ResidualAddStep, _SaveStep

from .parity import MendableNet, UntraceableNet


class _BlockNet(QuantizableModel):
    """Stem + one BasicBlock + head: the smallest residual graph."""

    def __init__(self, stride: int = 1, out_channels: int = None, channels: int = 4,
                 image_size: int = 8) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        out_channels = out_channels if out_channels is not None else channels
        self.input_size = image_size
        self.input_channels = 3
        self.stem = QConv2d(3, channels, 3, padding=1, bias=False, bits=8, pinned=True, rng=rng)
        self.register_qlayer("stem", self.stem, pinned=True, pinned_bits=8)
        self.stem_bn = BatchNorm2d(channels)
        self.stem_act = ReLU()
        self.block = BasicBlock(channels, out_channels, stride, 4, rng)
        self.register_qlayer("block.conv1", self.block.conv1)
        self.register_qlayer("block.conv2", self.block.conv2)
        if self.block.downsample is not None:
            self.register_qlayer(
                "block.down", self.block.downsample, tie_to="block.conv1", main=False
            )
        self.pool = GlobalAvgPool2d()
        self.fc = QLinear(out_channels, 3, bits=8, pinned=True, rng=rng)
        self.register_qlayer("fc", self.fc, pinned=True, pinned_bits=8)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem_act(self.stem_bn(self.stem(x)))
        x = self.block(x)
        return self.fc(self.pool(x))


class _SubtractionJoinNet(QuantizableModel):
    """Two branches joined by subtraction — untraced glue, must raise."""

    def __init__(self) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        self.input_size = 8
        self.a = QConv2d(3, 4, 3, padding=1, bias=False, bits=4, rng=rng)
        self.b = QConv2d(3, 4, 3, padding=1, bias=False, bits=4, rng=rng)
        self.register_qlayer("a", self.a)
        self.register_qlayer("b", self.b)
        self.pool = GlobalAvgPool2d()
        self.fc = QLinear(4, 3, bits=8, pinned=True, rng=rng)
        self.register_qlayer("fc", self.fc, pinned=True, pinned_bits=8)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc(self.pool(self.a(x) - self.b(x)))


def _warm(model, shape, rng, batches: int = 2):
    model.train()
    for _ in range(batches):
        model(Tensor(rng.standard_normal((8, *shape)).astype(np.float32)))
    model.eval()
    return model


@pytest.fixture
def identity_net(rng):
    return _warm(_BlockNet(stride=1), (3, 8, 8), rng)


@pytest.fixture
def projection_net(rng):
    return _warm(_BlockNet(stride=2, out_channels=6), (3, 8, 8), rng)


class TestResidualJoinDetection:
    def test_identity_block_compiles_with_identity_shortcut(self, identity_net):
        plan = InferencePlan.trace(identity_net, (3, 8, 8))
        assert plan.meta["residual_joins"] == 1
        assert plan.meta["identity_shortcuts"] == 1
        assert plan.meta["projection_shortcuts"] == 0
        kinds = [type(step) for step in plan.steps]
        assert _SaveStep in kinds and _ResidualAddStep in kinds
        # Identity shortcut: the block input is re-read straight from its
        # slot at the join — no intermediate load into the register.
        assert _LoadStep not in kinds

    def test_downsample_block_compiles_with_projection(self, projection_net):
        plan = InferencePlan.trace(projection_net, (3, 8, 8))
        assert plan.meta["residual_joins"] == 1
        assert plan.meta["identity_shortcuts"] == 0
        assert plan.meta["projection_shortcuts"] == 1
        # The projection branch re-loads the block input for its 1x1 conv.
        assert any(isinstance(step, _LoadStep) for step in plan.steps)

    def test_resnet18_full_graph_structure(self, rng):
        model = _warm(
            resnet18(num_classes=4, width_multiplier=0.125, input_size=16, seed=0),
            (3, 16, 16), rng,
        )
        plan = InferencePlan.trace(model, (3, 16, 16))
        assert plan.meta["residual_joins"] == 8  # eight basic blocks
        assert plan.meta["identity_shortcuts"] == 5
        assert plan.meta["projection_shortcuts"] == 3  # stage 2/3/4 entries
        assert plan.meta["fused_conv"] == 20  # 16 block + 3 downsample + stem
        describe = plan.describe()
        assert describe["step_kinds"]["ResidualAddStep"] == 8

    def test_reference_plan_shares_the_graph(self, projection_net):
        plan = InferencePlan.trace(projection_net, (3, 8, 8), optimize=False)
        assert plan.meta["residual_joins"] == 1
        assert not plan.optimized
        assert plan.describe()["optimized"] is False


class TestUnsupportedGlue:
    def test_division_join_raises(self, rng):
        model = _warm(UntraceableNet(), (3, 8, 8), rng, batches=1)
        with pytest.raises(PlanTraceError, match="elementwise multiplies and channel"):
            InferencePlan.trace(model, (3, 8, 8))

    def test_subtraction_join_raises(self, rng):
        model = _warm(_SubtractionJoinNet(), (3, 8, 8), rng, batches=1)
        with pytest.raises(PlanTraceError, match="elementwise multiplies and channel"):
            InferencePlan.trace(model, (3, 8, 8))

    def test_error_names_the_blocked_layer(self, rng):
        model = _warm(UntraceableNet(), (3, 8, 8), rng, batches=1)
        with pytest.raises(PlanTraceError, match="GlobalAvgPool2d"):
            InferencePlan.trace(model, (3, 8, 8))

    def test_multiplicative_join_now_compiles(self, rng):
        """The glue that used to define the fallback class is served now."""
        model = MendableNet(mend_to="mul")
        model.mended = True
        _warm(model, (3, 8, 8), rng, batches=1)
        plan = InferencePlan.trace(model, (3, 8, 8))
        assert plan.meta["mul_joins"] == 1

    def test_concat_join_compiles(self, rng):
        model = MendableNet(mend_to="cat")
        model.mended = True
        _warm(model, (3, 8, 8), rng, batches=1)
        plan = InferencePlan.trace(model, (3, 8, 8))
        assert plan.meta["concat_joins"] == 1


class TestVerification:
    def test_dropped_residual_add_fails_bitwise_verify(self, identity_net):
        plan = InferencePlan.trace(identity_net, (3, 8, 8), optimize=False)
        plan.steps = [s for s in plan.steps if not isinstance(s, _ResidualAddStep)]
        with pytest.raises(PlanVerifyError):
            plan._verify((3, 8, 8), rtol=1e-3, atol=1e-3)

    def test_dropped_residual_add_fails_fused_verify(self, identity_net):
        plan = InferencePlan.trace(identity_net, (3, 8, 8))
        plan.steps = [s for s in plan.steps if not isinstance(s, _ResidualAddStep)]
        with pytest.raises(PlanVerifyError):
            plan._verify((3, 8, 8), rtol=1e-3, atol=1e-3)


class TestStalenessAcrossResidualSteps:
    """The engine's token must cover state baked into the *new* step kinds."""

    def _spied_engine(self, model, x):
        engine = InferenceEngine(model)
        engine.predict_logits(x)
        calls = []
        original = engine.plan.refresh
        engine.plan.refresh = lambda: (calls.append(1), original())[-1]
        return engine, calls

    def test_downsample_bn_statistics_invalidate(self, projection_net, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        engine, calls = self._spied_engine(projection_net, x)
        engine.predict_logits(x)
        assert calls == []  # frozen model: no re-resolve
        # A checkpoint load that moves only the downsample BN's running mean
        # bumps that BatchNorm's stats_version; the token must catch it.
        state = projection_net.state_dict()
        key = next(name for name in state if name.endswith("downsample_bn.running_mean"))
        projection_net.load_state_dict({key: state[key] + 0.5})
        engine.predict_logits(x)
        assert len(calls) == 1
        engine.predict_logits(x)
        assert len(calls) == 1  # steady again

    def test_downsample_bit_change_invalidates(self, projection_net, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        engine, calls = self._spied_engine(projection_net, x)
        before = engine.predict_logits(x)
        projection_net.block.downsample.set_bits(2)
        after = engine.predict_logits(x)
        assert len(calls) == 1
        assert np.abs(after - before).max() > 1e-4

    def test_shortcut_branch_weight_bump_invalidates(self, projection_net, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        engine, calls = self._spied_engine(projection_net, x)
        weight = projection_net.block.downsample.weight
        weight.data = weight.data + 0.25
        weight.bump_version()
        engine.predict_logits(x)
        assert len(calls) == 1

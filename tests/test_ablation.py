import dataclasses

import numpy as np
import pytest

from flowmoe.ablation import (
    EXPERT_GRID,
    ablation_config,
    run_ablation,
    run_expert_grid,
    variant_name,
)
from flowmoe.errors import ConfigError
from flowmoe.layers import count_parameters
from flowmoe.metrics import EvalReport
from flowmoe.model import build_model
from flowmoe.pipeline import EncodedDataset
from flowmoe.synthetic import make_blobs
from flowmoe.tensor import RngState, Tensor
from flowmoe.training import TrainConfig, model_config_for

BASE = TrainConfig(batch_size=64, max_epochs=1, n_experts=8, top_k=2,
                   cnn_filters=(4, 4, 4, 8), expert_hidden=4, seed=0)


def small_split(n=270, seed=1):
    data = make_blobs(n, seed=seed)
    cut = n * 2 // 3
    return (EncodedDataset(x=data.x[:cut], y=data.y[:cut], class_names=data.class_names),
            EncodedDataset(x=data.x[cut:], y=data.y[cut:], class_names=data.class_names))


class TestVariantConfigs:
    @pytest.mark.parametrize("variant,changed", [
        ("zero_losses", {"disable_balancing_losses"}),
        ("no_moe", {"disable_moe"}),
        ("no_cnn", {"disable_cnn"}),
        ((16, 4), {"n_experts", "top_k"}),
    ])
    def test_only_ablated_fields_change(self, variant, changed):
        config = ablation_config(BASE, variant)
        diff = {f.name for f in dataclasses.fields(TrainConfig)
                if getattr(config, f.name) != getattr(BASE, f.name)}
        assert diff == changed

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="warp_drive"):
            ablation_config(BASE, "warp_drive")

    def test_variant_names(self):
        assert variant_name("no_moe") == "no_moe"
        assert variant_name((16, 4)) == "experts_16_top4"

    def test_grid_pairs(self):
        assert EXPERT_GRID == ((64, 32), (64, 16), (32, 16), (32, 4), (16, 4))


class TestVariantArchitectures:
    def test_no_cnn_parameter_count(self):
        config = model_config_for(ablation_config(TrainConfig(), "no_cnn"))
        model = build_model(config, RngState(0))
        assert count_parameters(model) == 78 * 9 + 9  # 711

    def test_no_moe_structure(self, rng):
        config = model_config_for(ablation_config(TrainConfig(), "no_moe"))
        model = build_model(config, rng)
        assert not hasattr(model, "head")
        logits, decision = model(Tensor(rng.normal((3, 6, 13))))
        assert logits.data.shape == (3, 9)
        assert decision is None

    def test_zero_losses_keeps_architecture(self):
        config = model_config_for(ablation_config(TrainConfig(), "zero_losses"))
        assert config.variant == "cnn_moe"
        assert config.w_importance == 0.0 and config.w_load == 0.0
        assert config.n_experts == 128 and config.top_k == 32

    def test_expert_grid_structure(self, rng):
        config = model_config_for(ablation_config(BASE, (16, 4)))
        model = build_model(config, rng)
        assert len(model.head.experts) == 16
        x = Tensor(rng.normal((5, 6, 13)))
        model.eval()
        _, decision = model(x)
        gates = decision.gates.data
        assert all(np.count_nonzero(row) == 4 for row in gates)


class TestRuns:
    def test_zero_losses_history_is_zero(self):
        train_set, test_set = small_split()
        result = run_ablation(BASE, "zero_losses", train_set, test_set)
        assert all(h["importance"] == 0.0 for h in result.history)
        assert all(h["load"] == 0.0 for h in result.history)
        assert isinstance(result.report, EvalReport)

    def test_no_moe_run(self):
        train_set, test_set = small_split()
        result = run_ablation(BASE, "no_moe", train_set, test_set)
        assert all(h["importance"] == 0.0 for h in result.history)
        assert result.report.confusion.sum() == len(test_set)

    def test_grid_produces_report_per_pair(self):
        train_set, test_set = small_split()
        results = run_expert_grid(BASE, ((8, 2), (4, 2)), train_set, test_set)
        assert [r.variant for r in results] == ["experts_8_top2", "experts_4_top2"]
        for result in results:
            assert isinstance(result.report, EvalReport)
            assert result.report.confusion.sum() == len(test_set)

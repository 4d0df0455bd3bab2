"""Configuration, template and design-space tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    DesignSpace,
    TaskSpec,
    TrainingConfig,
    default_space,
    get_template,
    reduced_space,
    template_names,
)
from repro.errors import ConfigError


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"sampler": "metropolis"},
            {"hop_list": ()},
            {"hop_list": (0, 5)},
            {"bias_rate": 1.5},
            {"batch_order": "zigzag"},
            {"cache_ratio": -0.1},
            {"cache_policy": "arc"},
            {"hidden_channels": 0},
            {"dropout": 1.0},
            {"reorder": "hilbert"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainingConfig(**kwargs)

    def test_canonical_bias_without_biased_sampler(self):
        cfg = TrainingConfig(sampler="sage", bias_rate=0.5).canonical()
        assert cfg.bias_rate == 0.0

    def test_canonical_biased_with_zero_rate_becomes_sage(self):
        cfg = TrainingConfig(sampler="biased", bias_rate=0.0).canonical()
        assert cfg.sampler == "sage"

    def test_canonical_cache_interactions(self):
        cfg = TrainingConfig(cache_policy="none", cache_ratio=0.3).canonical()
        assert cfg.cache_ratio == 0.0
        cfg = TrainingConfig(cache_policy="lru", cache_ratio=0.0).canonical()
        assert cfg.cache_policy == "none"

    def test_features_align_with_names(self):
        cfg = TrainingConfig()
        assert cfg.as_features().shape == (len(TrainingConfig.feature_names()),)

    def test_describe_mentions_key_knobs(self):
        desc = TrainingConfig(sampler="biased", bias_rate=0.7).describe()
        assert "bias=0.70" in desc and "batch=1024" in desc

    def test_describe_is_unchanged_for_default_knobs(self):
        config = TrainingConfig()
        assert config.describe() == (
            "batch=1024 sampler=sage hops=[10, 5] cache=none@0.00 hidden=64"
        )

    def test_describe_prints_every_knob_off_its_default(self):
        from repro.config.templates import TEMPLATES

        assert "order=partition" in TEMPLATES["2pgraph"].describe()
        desc = TrainingConfig(num_layers=3, heads=2, dropout=0.25).describe()
        assert "layers=3" in desc and "heads=2" in desc and "dropout=0.25" in desc

    def test_describe_is_injective_over_canonical_configs(self):
        """Two distinct canonical configs never print the same line, so a
        guideline copied from CLI output names one candidate."""
        from dataclasses import replace

        from repro.config.space import default_space
        from repro.config.templates import TEMPLATES

        configs = {c.canonical() for c in default_space().enumerate()}
        configs |= {c.canonical() for c in TEMPLATES.values()}
        # the 2pgraph template without its batch order is a distinct config
        configs.add(replace(TEMPLATES["2pgraph"], batch_order="random").canonical())
        configs |= {replace(TEMPLATES["pyg"], **{k: v}) for k, v in (
            ("num_layers", 3), ("heads", 2), ("dropout", 0.1),
        )}
        assert len({c.describe() for c in configs}) == len(configs)

    def test_hashable_for_dedup(self):
        a = TrainingConfig()
        b = TrainingConfig()
        assert len({a, b}) == 1


class TestTaskSpec:
    def test_valid(self):
        TaskSpec(dataset="rd2", arch="gat")

    def test_rejects_bad_arch(self):
        with pytest.raises(ConfigError):
            TaskSpec(dataset="rd2", arch="rnn")

    def test_rejects_bad_epochs(self):
        with pytest.raises(ConfigError):
            TaskSpec(dataset="rd2", epochs=0)


class TestTemplates:
    def test_names(self):
        assert set(template_names()) == {
            "pyg",
            "pagraph_full",
            "pagraph_low",
            "2pgraph",
            "saint",
        }

    def test_pyg_has_no_cache(self):
        cfg = get_template("pyg")
        assert cfg.cache_policy == "none" and cfg.cache_ratio == 0.0

    def test_pagraph_static_cache_no_updates(self):
        full = get_template("pagraph_full")
        low = get_template("pagraph_low")
        assert full.cache_policy == low.cache_policy == "static"
        assert full.cache_ratio > low.cache_ratio

    def test_2pgraph_is_biased_and_partition_ordered(self):
        cfg = get_template("2pgraph")
        assert cfg.sampler == "biased"
        assert cfg.bias_rate > 0
        assert cfg.batch_order == "partition"
        assert cfg.cache_policy == "lru"

    def test_override(self):
        cfg = get_template("pyg", batch_size=64)
        assert cfg.batch_size == 64

    def test_unknown_template(self):
        with pytest.raises(ConfigError):
            get_template("dgl")


class TestDesignSpace:
    def test_rejects_unknown_knob(self):
        with pytest.raises(ConfigError):
            DesignSpace({"widgets": (1, 2)})

    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigError):
            DesignSpace({"batch_size": ()})

    def test_rejects_repeated_domain_value(self):
        """A repeated value would enumerate one candidate twice."""
        with pytest.raises(ConfigError, match="repeats"):
            DesignSpace({"batch_size": (128, 128), "hidden_channels": (16,)})
        with pytest.raises(ConfigError, match="repeats"):
            DesignSpace({"hop_list": ((3, 2), (5, 3), (3, 2))})

    def test_domains_are_read_only(self):
        space = DesignSpace({"batch_size": (128, 256)})
        with pytest.raises(TypeError):
            space.domains["batch_size"] = (64,)
        with pytest.raises(TypeError):
            del space.domains["batch_size"]
        with pytest.raises(AttributeError):
            space.domains = {"batch_size": (64,)}
        with pytest.raises(AttributeError):
            space.base = TrainingConfig(batch_size=64)
        assert space.domains == {"batch_size": (128, 256)}
        assert [c.batch_size for c in space] == [128, 256]

    def test_enumerate_deduplicates_canonical(self):
        space = DesignSpace(
            {
                "sampler": ("sage", "biased"),
                "bias_rate": (0.0, 0.9),
            }
        )
        # sage+0, sage+0.9->sage+0, biased+0->sage+0, biased+0.9: two unique.
        assert len(space.enumerate()) == 2

    def test_raw_size(self):
        space = DesignSpace({"batch_size": (128, 256), "hidden_channels": (16, 32)})
        assert space.raw_size() == 4

    def test_sample_unique(self):
        rng = np.random.default_rng(0)
        space = default_space()
        sample = space.sample(30, rng=rng)
        assert len(sample) == 30
        assert len(set(sample)) == 30

    def test_sample_small_space_falls_back(self):
        rng = np.random.default_rng(0)
        space = DesignSpace({"batch_size": (128, 256)})
        sample = space.sample(10, rng=rng)
        assert len(sample) == 2

    def test_reduced_space_is_exhaustible(self):
        candidates = reduced_space().enumerate()
        assert 20 <= len(candidates) <= 100

    def test_default_space_contains_template_like_configs(self):
        space = default_space()
        assert 256 in space.domains["batch_size"]
        assert (10, 5) in space.domains["hop_list"]

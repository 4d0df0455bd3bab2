"""Configurations: candidate settings, system templates and the design space."""

from repro.config.settings import (
    ORDER_NAMES,
    REORDER_NAMES,
    SAMPLER_NAMES,
    TaskSpec,
    TrainingConfig,
)
from repro.config.space import DesignSpace, default_space, reduced_space
from repro.config.templates import TEMPLATES, get_template, template_names

__all__ = [
    "TrainingConfig",
    "TaskSpec",
    "SAMPLER_NAMES",
    "REORDER_NAMES",
    "ORDER_NAMES",
    "DesignSpace",
    "default_space",
    "reduced_space",
    "TEMPLATES",
    "get_template",
    "template_names",
]

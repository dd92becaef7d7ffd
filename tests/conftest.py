"""Hypothesis profiles: ``--hypothesis-profile=ci`` runs each property that
does not pin ``max_examples`` with ten times the default examples."""

from hypothesis import settings

settings.register_profile("ci", max_examples=10 * settings.default.max_examples)

"""Collaborative-reasoning sandbox.

A reasoning core decides per step whether to answer a task directly or to
delegate to a specialized agent discovered through a protocol-agnostic
registry and selected by deterministic weighted routing. Episodes produce
masked trajectories scored by a multi-objective reward, and the decision
policy is refined with group-relative policy gradients under entropy-guided
exploration control.
"""

"""Scenario registry tests: schema, registry pins, resolver, runner, CLI
and the frozen float-hex ``output`` goldens (``test_equivalence``)."""

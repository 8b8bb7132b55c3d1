# analysis-module: repro.host.fixture_module_level
"""Fixture: code outside any function is one more flow unit.

The broad handler and the sink both sit in the module body, where no
function's summary looks: each rule must still fire once.
"""

try:
    import accelerator
except Exception:
    accelerator = None

print(accelerator.keystream)

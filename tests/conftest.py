import pytest

# The whole-run differential asserts outside a test module; rewrite its
# asserts too, so that a mismatch shows both sides.
pytest.register_assert_rewrite("run_differential")

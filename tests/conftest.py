"""Settings shared by the test suite."""

from hypothesis import settings

# a draw that fails prints the @reproduce_failure blob that replays it
settings.register_profile("driftlab", print_blob=True)
settings.load_profile("driftlab")

from hypothesis import settings

# Exact arithmetic on a loaded machine can take longer than hypothesis's
# default 200 ms per example; no test here asserts on wall-clock time.
settings.register_profile("tlh", deadline=None)
settings.load_profile("tlh")

from hypothesis import settings

# one profile for every property test: the same examples on every run, and no
# per-example deadline (the first examples pay numpy and scipy warm-up)
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

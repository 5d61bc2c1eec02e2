from hypothesis import settings

# Property tests are reproducible: a fixed example sequence, no example
# database, and no per-example deadline (sympy's first calls are slow).
settings.register_profile(
    "njk", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.load_profile("njk")

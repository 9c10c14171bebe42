"""Developer tooling that ships with the reproduction.

Nothing in this package is imported by the library at runtime; it exists
so correctness tooling (``python -m repro lint`` and its four rule
families) is versioned, tested and CI-enforced alongside the code it
guards.
"""

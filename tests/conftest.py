"""Seed every hypothesis run, so the suite draws the same examples each time."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")

"""Hypothesis profiles. The default replays the examples saved in
`.hypothesis`; `--hypothesis-profile fresh` runs without a database, so it
neither replays nor saves examples."""

from hypothesis import settings

settings.register_profile("fresh", database=None)

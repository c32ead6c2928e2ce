"""DET004 fixture: this file's path matches ``api.py`` and the function
is named ``resolve_workers``, which once was a sanctioned resolution
point; no function is exempt any more, so both reads are flagged."""

import os


def resolve_workers(workers=None):
    if workers is not None:
        return max(1, int(workers))
    raw = os.environ.get("FIXTURE_CATALOG_JOBS", "")  # EXPECT[DET004]
    return max(1, int(raw)) if raw.strip() else 1


def other_function():
    return os.environ.get("FIXTURE_OTHER")  # EXPECT[DET004]

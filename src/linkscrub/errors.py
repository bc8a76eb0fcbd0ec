"""The two errors linkscrub raises, one per CLI exit code: InputError maps to
exit code 1, InvariantError to exit code 2. Each message names where the
input broke, such as ``line N: ...``.
"""


class InputError(Exception):
    """Malformed or missing input (bad URL, bad trace line, bad rule file)."""


class InvariantError(Exception):
    """A validated internal invariant does not hold."""

"""Link-decoration analysis toolkit: graph-based detection of advertising
and tracking identifiers in URLs, filter-list emission, and URL sanitization.
"""

__version__ = "0.1.0"

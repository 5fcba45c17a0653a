"""Built-in checkers.  Importing this package registers all of them."""

from repro.analysis.checkers import (  # noqa: F401
    cache_format,
    deadline_discipline,
    digest_coverage,
    pickle_safety,
)

"""The lint's checkers: each is an ``id``, a one-line ``description`` and
``check(files) -> list[Finding]`` over every parsed file of the run."""

"""Cache-format fixture: persisted shapes changed, CACHE_FORMAT did not.

Relative to v1: the save-state dict gains ``side_table``, the tracker
state gains ``learnts``, and ``Payload`` gains a field — all without a
format bump.  Every one of these is the historical bug.
"""

import pickle
from dataclasses import dataclass

CACHE_FORMAT = 1

CACHE_SHAPE_TYPES = ("Payload",)


@dataclass
class Payload:
    digests: dict
    outcomes: list
    learnt_clauses: list


class Store:
    def __init__(self, payload):
        self.payload = payload

    def state_dict(self):
        return {
            "digests": self.payload.digests,
            "outcomes": self.payload.outcomes,
            "learnts": self.payload.learnt_clauses,
        }

    def save(self, path):
        state = {
            "format": CACHE_FORMAT,
            "tracker": self.state_dict(),
            "side_table": b"",
        }
        with open(path, "wb") as handle:
            pickle.dump(state, handle)

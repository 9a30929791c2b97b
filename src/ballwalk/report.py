"""JSON for the report dataclasses.

Every field is written under its own name, keys sorted. A field's
metadata["json"] changes that once, where the field is declared: a
string renames it, None leaves it out, and a tuple of attribute names
puts those attributes of the field's value at the top level instead.
"""

import dataclasses
import json

import numpy as np


def _plain(v):
    """Arrays and numpy scalars as Python values, tuples as lists."""
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


class Report:
    def to_json(self):
        out = {}
        for f in dataclasses.fields(self):
            key, value = f.metadata.get("json", f.name), getattr(self, f.name)
            if isinstance(key, tuple):
                out.update((k, getattr(value, k)) for k in key)
            elif key is not None:
                out[key] = value
        return json.dumps(_plain(out), sort_keys=True)

"""Machine-readable outputs: %.12e CSV series and deterministic JSON.

Fixed numeric formatting makes reruns byte-comparable, which the tests
exploit for the determinism contract.
"""

import json
import os

import numpy as np

FLOAT_FMT = "%.12e"


def format_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT % float(x)
    return str(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("cannot serialize %r" % type(obj))


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def output_root(override=None):
    """Output root: explicit argument, then ENTROFLOW_OUT, then ./out."""
    if override:
        return override
    return os.environ.get("ENTROFLOW_OUT", "out")


def experiment_dir(name, root=None):
    path = os.path.join(output_root(root), name)
    os.makedirs(path, exist_ok=True)
    return path

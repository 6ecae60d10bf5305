"""Print the SHA-256 of every file the presets write.

Runs the named presets (all 8 by default) into a temporary directory and
prints one line per output file, ``<sha256>  <preset>/<file>``, sorted by
path.  A JSON config path may stand beside or instead of a preset name:
it is loaded as ``entroflow run`` loads it and its files are listed under
its ``name``.  Two source trees write byte-identical outputs exactly when
their lists are equal:

    python tools/preset_digests.py --src ../parent/src > parent.txt
    python tools/preset_digests.py --expect parent.txt

``--src`` picks the entroflow source tree to import (default: the
``src`` next to this script).  ``--expect FILE`` compares the run with a
saved list instead of printing it: it prints one line per file whose
digest differs or that only one side has, and exits 1 if there is any.
With preset names it compares only their files, so that a change to the
inequality kernels checks its presets in about a second:

    python tools/preset_digests.py bernis_n1 bernis_n2 fisher_ineq_n2 \
        --expect tools/preset_digests.sha256

The list of the current outputs is kept next to this script, so

    python tools/preset_digests.py --expect tools/preset_digests.sha256

checks byte-identity without a second checkout.  A change that alters
outputs on purpose regenerates it (``python tools/preset_digests.py >
tools/preset_digests.sha256``) and says so.  No preset uses a model whose
primitives come from quadrature, so a change to the quadrature compares
configs that do, for example a ``shifted_power_law`` diffusion config,
between two trees:

    python tools/preset_digests.py shifted.json --src ../parent/src > parent.txt
    python tools/preset_digests.py shifted.json --expect parent.txt

A change that moves outputs on purpose measures by how much with
``--diff-src PATH``: it runs the same presets or configs under ``--src``
and under the source tree PATH and prints, per file whose bytes differ,
the largest change of each CSV column relative to the column's largest
|value| under PATH, and the relative change of each JSON number (or the
old and new value of an integer count, of a number or column that was 0
and of anything else), then exits 1 if any file differs:

    python tools/preset_digests.py --diff-src ../parent/src
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_entroflow(name):
    return name == "entroflow" or name.startswith("entroflow.")


@contextlib.contextmanager
def _imported_from(src):
    """entroflow imported from the source tree ``src`` inside the block;
    the entroflow modules imported before it are back after it."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules)
             if _is_entroflow(name)}
    sys.path.insert(0, os.path.abspath(src))
    try:
        yield
    finally:
        sys.path.remove(os.path.abspath(src))
        for name in [name for name in sys.modules if _is_entroflow(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def write_outputs(src, runs, out_root):
    """Run ``runs`` (all presets if empty) with entroflow imported from
    ``src``, into ``out_root``; returns the names of the runs, or raises
    LookupError for a run that is neither a preset nor a config file."""
    with _imported_from(src):
        from entroflow.cli import _load_config, run_experiment  # as `entroflow run`
        from entroflow.errors import ConfigError
        from entroflow.presets import PRESETS, preset_config

        try:
            configs = [preset_config(run) if run in PRESETS else _load_config(run)
                       for run in runs or sorted(PRESETS)]
        except ConfigError as err:
            raise LookupError("not a preset, and %s" % err) from None
        for cfg in configs:
            with contextlib.redirect_stdout(io.StringIO()):
                run_experiment(cfg, out_root)
    return [cfg.get("name") if isinstance(cfg, dict) else None for cfg in configs]


def digests(out_root):
    """{path: sha256} of every file under ``out_root``."""
    found = {}
    for folder, _, files in os.walk(out_root):
        for fname in files:
            path = os.path.join(folder, fname)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_root)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _change(old, new):
    """|new - old| / |old| of two numbers, or ``old -> new`` when they are
    integer counts, when old is 0 or when either is not a number."""
    numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  for x in (old, new))
    if not numeric or old == 0 or all(isinstance(x, int) for x in (old, new)):
        return "%r -> %r" % (old, new)
    return "%.3g" % (abs(new - old) / abs(old))


def _csv_changes(old_path, new_path):
    """(column, change) per CSV column that differs: the largest |new - old|
    over the column's numbers, over its largest |old|, or the first cells
    that differ when they are not both numbers."""
    with open(old_path) as fh:
        old = list(csv.reader(fh))
    with open(new_path) as fh:
        new = list(csv.reader(fh))
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return [("header and row count", "%d rows -> %d rows" % (len(old), len(new)))]
    changes = []
    for k, name in enumerate(old[0]):
        pairs = [(a[k], b[k]) for a, b in zip(old[1:], new[1:])]
        differ = [(a, b) for a, b in pairs if a != b]
        if not differ:
            continue
        if any(_number(a) is None or _number(b) is None for a, b in differ):
            changes.append((name, "%r -> %r" % differ[0]))
            continue
        scale = max(abs(x) for x in (_number(a) for a, _ in pairs) if x is not None)
        if not scale:  # a column that was 0 throughout
            changes.append((name, "%r -> %r" % differ[0]))
            continue
        worst = max(abs(_number(b) - _number(a)) for a, b in differ)
        changes.append((name, "%.3g" % (worst / scale)))
    return changes


def _leaves(value, prefix=""):
    """{dotted path: leaf} of a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = (("[%d]" % k, v) for k, v in enumerate(value))
    else:
        return {prefix: value}
    found = {}
    for key, item in items:
        joined = prefix + key if key.startswith("[") or not prefix else prefix + "." + key
        found.update(_leaves(item, joined))
    return found


def _json_changes(old_path, new_path):
    """(path, change) per JSON leaf that differs: the relative change of a
    number, or the old and new value of anything else."""
    with open(old_path) as fh:
        old = _leaves(json.load(fh))
    with open(new_path) as fh:
        new = _leaves(json.load(fh))
    changes = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b and type(a) is type(b):
            continue
        changes.append((key, _change(a, b)))
    return changes


def changes(old_root, new_root):
    """(path, [(column or key, change)]) per file whose bytes differ between
    the output trees ``old_root`` and ``new_root``, sorted by path."""
    old, new = digests(old_root), digests(new_root)
    found = []
    for path in sorted(old.keys() | new.keys()):
        if old.get(path) == new.get(path):
            continue
        if path not in old or path not in new:
            found.append((path, [("file", "only under %s" % ("PATH" if path in old
                                                              else "--src"))]))
            continue
        compare = _json_changes if path.endswith(".json") else _csv_changes
        found.append((path, compare(os.path.join(old_root, path),
                                    os.path.join(new_root, path))))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", metavar="preset|config.json",
                        help="preset names or JSON config paths (default: all presets)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="entroflow source tree to import")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--expect", metavar="FILE",
                      help="saved digest list to compare the run with")
    mode.add_argument("--diff-src", metavar="PATH",
                      help="source tree whose outputs to measure the run's against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out_root:
        try:
            names = write_outputs(args.src, args.runs, os.path.join(out_root, "src"))
            if args.diff_src is not None:
                write_outputs(args.diff_src, args.runs, os.path.join(out_root, "diff"))
        except LookupError as err:
            parser.error(str(err))
        got = digests(os.path.join(out_root, "src"))
        if args.diff_src is not None:
            found = changes(os.path.join(out_root, "diff"), os.path.join(out_root, "src"))
            for path, file_changes in found:
                print(path)
                for key, change in file_changes:
                    print("  %s  %s" % (key, change))
            print("%d of %d files differ from %s" % (len(found), len(got), args.diff_src))
            return 1 if found else 0
    if args.expect is None:
        for path, digest in sorted(got.items()):
            print("%s  %s" % (digest, path))
        return 0
    with open(args.expect) as fh:
        want = {path: digest for digest, path in
                (line.split("  ", 1) for line in fh.read().splitlines() if line)
                if path.split(os.sep, 1)[0] in names}
    paths = want.keys() | got.keys()
    bad = sorted(p for p in paths if want.get(p) != got.get(p))
    for path in bad:
        print("MISMATCH %s: expected %s, got %s"
              % (path, want.get(path, "no file"), got.get(path, "no file")))
    print("%d of %d files differ from %s" % (len(bad), len(paths), args.expect))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

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
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digests(configs, out_root):
    """(path, sha256) of every file the experiment ``configs`` wrote."""
    from entroflow.cli import run_experiment

    for cfg in configs:
        with contextlib.redirect_stdout(io.StringIO()):
            run_experiment(cfg, out_root)
    found = []
    for folder, _, files in os.walk(out_root):
        for fname in files:
            path = os.path.join(folder, fname)
            with open(path, "rb") as fh:
                found.append((os.path.relpath(path, out_root),
                              hashlib.sha256(fh.read()).hexdigest()))
    return sorted(found)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", metavar="preset|config.json",
                        help="preset names or JSON config paths (default: all presets)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="entroflow source tree to import")
    parser.add_argument("--expect", metavar="FILE",
                        help="saved digest list to compare the run with")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from entroflow.cli import _load_config  # the loader of `entroflow run`
    from entroflow.errors import ConfigError
    from entroflow.presets import PRESETS, preset_config

    try:
        configs = [preset_config(run) if run in PRESETS else _load_config(run)
                   for run in args.runs or sorted(PRESETS)]
    except ConfigError as err:
        parser.error("not a preset, and %s" % err)
    names = [cfg.get("name") if isinstance(cfg, dict) else None for cfg in configs]
    with tempfile.TemporaryDirectory() as out_root:
        got = dict(digests(configs, out_root))
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

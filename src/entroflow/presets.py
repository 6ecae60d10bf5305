"""Preset experiment catalog.

Each preset is a complete experiment config plus a one-line claim: the
property the run provides numerical evidence for.
"""

import copy

PRESETS = {
    "heat_sanity": {
        "kind": "diffusion",
        "model": {"family": "linear"},
        "grid": {"dim": 1, "cells": 128},
        "run": {"t_end": 0.1, "safety": 0.4, "record_every": 50},
        "claim": "linear heat flow: entropy and Fisher information both "
                 "non-increasing; solution tracks the spectral solution",
    },
    "pme_m2": {
        "kind": "diffusion",
        "model": {"family": "power_law", "m": 2.0},
        "grid": {"dim": 1, "cells": 128},
        "run": {"t_end": 0.05, "safety": 0.4, "record_every": 50},
        "claim": "porous-medium-type flow (a(s)=2s): entropy/Fisher "
                 "dissipation identities hold as convergent residuals",
    },
    "bernis_n1": {
        "kind": "ineq",
        "model": {"family": "linear"},
        "grid": {"dim": 1, "cells": 64},
        "run": {"trials": 200, "seed": 20260824},
        "claim": "quartic-gradient inequality with constant (1+sqrt(1))^2 = 4 "
                 "on sampled 1D cosine fields (a PASS rests on these samples, "
                 "worst ratio 0.98; a field concentrated at a wall reaches "
                 "4.45, see README)",
    },
    "bernis_n2": {
        "kind": "ineq",
        "model": {"family": "linear"},
        "grid": {"dim": 2, "cells": 64},
        "run": {"trials": 200, "seed": 20260824},
        "claim": "quartic-gradient inequality with constant (1+sqrt(2))^2 "
                 "on sampled 2D cosine fields",
    },
    "fisher_ineq_n2": {
        "kind": "ineq",
        "model": {"family": "power_law", "m": 2.0},
        "grid": {"dim": 2, "cells": 64},
        "run": {"trials": 200, "seed": 20260824},
        "claim": "Hessian-of-Sigma inequality with constant "
                 "(4+(1+sqrt(2))^2)/(2 lambda) on sampled 2D cosine fields",
    },
    "ks_critical_21": {
        "kind": "ks",
        "model": {"p": 2.0, "q": 1.0, "strict": True},
        "grid": {"dim": 1, "cells": 256},
        "run": {"t_end": 1.0, "mass": 20.0, "safety": 0.4,
                "record_every": 2000},
        "claim": "critical-line chemotaxis (p,q)=(2,1) with mass 20: global "
                 "run, bounded monitors, discrete L^p differential "
                 "inequality holds",
    },
    "ks_s1_10": {
        "kind": "ks",
        "model": {"p": 1.0, "q": 0.0, "strict": False},
        "grid": {"dim": 1, "cells": 128},
        "run": {"t_end": 0.05, "mass": 2.0, "safety": 0.4,
                "record_every": 200},
        "claim": "S(u)=u chemotaxis (p,q)=(1,0): the two special-case "
                 "functional identities hold as convergent residuals",
    },
    "plaplace_mono": {
        "kind": "plaplace",
        "model": {"p": 3.0, "delta": 1e-6},
        "grid": {"dim": 1, "cells": 128},
        "run": {"t_end": 0.05, "safety": 0.4, "record_every": 100},
        "claim": "p-Laplace flow, p=3: I[u] = int |d_x u^{p*}|^p is "
                 "non-increasing within the delta-aware tolerance",
    },
}


def preset_config(name):
    """A fresh, deep copy of the preset's config: editing it leaves the
    catalog unchanged."""
    cfg = {k: copy.deepcopy(v) for k, v in PRESETS[name].items() if k != "claim"}
    cfg["name"] = name
    return cfg


def catalog_text():
    width = max(len(k) for k in PRESETS)
    lines = []
    for name in sorted(PRESETS):
        lines.append("%-*s  %s" % (width, name, PRESETS[name]["claim"]))
    return "\n".join(lines)

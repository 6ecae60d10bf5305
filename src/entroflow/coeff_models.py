"""Catalog of diffusion nonlinearities a(s) and their primitive functionals.

Each model evaluates the primitives

    Lambda(s) = int_1^s a(t)/t dt        (log-type potential)
    H(s)      = int_1^s Lambda(t) dt     (entropy density)
    Sigma(s)  = int_1^s a(t)/sqrt(t) dt  (Fisher coordinate)
    F(s)      = int_0^s a(t) dt          (flux primitive)

in closed form where one exists and otherwise by batch Gauss-Legendre
quadrature over the whole state array: Lambda, H and Sigma in one pass
(``lam_entropy_sigma``), and Sigma alone for the inequality checks.  The
closed forms of powers (the power law's Lambda, H, Sigma; int_1^u D and
Psi on the critical line) all use one quotient, ``power_quotient``:
(x^eps - 1)/eps, and log x at eps = 0, so no exponent is a special case.  F
exists only in closed form (the power families); ``flux_primitive`` is
None for a model without it.  Adaptive Simpson quadrature
(``primitives_by_quadrature``) is the independent oracle for all four.
Each pass evaluates a(t) once per level for all of its integrals.  The
lower integration limit is 1 for Lambda, H, Sigma (and for the chemotaxis
primitives G, Psi) and 0 for F; no re-normalization is applied.

Models are immutable after construction and safe to share across workers.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError
from .quadrature import adaptive_simpson, gauss_legendre, integral_rows

# Log-spaced probe grid used for structural checks at construction time.
_PROBE = np.geomspace(1e-6, 1e6, 61)


@dataclass(frozen=True)
class Primitives:
    """Values of the four primitive functionals at one state;
    ``flux_primitive`` is None for a model without F."""

    lam: float
    entropy_density: float
    sigma: float
    flux_primitive: float


def _require_positive(s):
    arr = np.asarray(s, dtype=float)
    if not ((arr > 0.0) & (arr < np.inf)).all():  # NaN fails both
        raise DomainError("state must be positive and finite, got %r" % (s,))
    return arr


def power_quotient(eps, x):
    """(x^eps - 1)/eps elementwise for x > 0, and its limit log x at eps = 0.

    int_1^x t^(eps - 1) dt, the one closed form of every power primitive.
    For |eps| < 1/8 it is expm1(eps log x)/eps: the difference x^eps - 1
    cancels there, and near eps = 0 it loses all its digits.  From 1/8 on
    the division magnifies the difference's rounding at most 8-fold, to
    about 8 ulp of max(x^eps, 1), and the direct form costs one pow where
    the expm1 form costs a log and an expm1.
    """
    if eps == 0.0:
        return np.log(x)
    if abs(eps) < 0.125:
        return np.expm1(eps * np.log(x)) / eps
    return (x ** eps - 1.0) / eps


class CoeffModel:
    """Base class: a positive C^1 diffusion coefficient a(s) on (0, inf)."""

    flux_primitive = None  # F(s), for a model that closes it

    # -- coefficient -----------------------------------------------------

    def a(self, s):
        raise NotImplementedError

    # -- primitives (batch quadrature; subclasses override with closed
    #    forms where available) ------------------------------------------

    def _integrand(self, x, k):
        # k = 0, 1, 2: a/t, a and a/sqrt(t) at t = x, the integrands of
        # Lambda, int_1^s a and Sigma; k = 3: 2 x a(x^2), F's integrand after
        # t = x^2, which regularizes power singularities of a at 0 up to t^(-1/2).
        _, int_a, sigma, flux = integral_rows(k, 4)
        t = (x if flux.start == len(x)
             else np.concatenate((x[: flux.start], x[flux] * x[flux])))
        a = self.a(t)
        y = a / t  # Lambda's rows; the others' are overwritten
        y[int_a] = a[int_a]
        y[sigma] = a[sigma] / np.sqrt(t[sigma])
        y[flux] = 2.0 * x[flux] * a[flux]
        return y

    def lam(self, s):
        return self.lam_entropy_sigma(s)[0]

    def entropy_density(self, s):
        return self.lam_entropy_sigma(s)[1]

    def sigma(self, s):
        return gauss_legendre(lambda x, k: self._integrand(x, k + 2), 1.0,
                              _require_positive(s)[None])[0]

    def lam_entropy_sigma(self, s):
        """Lambda, H and Sigma at the states s, from one batch pass."""
        # Integration by parts: int_1^s Lambda = s Lambda(s) - int_1^s a,
        # which avoids nesting one quadrature inside another.
        s = _require_positive(s)
        lam, int_a, sigma = gauss_legendre(self._integrand, 1.0, np.stack((s, s, s)))
        return lam, s * lam - int_a, sigma

    # -- adaptive Simpson oracle for the closed forms and the batch path --

    def primitives_by_quadrature(self, s):
        """Quadrature-only evaluation, independent of any closed form: one
        adaptive Simpson pass for all of the model's integrals."""
        s = float(_require_positive(s))
        # F's lower limit is nudged off 0 so the 0 * inf endpoint never gets
        # evaluated (bias < 1e-12 * max a); a model without F drops it.
        K = 3 if self.flux_primitive is None else 4
        ends = [1.0, 1.0, 1.0, 1e-12][:K], [s, s, s, math.sqrt(s)][:K]
        lam, int_a, sigma, *flux = adaptive_simpson(self._integrand, *ends).tolist()
        return Primitives(lam, s * lam - int_a, sigma, flux[0] if flux else None)

    @np.errstate(over="ignore", invalid="ignore")  # refused below, not warned of
    def _check_positive_coefficient(self):
        vals = np.asarray(self.a(_PROBE), dtype=float)
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise ModelError(
                "coefficient must be positive and finite on (0, inf); "
                "violated on the probe grid for %s" % self
            )


class PowerLaw(CoeffModel):
    """a(s) = m s^(m-1), m > 0 (porous-medium / fast-diffusion scale)."""

    def __init__(self, m):
        if m <= 0.0:
            raise ModelError("PowerLaw requires m > 0 for a positive coefficient")
        self.m = float(m)
        self._check_positive_coefficient()

    def __repr__(self):
        return "PowerLaw(m=%g)" % self.m

    def a(self, s):
        return self.m * np.asarray(s, dtype=float) ** (self.m - 1.0)

    def sigma(self, s):
        return self.m * power_quotient(self.m - 0.5, _require_positive(s))

    def lam_entropy_sigma(self, s):
        # with E = power_quotient: Lambda = m E(m-1, s), H = s E(m-1, s) - (s-1)
        s = _require_positive(s)
        e = power_quotient(self.m - 1.0, s)
        return self.m * e, s * e - (s - 1.0), self.sigma(s)

    def flux_primitive(self, s):
        return np.asarray(s, dtype=float) ** self.m


class Linear(PowerLaw):
    """a(s) = 1: the linear heat equation, the m = 1 power law."""

    def __init__(self):
        super().__init__(1.0)

    def __repr__(self):
        return "Linear()"


class ShiftedPowerLaw(CoeffModel):
    """a(s) = m (1+s)^(m-1), m > 0: non-degenerate at s = 0."""

    def __init__(self, m):
        if m <= 0.0:
            raise ModelError("ShiftedPowerLaw requires m > 0")
        self.m = float(m)
        self._check_positive_coefficient()

    def __repr__(self):
        return "ShiftedPowerLaw(m=%g)" % self.m

    def a(self, s):
        return self.m * (1.0 + np.asarray(s, dtype=float)) ** (self.m - 1.0)

    # Lambda, H, Sigma keep the quadrature path; only F closes.

    def flux_primitive(self, s):
        s = _require_positive(s)
        return (1.0 + s) ** self.m - 1.0


class TabulatedModel(CoeffModel):
    """Custom model built from a (s, a(s)) table.

    The coefficient is interpolated monotone-cubically.  Evaluation
    outside the table range is a domain error.  A table has no F, which
    integrates a from 0, below its first knot.
    """

    def __init__(self, s_knots, a_knots):
        from scipy.interpolate import PchipInterpolator

        s_knots = np.asarray(s_knots, dtype=float)
        a_knots = np.asarray(a_knots, dtype=float)
        if s_knots.ndim != 1 or s_knots.size < 4:
            raise ModelError("table needs at least 4 knots")
        if not (np.isfinite(s_knots).all() and np.isfinite(a_knots).all()):
            raise ModelError("table knots and values must be finite")
        if np.any(np.diff(s_knots) <= 0.0):
            raise ModelError("table knots must be strictly increasing")
        if np.any(s_knots <= 0.0):
            raise ModelError("table knots must be positive")
        if np.any(a_knots <= 0.0):
            raise ModelError("tabulated coefficient must be positive")
        self.s_knots = s_knots
        self.a_knots = a_knots
        self._interp = PchipInterpolator(s_knots, a_knots)

    @classmethod
    def from_csv(cls, path):
        rows = []
        header_allowed = True
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                for row in reader:
                    if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                        continue
                    try:
                        rows.append([float(c) for c in row])
                    except ValueError:  # only the first row may be a header
                        if not header_allowed:
                            raise ModelError("line %d of table %s is not numeric"
                                             % (reader.line_num, path))
                    header_allowed = False
        except (OSError, UnicodeError, csv.Error) as err:
            raise ModelError("cannot read table %s: %s" % (path, err))
        if not rows:
            raise ModelError("no numeric rows in table %s" % path)
        for row in rows:
            if len(row) != 2:
                raise ModelError("a table has 2 columns (s, a), got %d" % len(row))
        s_knots, a_knots = zip(*rows)
        return cls(s_knots, a_knots)

    def __repr__(self):
        return "TabulatedModel(%d knots on [%g, %g])" % (
            self.s_knots.size,
            self.s_knots[0],
            self.s_knots[-1],
        )

    def _clip_check(self, s):
        s = _require_positive(s)
        if np.any(s < self.s_knots[0]) or np.any(s > self.s_knots[-1]):
            raise DomainError("state outside tabulated range")
        return s

    def a(self, s):
        vals = self._interp(self._clip_check(s))
        if np.any(np.asarray(vals) <= 0.0):
            raise ModelError("interpolated coefficient is nonpositive")
        return vals


# ---------------------------------------------------------------------------
# Spec-level operations


def eval_primitives(model, s):
    """The primitive functionals at a positive scalar state (F only for a
    model that has it)."""
    s = float(_require_positive(s))
    lam, H, sigma = model.lam_entropy_sigma(s)
    F = model.flux_primitive
    return Primitives(float(lam), float(H), float(sigma),
                      None if F is None else float(F(s)))


# The model families a config names: family -> (builder, the one (key,
# type) of the builder's argument, or None for a builder without one).
FAMILIES = {
    "linear": (Linear, None),
    "power_law": (PowerLaw, ("m", float)),
    "shifted_power_law": (ShiftedPowerLaw, ("m", float)),
    "custom": (TabulatedModel.from_csv, ("table", str)),
}


# ---------------------------------------------------------------------------
# Keller-Segel coefficient pair D(s) = (1+s)^(-p), S(s) = s (1+s)^(-q)


@dataclass(frozen=True)
class KSCoeffs:
    """Chemotaxis coefficients and their primitives at one state."""

    p: float
    q: float
    diffusion: float
    sensitivity: float
    ratio_primitive: float
    double_primitive: float
    psi: float


class KSModel:
    """Vectorized evaluation of the chemotaxis coefficient pair.

    On the critical line p - q = 1 the ratio D/S collapses to
    1/(tau (1+tau)) and the primitives close; elsewhere they are single
    integrals evaluated by batch Gauss-Legendre quadrature, the double
    primitives G and Psi after an integration by parts.
    """

    _CRIT_TOL = 1e-12

    def __init__(self, p, q):
        self.p = float(p)
        self.q = float(q)

    @property
    def critical(self):
        return abs(self.p - self.q - 1.0) <= self._CRIT_TOL

    @property
    def linear_sensitivity(self):
        """S(u) = u, the q = 0 case of the special-case identities."""
        return abs(self.q) <= 1e-12

    # D and S write into ``out`` when given: the explicit chemotaxis step
    # evaluates them on its own face arrays every step.

    def D(self, s, out=None):
        d = np.add(np.asarray(s, dtype=float), 1.0, out=out)
        d **= -self.p
        return d

    def S(self, s, out=None):
        s = np.asarray(s, dtype=float)
        w = np.add(s, 1.0, out=out)
        w **= -self.q
        return np.multiply(s, w, out=out)

    def S_prime(self, s):
        s = np.asarray(s, dtype=float)
        q = self.q
        return (1.0 + s) ** (-q - 1.0) * (1.0 + s - q * s)

    def S_second(self, s):
        s = np.asarray(s, dtype=float)
        q = self.q
        return (1.0 + s) ** (-q - 2.0) * (q * (q - 1.0) * s - 2.0 * q)

    def ratio(self, s):
        """D(s)/S(s); requires s > 0."""
        s = _require_positive(s)
        return (1.0 + s) ** (self.q - self.p) / s

    def ratio_primitive(self, s):
        """int_1^s D/S; closed form log(2s/(1+s)) on the critical line."""
        s = _require_positive(s)
        if self.critical:
            return np.log(2.0 * s / (1.0 + s))
        return gauss_legendre(lambda t, k: self.ratio(t), 1.0, s[None])[0]

    def G(self, s):
        """Double primitive int_1^s int_1^sigma D/S."""
        s = _require_positive(s)
        if self.critical:
            return (
                s * np.log(2.0 * s) - (1.0 + s) * np.log(1.0 + s) + math.log(2.0)
            )
        def f(t, k):  # D/S and t D/S = (1+t)^(q-p)
            rows_r, rows_tr = integral_rows(k, 2)
            return np.concatenate((self.ratio(t[rows_r]),
                                   (1.0 + t[rows_tr]) ** (self.q - self.p)))

        # By parts: G(s) = s R(s) - int_1^s t D/S dt, in one pass.
        int_r, int_tr = gauss_legendre(f, 1.0, np.stack((s, s)))
        return s * int_r - int_tr

    def psi(self, s):
        """Psi(s): double primitive from the entropy-production identity."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise DomainError("Psi requires a nonnegative state")
        if self.critical:
            return self._psi_critical(s)

        def f(t, k):  # g = t D S'/S, t g and t D
            rows_g, rows_tg, rows_tD = integral_rows(k, 3)
            tD = t * self.D(t)
            g = tD * self.S_prime(t) / self.S(t)
            return np.concatenate((g[rows_g], t[rows_tg] * g[rows_tg], tD[rows_tD]))

        # Psi(s) = int_1^s (int_1^r g + r D(r)) dr; by parts on the inner layer,
        # Psi = s int g - int t g + int t D, in one pass.  Nodes never touch 0.
        int_g, int_tg, int_tD = gauss_legendre(f, 1.0, np.stack((s, s, s)))
        return s * int_g - int_tg + int_tD

    def _psi_critical(self, s):
        # Psi(s) = int_2^W (W-w) g + (w-1) D dw: g = t D S'/S, w = 1+t, W = 1+s.
        # On q = p - 1, with h_a(w) = (a+1) w^(a-1) and b = -p,
        #   g = (2-p) w^(-p) + (p-1) w^(-p-1) = h_(b+1) - h_b,
        #   (w-1) D = w^(b+1) - w^b,
        # so Psi = K(1-p) - K(-p), K(a) = int_2^W (W-w) h_a + w^a dw.  With
        # T = W/2 and E = power_quotient, int_2^(2x) h_a = 2^a (a+1) E(a, x)
        # and (a+1) int_1^T E(a, x) dx = T E(a, T) - (T-1), hence
        # K(a) = 2^(a+1) (T E(a, T) + E(a+1, T) - (T-1)): no pole in p.
        T = 0.5 * (1.0 + s)

        def K(a):
            return 2.0 ** (a + 1.0) * (T * power_quotient(a, T)
                                       + power_quotient(a + 1.0, T) - (T - 1.0))

        return K(1.0 - self.p) - K(-self.p)


def eval_ks(p, q, s):
    """All chemotaxis coefficient values and primitives at one state.

    s = 0 is allowed for the pointwise coefficients but not for the
    primitives with singular integrands (ratio_primitive, G).
    """
    model = KSModel(p, q)
    s = float(s)
    if s < 0.0:
        raise DomainError("state must be nonnegative")
    if s == 0.0:
        raise DomainError("s = 0 not admissible for ratio_primitive / G")
    return KSCoeffs(
        p=float(p),
        q=float(q),
        diffusion=float(model.D(s)),
        sensitivity=float(model.S(s)),
        ratio_primitive=float(model.ratio_primitive(s)),
        double_primitive=float(model.G(s)),
        psi=float(model.psi(s)),
    )

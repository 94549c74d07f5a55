"""The four benchmark workloads.

Each workload builds a pool of same-size inputs from the benchmark seed,
runs one operation per call of ``op`` (the timed region) and checks the
result in ``check`` (untimed).  ``check`` returns the operation's accuracy
in decimal digits and raises ``CheckFailed`` when the result is wrong.

The operations reach the library through module attributes
(``wrvc.weighted.weighted_invariants``, ...) looked up at call time, so the
tracer in ``tracing.py`` sees the benchmark's own calls as well as the
library's internal ones.  The references in the checks use plain numpy
closed forms and never call the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math

import numpy as np

import wrvc.cli
import wrvc.fields
import wrvc.models
import wrvc.rho
import wrvc.variational
import wrvc.weighted

DIGITS_CAP = 16.0
POOL = 64


class CheckFailed(Exception):
    """An operation returned a result that disagrees with its reference."""


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if not math.isfinite(rel_err):
        return 0.0
    if rel_err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _binomial(m: float, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (m - i) / (i + 1)
    return out


def _elementary(values, k: int) -> float:
    return math.fsum(math.prod(c) for c in itertools.combinations(values, k))


def reference_sigma(Y: float, eigs, m: float, k: int):
    """sigma_k from (Y, eigenvalues of g^{-1}P) by the binomial extension,
    with the matching sum of absolute terms as its error scale."""
    t = Y / m
    value = scale = 0.0
    for j in range(k + 1):
        c = _binomial(m, j)
        value += c * t**j * _elementary(eigs, k - j)
        scale += abs(c) * abs(t) ** j * _elementary(np.abs(eigs), k - j)
    return value, scale


def _normwise(values, ref) -> float:
    """Largest error over a coefficient vector, relative to the largest
    reference scale: series arithmetic makes errors of that size in every
    coefficient, so a small coefficient is not held to its own scale."""
    return max(abs(x - v) for x, (v, _) in zip(values, ref)) / max(s for _, s in ref)


def _generalized_eigs(g: np.ndarray, P: np.ndarray) -> np.ndarray:
    L = np.linalg.cholesky(g)
    Linv = np.linalg.inv(L)
    return np.linalg.eigvalsh(Linv @ P @ Linv.T)


# -- pointwise -----------------------------------------------------------------


class Pointwise:
    """Weighted invariants at one point of a conformally deformed qe_sphere.

    The structure is (e^{2 omega} g, e^{omega} f) over qe_sphere(3, 2, 1),
    g = 4 delta/(1+r^2)^2, with omega a seeded polynomial of degree <= 2.
    The reference applies the conformal change laws to the closed forms
    P = lam g, J = (n+m) lam, Y = m lam of the undeformed sphere.
    """

    n, m, mu = 3, 2.0, 1.0
    ORDER = 4
    TOL = 1e-9

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n, m, mu = self.n, self.m, self.mu
        self.lam = (n - 1) / (2.0 * (n + m - 1))
        self.f0 = math.sqrt((m - 1) * mu / (n - 1))
        self.inputs = []
        for _ in range(POOL):
            c = float(rng.uniform(-0.2, 0.2))
            b = rng.uniform(-0.2, 0.2, n)
            A = rng.uniform(-0.2, 0.2, (n, n))
            A = 0.5 * (A + A.T)
            point = rng.uniform(-0.6, 0.6, n)
            model = self._model(c, b, A)
            self.inputs.append((model, point, self._reference(c, b, A, point)))

    def _model(self, c, b, A):
        n = self.n
        names = ("x", "y", "z")
        terms = [f"({c:.17g})"]
        terms += [f"({b[i]:.17g})*{names[i]}" for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                coeff = 0.5 * A[i, i] if i == j else A[i, j]
                terms.append(f"({coeff:.17g})*{names[i]}*{names[j]}")
        omega = "+".join(terms)
        r2 = "+".join(f"{v}^2" for v in names)
        parse = wrvc.models.parse_expression
        zero = parse("0")
        diag = parse(f"4*exp(2*({omega}))/(1+{r2})^2")
        g = [[diag if i == j else zero for j in range(n)] for i in range(n)]
        return wrvc.models.ModelSpec(
            name="qe_sphere_deformed", n=n, m=self.m, mu=self.mu, coords=names,
            g_exprs=g, f_expr=parse(f"({self.f0:.17g})*exp({omega})"),
        )

    def _reference(self, c, b, A, x):
        n, m, lam = self.n, self.m, self.lam
        N = n + m - 2.0
        r2 = float(x @ x)
        u = math.log(2.0 / (1.0 + r2))           # base metric g = e^{2u} delta
        du = -2.0 * x / (1.0 + r2)
        sigma = c + float(b @ x) + 0.5 * float(x @ A @ x)
        ds = b + A @ x
        g = math.exp(2.0 * u) * np.eye(n)
        hess = A - (np.outer(du, ds) + np.outer(ds, du) - float(du @ ds) * np.eye(n))
        grad2 = math.exp(-2.0 * u) * float(ds @ ds)
        lap = math.exp(-2.0 * u) * float(np.trace(hess))
        J = math.exp(-2.0 * sigma) * ((n + m) * lam - lap - 0.5 * N * grad2)
        P = lam * g - hess + np.outer(ds, ds) - 0.5 * grad2 * g
        Y = math.exp(-2.0 * sigma) * (m * lam - 0.5 * m * grad2)
        eigs = np.linalg.eigvalsh(P) * math.exp(-2.0 * (sigma + u))
        sig = [reference_sigma(Y, eigs, m, k) for k in (1, 2, 3)]
        return J, P, Y, sig

    def op(self, i):
        model, point, _ = self.inputs[i]
        p = model.structure_at(point, order=self.ORDER)
        w = wrvc.weighted.weighted_invariants(p)
        g0 = p.g.matrix
        qe = wrvc.weighted.quasi_einstein_residual(w, g0, self.n, self.m)
        sig = [wrvc.weighted.sigma_k_phi(w.Y, w.P, g0, self.m, k) for k in (1, 2, 3)]
        return w, qe, sig

    def check(self, i, out):
        w, qe, sig = out
        J, P, Y, ref_sig = self.inputs[i][2]
        errs = [
            float(np.max(np.abs(w.P - P))) / float(np.max(np.abs(P))),
            abs(w.J - J) / abs(J),
            abs(w.Y - Y) / abs(Y),
        ]
        errs.append(_normwise(sig, ref_sig))
        worst = max(errs)
        require(all(math.isfinite(v) for v in qe), "non-finite quasi-Einstein residual")
        require(worst <= self.TOL, f"relative error {worst:.3e} above {self.TOL:g}")
        return digits(worst)


# -- ambient -------------------------------------------------------------------


class Ambient:
    """Unbatched rho-series pipeline on locally conformally flat candidates
    at n = 4, K = 5: v_k must equal sigma_k and every obstruction vanish."""

    n, K = 4, 5
    M_CHOICES = (1.3, 2.5, 3.7)
    TOL = 1e-10

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n = self.n
        self.inputs = []
        for _ in range(POOL):
            m = float(rng.choice(self.M_CHOICES))
            s = rng.uniform(-1.0, 1.0, (n, n))
            g = np.eye(n) + 0.1 * (s + s.T)
            s = rng.uniform(-1.0, 1.0, (n, n))
            P = 0.2 * (s + s.T)
            Y = float(rng.uniform(-1.0, 1.0))
            f = float(rng.uniform(0.5, 2.0))
            eigs = _generalized_eigs(g, P)
            ref = [reference_sigma(Y, eigs, m, k) for k in range(1, self.K + 1)]
            self.inputs.append((g, f, P, Y, m, ref))

    def op(self, i):
        g, f, P, Y, m, _ = self.inputs[i]
        a = wrvc.models.lcf_candidate_ambient(g, f, P, Y, m, self.K)
        v = wrvc.rho.volume_coefficients(a, m)
        obs = wrvc.rho.obstruction_tensors(a)
        L = wrvc.rho.l_operator(a, m, self.K)
        return a, v, obs, L

    def check(self, i, out):
        a, v, obs, L = out
        ref = self.inputs[i][5]
        errs = [_normwise([v[k] for k in range(1, self.K + 1)], ref)]
        scale = max(1.0, float(np.max(np.abs(a.gcoeffs[2]))))
        errs.append(float(obs.sup_norms().max()) / scale)
        require(len(obs.omegas) == self.K - 1, "wrong number of obstruction tensors")
        require(bool(np.all(np.isfinite(L))), "non-finite L operator")
        # L_K can be far smaller than the O(1) series it is extracted from,
        # so its round-off asymmetry is measured against that scale
        require(bool(np.allclose(L, L.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(L).max()))),
                "L operator not symmetric")
        worst = max(errs)
        require(worst <= self.TOL, f"relative error {worst:.3e} above {self.TOL:g}")
        return digits(worst)


# -- quadrature ----------------------------------------------------------------


class Quadrature:
    """Grid build, F_1..F_3 and the variations of a seeded trial on
    qe_sphere(3, 2, 1) at resolution 40."""

    RESOLUTION = 40
    K_VARIATION = 2
    F_TOL = 1e-6
    FIRST_VARIATION_TOL = 1e-8
    AGREEMENT_TOL = 1e-6

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.model = wrvc.models.builtin_model("qe_sphere", 3, 2.0, 1.0)
        self.inputs = [wrvc.fields.random_combination(rng, 3) for _ in range(POOL)]
        # F_k = C(n+m, k) lam^k * weighted volume = C(5, k) 4^-k pi^2
        self.exact_F = [math.comb(5, k) * 4.0**-k * math.pi**2 for k in (1, 2, 3)]

    def op(self, i):
        var = wrvc.variational
        model, trial = self.model, self.inputs[i]
        grid = var.QuadratureGrid(3, self.RESOLUTION)
        F = [var.functional_F_k(model, grid, k) for k in (1, 2, 3)]
        mean_zero = var.project_mean_zero(model, grid, trial)
        fv = var.first_variation(model, grid, self.K_VARIATION, mean_zero)
        rep = var.second_variation(model, grid, self.K_VARIATION, trial)
        return F, fv, rep

    def check(self, i, out):
        F, fv, rep = out
        errs = [abs(f - e) / e for f, e in zip(F, self.exact_F)]
        require(max(errs) <= self.F_TOL, f"F_k relative error {max(errs):.3e}")
        require(abs(fv) <= self.FIRST_VARIATION_TOL,
                f"first variation of a mean-zero trial is {fv:.3e}")
        require(rep.path_agreement <= self.AGREEMENT_TOL,
                f"second-variation displays differ by {rep.path_agreement:.3e}")
        require(rep.sign == rep.predicted_sign == 1,
                f"second-variation sign {rep.sign}, predicted {rep.predicted_sign}")
        errs.append(rep.path_agreement / abs(rep.Q_reduced))
        return digits(max(errs))


# -- verify --------------------------------------------------------------------


class Verify:
    """``wrvc verify --json --seed S`` in-process; every op uses the same S,
    so stdout must be byte-identical across ops."""

    CHECKS = 54

    def __init__(self, seed: int):
        self.verify_seed = int(np.random.default_rng(seed).integers(0, 2**31))
        self.inputs = [["verify", "--json", "--seed", str(self.verify_seed)]]
        self.stdout_sha256 = None

    def op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = wrvc.cli.main(list(self.inputs[i]))
        return status, buf.getvalue()

    def check(self, i, out):
        status, text = out
        require(status == 0, f"verify exited with {status}")
        sha = hashlib.sha256(text.encode()).hexdigest()
        if self.stdout_sha256 is None:
            self.stdout_sha256 = sha
        require(sha == self.stdout_sha256, "verify stdout differs between ops")
        rows = json.loads(text)["suites"]
        require(len(rows) == self.CHECKS, f"{len(rows)} checks, expected {self.CHECKS}")
        failed = [r["name"] for r in rows if not r["passed"]]
        require(not failed, f"failed checks: {failed}")
        margins = [
            math.log10(r["tolerance"] / r["residual"])
            for r in rows if r["residual"] > 0.0 and r["tolerance"] > 0.0
        ]
        return min([DIGITS_CAP] + margins)


WORKLOADS = {
    "pointwise": Pointwise,
    "ambient": Ambient,
    "quadrature": Quadrature,
    "verify": Verify,
}

"""Generate the frozen outage reference table for the benchmark.

The table holds the true outage probability of every (scheme, node) pair
of the reference scenario (configs/reference.ini) on the 1 dB transmit
power grid 0..60 dB: 9 x 61 = 549 points.

Method.  For integer shadowing severity m the Rician shadowed power is a
finite mixture of Gamma(k + 1) laws with one common rate (Abdi et al.,
IEEE TWC 2003, with Kummer's transform of 1F1(m; 1; .)):

    f(x) = alpha e^{-lam x} sum_{k<m} C(m-1, k) (delta x)^k / k!

so P(X > t) is a positive sum of Erlang tails.  The outage event
X0 <= gamma (1 + S) over independent interferers S (Rician shadowed and
exponential, both Gamma mixtures) then reduces to finite sums of Gamma
integrals E[e^{-a Y} Y^i]; no quadrature and no series truncation is
involved.  Everything is evaluated in mpmath at 50 digits and written with
20 significant digits.

The script reads only the scenario file; it does not import fdnoma.
Optional self-checks:

    python3 bench/make_reference.py              # write bench/reference.json
    python3 bench/make_reference.py --check-quad # quadrature cross-check, <= 1 interferer
    python3 bench/make_reference.py --check-mc   # 1e6-sample MC, 0..30 dB

--check-mc imports fdnoma (from src/) and numpy for the simulation side;
mpmath is used here only, never by the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import mpmath as mp

from common import BENCH, NODES, ROOT, SCHEMES, read_ini

SCENARIO = os.path.join(ROOT, "configs", "reference.ini")
OUT = os.path.join(BENCH, "reference.json")

GRID_DB = tuple(range(0, 61))
DIGITS = 50
# --check-mc: samples per point, and the seed of the first point (the
# n-th point of the 0..30 dB rows uses MC_CHECK_SEED + n).
MC_CHECK_SAMPLES = 1_000_000
MC_CHECK_SEED = 20260809


class Mixture:
    """Rician shadowed power with integer m as sum_k w_k Gamma(k+1, rate)."""

    def __init__(self, mean_power, k_factor, m):
        m_int = int(m)
        if m_int != m or m_int < 1:
            raise ValueError(f"finite mixture needs integer m >= 1, got {m}")
        diffuse = mp.mpf(mean_power) / (1 + mp.mpf(k_factor))  # 2b
        los = mp.mpf(mean_power) * k_factor / (1 + mp.mpf(k_factor))  # Omega
        self.rate = m_int / (diffuse * m_int + los)
        delta = los / (diffuse * (diffuse * m_int + los))
        alpha = (diffuse * m_int / (diffuse * m_int + los)) ** m_int / diffuse
        self._abdi = (alpha, 1 / diffuse, delta, m_int)
        self.weights = [
            alpha * mp.binomial(m_int - 1, k) * delta**k / self.rate ** (k + 1)
            for k in range(m_int)
        ]
        total = mp.fsum(self.weights)
        if abs(total - 1) > mp.mpf(10) ** (10 - mp.mp.dps):
            raise ArithmeticError(f"mixture weights sum to {total}")

    def pdf(self, x):
        """Abdi's density alpha e^{-x/2b} 1F1(m; 1; delta x), independent of the weights."""
        alpha, inv_diffuse, delta, m = self._abdi
        return alpha * mp.exp(-inv_diffuse * x) * mp.hyp1f1(m, 1, delta * x)

    def cdf(self, t):
        """P(X <= t) by integrating Abdi's 1F1 series term by term:
        alpha sum_n (m)_n delta^n / n!^2 * lowergamma(n + 1, t / 2b) (2b)^(n+1)."""
        alpha, inv_diffuse, delta, m = self._abdi
        total, n = mp.mpf(0), 0
        while True:
            term = (alpha * mp.rf(m, n) * delta**n / mp.factorial(n) ** 2
                    * mp.gammainc(n + 1, 0, inv_diffuse * t) / inv_diffuse ** (n + 1))
            total += term
            if term < total * mp.eps:
                return total
            n += 1

    def damped_moment(self, a, i):
        """E[e^{-a Y} Y^i]."""
        r = self.rate
        return mp.fsum(
            w * r ** (k + 1) * mp.factorial(k + i) / (mp.factorial(k) * (r + a) ** (k + i + 1))
            for k, w in enumerate(self.weights)
        )


class Exponential:
    def __init__(self, mean_power):
        self.rate = 1 / mp.mpf(mean_power)

    def pdf(self, x):
        return self.rate * mp.exp(-self.rate * x)

    def damped_moment(self, a, i):
        return self.rate * mp.factorial(i) / (self.rate + a) ** (i + 1)


def damped_binomial_moment(interferers, a, j):
    """E[e^{-a S} (1 + S)^j] for S the sum of independent interferers."""
    # Expand (1 + Y_1 + ... + Y_n)^j multinomially; the damped moments
    # factorise over independent Y's.
    if not interferers:
        return mp.mpf(1)
    head, rest = interferers[0], interferers[1:]
    # (1 + Y + R)^j = sum_i C(j, i) Y^i (1 + R)^{j-i}
    return mp.fsum(
        mp.binomial(j, i) * head.damped_moment(a, i) * damped_binomial_moment(rest, a, j - i)
        for i in range(j + 1)
    )


def outage(desired: Mixture, interferers, gamma) -> mp.mpf:
    """P(X0 <= gamma (1 + S)) as 1 - E[P(X0 > gamma (1 + S))]."""
    if gamma == mp.inf:
        return mp.mpf(1)
    lam = desired.rate
    a = lam * gamma
    survival = mp.fsum(
        w
        * mp.exp(-a)
        * mp.fsum(
            a**j / mp.factorial(j) * damped_binomial_moment(interferers, a, j)
            for j in range(k + 1)
        )
        for k, w in enumerate(desired.weights)
    )
    return 1 - survival


def signal_model(sc: dict, scheme: str, node: str, pt_db):
    """(desired, interferers, threshold) of one pair, from the paper's model."""
    g, f, s = sc["geometry"], sc["fading"], sc["system"]
    num = lambda sec, key: mp.mpf(sec[key])  # noqa: E731
    pt = mp.mpf(10) ** (mp.mpf(pt_db) / 10)
    ple = num(g, "pathloss_exp")
    rate = num(s, "r_oma") / {"fd_noma": 3, "hd_noma": 2, "hd_oma": 1}[scheme]
    gamma = mp.mpf(2) ** rate - 1

    def link(tag, mean):
        return Mixture(mean, float(f[f"k_{tag}"]), float(f[f"m_{tag}"]))

    if node == "gs":
        desired = link("1g", pt / num(g, "d_1g") ** ple)
        interferers = []
        if scheme == "fd_noma":
            si_ratio = mp.mpf(10) ** ((num(s, "phase_noise_dbm") - num(s, "noise_dbm")) / 10)
            interferers.append(link("si", pt * si_ratio))
            if num(s, "epsilon") > 0:
                interferers.append(Exponential(pt * num(s, "epsilon")))
        return desired, interferers, gamma

    tag_g, tag_1 = ("g2", "12") if node == "uav2" else ("g3", "13")
    desired = link(tag_g, pt / num(g, f"d_{tag_g}") ** ple)
    if scheme == "hd_oma":
        return desired, [], gamma
    a_gs2 = num(s, "a_gs2")
    alloc, residual = (a_gs2, num(s, "beta")) if node == "uav2" else (1 - a_gs2, mp.mpf(1))
    # alloc X / (residual (1 - alloc) X + Y + 1) <= gamma  <=>  X <= gamma_eff (1 + Y)
    denom = alloc - (1 - alloc) * residual * gamma
    gamma_eff = gamma / denom if denom > 0 else mp.inf
    interferers = []
    if scheme == "fd_noma":
        interferers.append(link(tag_1, pt / num(g, f"d_{tag_1}") ** ple))
    return desired, interferers, gamma_eff


def build_table(sc: dict) -> list[dict]:
    rows = []
    for scheme in SCHEMES:
        for node in NODES:
            for pt in GRID_DB:
                value = outage(*signal_model(sc, scheme, node, pt))
                rows.append(
                    {"scheme": scheme, "node": node, "pt_db": pt,
                     "outage": mp.nstr(value, 20, min_fixed=0, max_fixed=0)}
                )
    return rows


def quad_outage(desired, interferers, gamma):
    """Quadrature of P(X0 <= gamma (1 + S)) over the interferers' densities,
    with the desired link's CDF from Abdi's infinite series."""
    cdf = desired.cdf
    if not interferers:
        return cdf(gamma)
    (y,) = interferers
    return mp.quad(lambda v: y.pdf(v) * cdf(gamma * (1 + v)), [0, mp.inf])


def check_quad(sc: dict) -> int:
    """Pairs with at most one interferer; fd_noma/gs, with two, is left to
    --check-mc because a 2-D quadrature in mpmath takes hours."""
    mp.mp.dps = 20
    worst = 0.0
    for scheme in SCHEMES:
        for node in NODES:
            for pt in (0, 20, 60):
                model = signal_model(sc, scheme, node, pt)
                if len(model[1]) > 1:
                    continue
                exact, quad = outage(*model), quad_outage(*model)
                rel = abs(exact - quad) / exact
                worst = max(worst, float(rel))
                print(f"{scheme:8s} {node:5s} {pt:3d} dB  series {mp.nstr(exact, 12)}  "
                      f"quad {mp.nstr(quad, 12)}  rel {float(rel):.1e}")
    print(f"worst relative gap {worst:.1e}")
    return 0 if worst < 1e-8 else 1


def check_mc(table: list[dict]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dataclasses import replace

    from fdnoma import McSettings, Node, Scheme, load_config, mc_outage

    cfg, _ = load_config(SCENARIO)
    zs = []
    for index, row in enumerate(r for r in table if r["pt_db"] <= 30):
        point = replace(cfg, p_t=float(row["pt_db"]))
        est = mc_outage(point, Scheme(row["scheme"]), Node(row["node"]),
                        McSettings(num_samples=MC_CHECK_SAMPLES, seed=MC_CHECK_SEED + index))
        ref = float(row["outage"])
        se = est.std_error if est.std_error > 0 else 1.0 / MC_CHECK_SAMPLES
        z = (est.probability - ref) / se
        zs.append(z)
        if abs(z) > 3:
            print(f"{row['scheme']} {row['node']} {row['pt_db']} dB: mc {est.probability:.6g} "
                  f"ref {ref:.6g} z {z:+.2f}")
    over = sum(abs(z) > 3 for z in zs)
    print(f"{len(zs)} points, max |z| {max(abs(z) for z in zs):.2f}, "
          f"{over} beyond 3 SE (chance level {0.0027 * len(zs):.2f}), "
          f"mean z {sum(zs) / len(zs):+.3f}")
    return 0 if over == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-quad", action="store_true",
                        help="cross-check the closed form against quadrature")
    parser.add_argument("--check-mc", action="store_true",
                        help="compare the written table with Monte Carlo at 0..30 dB")
    args = parser.parse_args(argv)
    sc = read_ini(SCENARIO)
    if args.check_quad:
        return check_quad(sc)
    if args.check_mc:
        with open(OUT, encoding="utf-8") as handle:
            return check_mc(json.load(handle)["rows"])
    mp.mp.dps = DIGITS
    table = {
        "scenario": sc,
        "method": "finite Gamma-mixture closed form, mpmath "
                  f"{mp.__version__} at {DIGITS} digits",
        "rows": build_table(sc),
    }
    with open(OUT, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    hd = next(r for r in table["rows"]
              if (r["scheme"], r["node"], r["pt_db"]) == ("hd_oma", "gs", 0))
    print(f"wrote {len(table['rows'])} rows to {OUT}; hd_oma/gs at 0 dB = {hd['outage']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

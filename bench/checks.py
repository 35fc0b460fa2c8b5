"""Independent checks of each invocation's artifacts.

Every check compares `summary.json` and the CSVs against closed forms or
properties of the method computed here, with the standard library only:
nothing is imported from smalltime and nothing is compared against a stored
copy of earlier output.  A check returns a list of failure messages; an
empty list means the artifacts passed.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

SIGMAS = 5.0   # "within a few standard errors": a chance failure is ~1e-6


def bs_call(s: float, k: float, sigma: float, tau: float) -> float:
    """Zero-rate Black-Scholes call, written with math.erf."""
    def n(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    v = sigma * math.sqrt(tau)
    d1 = (math.log(s / k) + 0.5 * v * v) / v
    return s * n(d1) - k * n(d1 - v)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class _Report:
    def __init__(self, out: Path):
        self.out = out
        self.errors = []
        self.summary = json.loads((out / "summary.json").read_text())

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def csv(self, name: str, n_rows: int) -> dict:
        """Columns of a CSV as float lists, with n_rows rows of finite cells."""
        with open(self.out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        cols = {h: [] for h in header}
        bad = 0
        for row in body:
            for h, cell in zip(header, row):
                try:
                    v = float(cell)
                except ValueError:
                    v = 0.0 if cell in ("true", "false") else math.nan
                bad += not math.isfinite(v)
                cols[h].append(v)
        self.expect(bad == 0, f"{name}: {bad} non-finite cells")
        self.expect(len(body) == n_rows, f"{name}: {len(body)} rows, expected {n_rows}")
        return cols


def _moment(r: _Report, p: dict, ctx: dict) -> None:
    lam, t, d = p["lam"], p["horizon"], p["d"]
    cf = math.exp(-lam * d * t) * (1.0 - 2.0 * lam * t) ** (-d / 2.0)
    res = r.summary["results"]
    r.expect(res["n_paths"] == p["paths"], "moment: n_paths differs from paths")
    r.expect(_close(r.summary["references"]["closed_form"], cf),
             "moment: closed-form reference differs from exp(-ldT)(1-2lT)^(-d/2)")
    se = res["std_err"]
    r.expect(se > 0.0 and abs(res["mc_mean"] - cf) <= SIGMAS * se,
             f"moment: mean {res['mc_mean']!r} not within {SIGMAS} SE of {cf!r}")
    cols = r.csv("moment.csv", 1)
    r.expect(cols["mc_mean"][0] == res["mc_mean"], "moment.csv disagrees with summary")


def _tail(r: _Report, p: dict, ctx: dict) -> None:
    t, d = p["horizon"], p["d"]
    alphas = [float(a) for a in str(p["alphas"]).split(",")]
    n = p["paths"]
    rows = r.summary["results"]["rows"]
    r.expect(r.summary["results"]["n_paths"] == n, "tail-bound: n_paths differs")
    r.expect(len(rows) == len(alphas), "tail-bound: one row per alpha expected")
    for a, row in zip(alphas, rows):
        lam_opt = a / (2.0 * t * (a + d * t))
        r.expect(abs(row["lam"] - lam_opt) <= 1e-6 * lam_opt,
                 f"tail-bound a={a}: lam {row['lam']!r} is not a/(2T(a+dT)) = {lam_opt!r}")
        lam = row["lam"]
        bound = math.exp(-lam * a - lam * d * t) * (1.0 - 2.0 * lam * t) ** (-d / 2.0)
        r.expect(_close(row["bound"], bound, 1e-9), f"tail-bound a={a}: bound formula")
        emp = row["empirical"]
        hits = emp * n
        r.expect(abs(hits - round(hits)) < 1e-6, f"tail-bound a={a}: frequency not k/n")
        se = math.sqrt(emp * (1.0 - emp) / n)
        r.expect(emp <= bound + 3.0 * se,
                 f"tail-bound a={a}: frequency {emp!r} above bound {bound!r} + 3 SE")
    cols = r.csv("tail_bound.csv", len(alphas))
    r.expect(cols["empirical"] == [row["empirical"] for row in rows],
             "tail_bound.csv disagrees with summary")


def _lil_sup(r: _Report, p: dict, ctx: dict) -> None:
    sups = r.csv("lil_sup.csv", p["paths"])["sup"]
    envelope = (1.0 + p["eta"]) ** 2 / p["theta"]
    rate = sum(s > envelope for s in sups) / p["paths"]
    res = r.summary["results"]
    r.expect(_close(r.summary["references"]["envelope"], envelope),
             "lil-sup: envelope is not (1+eta)^2/theta")
    r.expect(_close(res["violation_rate"], rate),
             f"lil-sup: violation rate {res['violation_rate']!r}, recomputed {rate!r}")
    r.expect(rate < p["violation_limit"],
             f"lil-sup: violation rate {rate!r} not below {p['violation_limit']!r}")
    r.expect(min(sups) >= 0.0, "lil-sup: negative sup of an absolute ratio")
    r.expect(_close(res["summary"]["median"], statistics.median(sups)),
             "lil-sup: median differs from lil_sup.csv")


def _ergodic(r: _Report, p: dict, ctx: dict) -> None:
    # Y(n) = e^n |W(e^-n)|^2 is chi-square with 2 degrees of freedom at
    # every level, so the averaged frequency has mean 1 - exp(-delta/2);
    # an average of indicators has variance at most prob(1 - prob).
    r.expect(p["d"] == 2 and p["beta"] == 1.0, "ergodic check assumes d=2, beta=1")
    prob = 1.0 - math.exp(-p["delta"] / 2.0)
    res = r.summary["results"]
    se = math.sqrt(prob * (1.0 - prob) / p["paths"])
    r.expect(abs(res["final_freq"] - prob) <= SIGMAS * se,
             f"ergodic: frequency {res['final_freq']!r} vs P(chi2_2 <= delta) = {prob!r}")
    mins = r.csv("ergodic_paths.csv", p["paths"])["min_level_value"]
    r.expect(min(mins) >= 0.0, "ergodic: negative level value")
    freq = r.csv("ergodic_freq.csv", p["levels"])["avg_freq"]
    r.expect(freq[-1] == res["final_freq"], "ergodic_freq.csv disagrees with summary")


def _example36(r: _Report, p: dict, ctx: dict) -> None:
    cols = r.csv("example36.csv", p["paths"])
    res = r.summary["results"]
    r.expect(min(cols["proxy_sup"]) >= 0.0, "example36: negative proxy sup")
    r.expect(_close(res["proxy_summary"]["median"], statistics.median(cols["proxy_sup"])),
             "example36: proxy median differs from example36.csv")
    r.expect(_close(res["full_summary"]["median"], statistics.median(cols["full_sup"])),
             "example36: full median differs from example36.csv")
    # the refined grid's first time halves the smallest level per bisection
    t_min = p["t0"] * p["theta"] ** p["levels"] / 2 ** p["refinements"]
    r.expect(_close(res["t_min"], t_min, 1e-9),
             f"example36: t_min {res['t_min']!r}, expected {t_min!r}")


def _prop39(r: _Report, p: dict, ctx: dict) -> None:
    n_win = (p["levels"] + 1) // p["window"]
    cols = r.csv("prop39.csv", n_win)
    meds = cols["median"]
    r.expect(all(m > 0.0 for m in meds), "prop39: nonpositive window median")
    r.expect(all(a < b for a, b in zip(cols["t_hi"], cols["t_hi"][1:])),
             "prop39: window times do not ascend")
    r.expect(meds[0] < p["shrink"] * meds[-1],
             "prop39: scaled statistic does not shrink toward t = 0")


def _bs_reference(r: _Report, p: dict) -> float:
    bs = bs_call(p["s0"], p["strike"], p["sigma"], p["horizon"])
    r.expect(_close(r.summary["references"]["bs_price"], bs, 1e-9),
             "bs_price reference differs from the erf Black-Scholes call")
    return bs


def _pde_nt(p: dict) -> int:
    # PdeGrid.around_spot: +/- 6 sigma sqrt(T), dt at 0.9 of the stability bound
    half = 6.0 * p["sigma"] * math.sqrt(p["horizon"])
    dx = 2.0 * half / (p["nx"] - 1)
    return max(1, math.ceil(p["horizon"] / (0.9 * dx * dx / p["sigma"] ** 2)))


def _dpe_price(r: _Report, p: dict, ctx: dict) -> None:
    bs = _bs_reference(r, p)
    price = r.summary["results"]["price"]
    banded = "lower" in p or "upper" in p
    if banded:
        r.expect(price >= bs - 1e-6 * max(1.0, bs),
                 f"dpe-price: constrained price {price!r} below Black-Scholes {bs!r}")
        ctx["banded_price"] = price
    else:
        rel = abs(price - bs) / bs
        r.expect(rel < p["bs_tol"],
                 f"dpe-price: unconstrained price {price!r} vs Black-Scholes {bs!r}")
    nt = _pde_nt(p)
    stride = max(1, nt // 20)
    n_t = len(range(0, nt + 1, stride))
    cols = r.csv("surface.csv", n_t * p["nx"])
    r.expect(min(cols["v"]) >= -1e-9, "surface.csv: negative call value")


def _mean_within(r: _Report, what: str, values: list, target: float) -> None:
    n = len(values)
    mean = sum(values) / n
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    r.expect(abs(mean - target) <= SIGMAS * sd / math.sqrt(n) + 1e-9 * abs(target),
             f"{what}: mean {mean!r} not within {SIGMAS} SE of {target!r}")


def _shortfalls(r: _Report, name: str, p: dict, x0: float) -> dict:
    """Shortfall rows, checked against the payoff and the martingale
    property: with zero rates S and the left-point wealth X are
    martingales, so E[S_T] = s0 and E[X_T] = x0."""
    cols = r.csv(name, p["paths"])
    worst = max(abs(x - max(s - p["strike"], 0.0) - f)
                for s, x, f in zip(cols["S_T"], cols["X_T"], cols["shortfall"]))
    r.expect(worst <= 1e-9 * max(1.0, max(abs(x) for x in cols["X_T"])),
             f"{name}: shortfall is not X_T - (S_T - K)^+ (off by {worst!r})")
    r.expect(min(cols["S_T"]) > 0.0, f"{name}: nonpositive terminal price")
    _mean_within(r, f"{name} S_T", cols["S_T"], p["s0"])
    _mean_within(r, f"{name} X_T", cols["X_T"], x0)
    return cols


def _hedge(r: _Report, p: dict, ctx: dict) -> None:
    res = r.summary["results"]
    sf = _shortfalls(r, "shortfall.csv", p, res["x0"])["shortfall"]
    share = sum(f >= 0.0 for f in sf) / p["paths"]
    r.expect(_close(res["frac_nonnegative"], share),
             f"hedge: nonnegative share {res['frac_nonnegative']!r}, recomputed {share!r}")
    r.expect(share >= p["target_nonneg"],
             f"hedge: nonnegative share {share!r} below {p['target_nonneg']!r}")
    v0 = ctx.get("banded_price")
    r.expect(v0 is not None and _close(res["x0"], v0 * (1.0 + p["cushion"])),
             "hedge: initial capital is not the banded dpe-price plus cushion")
    _bs_reference(r, p)


def _gap(r: _Report, p: dict, ctx: dict) -> None:
    res = r.summary["results"]
    bs = _bs_reference(r, p)
    v0 = ctx.get("banded_price")
    r.expect(v0 is not None and _close(res["constrained_price"], v0),
             f"gap: constrained price {res['constrained_price']!r} differs from "
             f"the banded dpe-price {v0!r}")
    r.expect(_close(res["price_gap"], res["constrained_price"] - bs, 1e-9)
             and res["price_gap"] > 0.0, "gap: price gap is not v0 - bs0 > 0")
    own = _shortfalls(r, "shortfall_constrained.csv", p, res["constrained_price"])
    bsf = _shortfalls(r, "shortfall_bs_funded.csv", p, bs)
    # share holdings do not depend on the initial capital
    shift = bs - res["constrained_price"]
    worst = max(abs(b - a - shift) for a, b in zip(own["X_T"], bsf["X_T"]))
    r.expect(worst <= 1e-9 * max(1.0, abs(shift)),
             f"gap: the two fundings' X_T differ by more than bs0 - v0 (off by {worst!r})")
    neg = sum(f < 0.0 for f in bsf["shortfall"]) / p["paths"]
    r.expect(_close(res["bs_funded_frac_negative"], neg),
             f"gap: BS-funded negative share {res['bs_funded_frac_negative']!r}, "
             f"recomputed {neg!r}")


_CHECKS = {
    "moment": _moment, "tail-bound": _tail, "lil-sup": _lil_sup,
    "ergodic": _ergodic, "example36": _example36, "prop39": _prop39,
    "dpe-price": _dpe_price, "hedge": _hedge, "gap": _gap,
}


def check(experiment: str, params: dict, out: Path, ctx: dict) -> list:
    """Failure messages for one invocation's artifacts in `out`.

    ctx carries values between the slots of one workload, in slot order
    (the banded dpe-price feeds the hedge and gap checks).
    """
    try:
        r = _Report(Path(out))
        r.expect(r.summary["params"]["seed"] == params["seed"],
                 "summary does not echo the config seed")
        _CHECKS[experiment](r, params, ctx)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as err:
        return [f"{experiment}: unreadable artifacts ({type(err).__name__}: {err})"]
    return r.errors

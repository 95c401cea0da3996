"""The three workloads: fixed jobs built from a seed, and their checks.

A workload's ``steps`` are the timed calls into relaysel; each returns raw
results that ``render`` turns into text outside the timed region, so rounds
(and a traced round against an untraced one) compare byte for byte.
``check`` judges the first round's texts against ``oracles`` and returns one
verdict per checked row plus a list of errors that make the output
incorrect.  ``KNOWN_FAILURES`` names rows that fail on every seed because of
faults in relaysel; any other failing row makes the output incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
from fractions import Fraction

import numpy as np

import relaysel.cli as cli
from relaysel import pgf

ALPHA = 1e-6  # family-wise false-alarm probability of a workload's statistical rows
PROTOCOLS = ("sta", "auction", "auction_skip")
HALF = (Fraction(1, 2), Fraction(1, 2))


def call_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main(argv)
    return f"# exit {code}\n" + buf.getvalue()


def parse_table(text: str):
    """(diagnostics, header, rows) of a relaysel CSV table."""
    diag: dict[str, str] = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# diag "):
            key, value = line[len("# diag ") :].split(" = ", 1)
            diag[key] = value
        elif line and not line.startswith("#"):
            lines.append(line.split(","))
    return diag, lines[0], lines[1:]


class Verdicts:
    """Rows judged so far and errors found."""

    def __init__(self) -> None:
        self.rows: dict[str, bool] = {}
        self.errors: list[str] = []

    def row(self, name: str, ok: bool) -> None:
        if name in self.rows:
            self.errors.append(f"row {name} checked twice")
        self.rows[name] = bool(ok)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _tv(pmf_a: dict, pmf_b: dict) -> float:
    keys = set(pmf_a) | set(pmf_b)
    return 0.5 * math.fsum(abs(pmf_a.get(k, 0.0) - pmf_b.get(k, 0.0)) for k in keys)


def _ks(samples: np.ndarray, cdf: np.ndarray) -> float:
    n = len(samples)
    hi = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(hi - cdf), np.abs(hi - 1.0 / n - cdf))))


def _floats(pmf) -> list[float]:
    return [float(x) for x in pmf]


# ---------------------------------------------------------------------------


class Agreement:
    """`relaysel validate`, a biased-coin auction experiment and a records batch, via cli_main.

    The simulator does most of the work: per-episode seeding, topology
    sampling, the protocol state machines and records.
    """

    name = "agreement"
    VALIDATE_REPS = 2500
    PMF_REPS = 4000
    RECORD_REPS = 12000
    RECORD_N = 4
    KNOWN_FAILURES = frozenset(
        {
            "tv:auction:1",  # the simulator spends two slots on a lone relay, the law one
            "tv:auction_skip:1",
            "experiment:tv_n4",  # run_auction splits into equal-mass bands whatever p is
        }
    )

    def __init__(self, seed: int) -> None:
        self.argv = {
            "validate": ["validate", "--n", "1..5", "--reps", str(self.VALIDATE_REPS), "--seed", str(seed)],
            "experiment": [
                "experiment", "--id", "cri_pmf_auction", "--n", "4", "--p", "0.3",
                "--reps", str(self.PMF_REPS), "--seed", str(seed + 1),
            ],
            "records": [
                "simulate", "--protocol", "sta", "--region", "sdr", "--n", str(self.RECORD_N),
                "--reps", str(self.RECORD_REPS), "--format", "records", "--seed", str(seed + 2),
            ],
        }

    def steps(self, tracer=None):
        return [(name, lambda argv=argv: call_cli(argv)) for name, argv in self.argv.items()]

    def render(self, step: str, raw) -> str:
        return raw

    def work_per_s(self, step_seconds: dict[str, float]) -> float:
        """Episodes simulated per second by the records step."""
        return self.RECORD_REPS / step_seconds["records"]

    def check(self, texts: dict[str, str]) -> Verdicts:
        import oracles

        v = Verdicts()
        alpha = ALPHA / 28
        diag, header, rows = parse_table(texts["validate"])
        v.require(header == ["check", "statistic", "threshold", "passed"], f"validate header {header}")
        expected = [f"tv:{p}:{n}" for p in PROTOCOLS for n in range(1, 6)]
        expected += [f"ks:{d}:rank{r}" for d in ("sdr", "cdr") for r in range(1, 6)]
        v.require([r[0] for r in rows] == expected, "validate rows differ from the suite")
        for label, stat, *_ in rows:
            value = float(stat)
            if label.startswith("tv:"):
                _, protocol, n = label.split(":")
                law = oracles.slot_pmf(protocol, int(n), HALF)
                gate = oracles.tv_gate(self.VALIDATE_REPS, law, alpha)
            else:
                gate = oracles.dkw_epsilon(self.VALIDATE_REPS, alpha)
            v.row(label, 0.0 <= value <= gate)

        # the biased auction: the analytic column is right, the simulated one ignores p
        diag, header, rows = parse_table(texts["experiment"])
        law = _floats(oracles.auction_pmf(4, Fraction(3, 10), skip=False))
        analytic = {int(r[1]): float(r[2]) for r in rows}
        empirical = {int(r[1]): float(r[3]) for r in rows}
        for k, mass in analytic.items():
            if mass > 0.0:
                v.require(abs(mass - law[k]) <= 1e-12, f"auction p=0.3 mass at {k}: {mass} vs {law[k]}")
        v.require(sum(analytic.values()) >= 0.999 - 1e-12, "auction p=0.3 analytic column short of 0.999")
        counts = [e * self.PMF_REPS for e in empirical.values()]
        v.require(all(abs(c - round(c)) < 1e-6 for c in counts), "empirical masses are not counts")
        v.require(abs(sum(counts) - self.PMF_REPS) < 1e-6, "empirical masses do not sum to 1")
        tv = float(diag["tv_n4"])
        v.require(abs(tv - _tv(analytic, empirical)) <= 1e-12, "tv_n4 differs from the table's columns")
        v.row("experiment:tv_n4", tv <= oracles.tv_gate(self.PMF_REPS, law, alpha))

        # records: tree-shaped traces, slot law and winner-distance law
        lines = [line for line in texts["records"].splitlines() if not line.startswith("#")]
        v.require(len(lines) == self.RECORD_REPS, f"{len(lines)} records for {self.RECORD_REPS} episodes")
        counts_by_k: dict[int, int] = {}
        distances = []
        n = self.RECORD_N
        for line in lines:
            protocol, rec_n, slots, dist, trace = line.split()
            slots = int(slots)
            shape_ok = (
                protocol == "sta" and int(rec_n) == n and len(trace) == slots
                and trace[0] == "C" and trace.count("S") == n
                and trace.count("I") + trace.count("S") == trace.count("C") + 1
            )
            if not shape_ok:
                v.errors.append(f"malformed tree record {line!r}")
                break
            counts_by_k[slots] = counts_by_k.get(slots, 0) + 1
            distances.append(float(dist))
        law = _floats(oracles.sta_pmf(n, HALF))
        emp = {k: c / len(lines) for k, c in counts_by_k.items()}
        v.row("records:tv", _tv(dict(enumerate(law)), emp) <= oracles.tv_gate(len(lines), law, alpha))
        d = np.sort(np.array(distances))
        v.require(bool(d[0] > 0.0 and d[-1] <= 1.0), "winner distance outside (0, R]")
        # the tree's winner is the farthest of n relays: CDF (d^2/R^2)^n on the sector
        v.row("records:ks", _ks(d, (d * d) ** n) <= oracles.dkw_epsilon(len(d), alpha))
        return v


# ---------------------------------------------------------------------------


class AnalyticLaws:
    """build_pgf + moments over every protocol from small to large n, then
    invert_fourier over k at small n.  No sampling, no simulator code."""

    name = "analytic_laws"
    KNOWN_FAILURES = frozenset()
    FAIR_N = (0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64)
    QARY_N = tuple(range(2, 13))
    BIASED_N = tuple(range(2, 7))
    BIASED_P = (Fraction(3, 10), Fraction(2, 5), Fraction(3, 5), Fraction(7, 10))
    INVERT_N = (2, 3, 4)
    INVERT_K = tuple(range(1, 31))
    EXACT_N = 6  # largest n checked mass by mass against the state propagation
    # At build_pgf's default tail of 1e-9 the truncated mean of sta n=16 is
    # 9e-8 short; 1e-12 keeps every mean within 1e-9 of the exact one.
    TAIL_TOL = 1e-12

    def __init__(self, seed: int) -> None:
        p0 = self.BIASED_P[seed % len(self.BIASED_P)]
        self.cases = [(p, n, 2, (Fraction(1, 2),) * 2) for p in PROTOCOLS for n in self.FAIR_N]
        self.cases += [("sta", n, 3, (Fraction(1, 3),) * 3) for n in self.QARY_N]
        self.cases += [(p, n, 2, (p0, 1 - p0)) for p in PROTOCOLS for n in self.BIASED_N]
        self.models = [
            (protocol, pgf.SplitModel(n, q=q, p=tuple(float(x) for x in probs)))
            for protocol, n, q, probs in self.cases
        ]
        self.inversions = [
            (self.cases.index((protocol, n, 2, HALF)), k)
            for protocol in PROTOCOLS
            for n in self.INVERT_N
            for k in self.INVERT_K
        ]
        self.built = None

    def steps(self, tracer=None):
        def build():
            self.built = [
                (series, pgf.moments(series))
                for series in (
                    pgf.build_pgf(protocol, model, tail_tol=self.TAIL_TOL) for protocol, model in self.models
                )
            ]
            return self.built

        def invert():
            built = self.built
            if tracer is None:
                return [pgf.invert_fourier(built[i][0], k) for i, k in self.inversions]

            def counted(series):
                def evaluate(z):
                    tracer.count("pgf.invert_fourier.evals", 1)
                    return series(z)

                return evaluate

            return [pgf.invert_fourier(counted(built[i][0]), k) for i, k in self.inversions]

        return [("build", build), ("invert", invert)]

    def render(self, step: str, raw) -> str:
        if step == "build":
            return "".join(
                f"{protocol} {n} {q} {probs[0]} k_max={s.k_max} tail={s.tail_mass!r} mean={m.mean!r} "
                f"var={m.variance!r} err={m.mean_error!r} {s.coeffs.tobytes().hex()}\n"
                for (protocol, n, q, probs), (s, m) in zip(self.cases, raw)
            )
        return "".join(
            f"{self.cases[i][0]} {self.cases[i][1]} {k} {r.prob!r} {r.raw!r}\n"
            for (i, k), r in zip(self.inversions, raw)
        )

    def work_per_s(self, step_seconds: dict[str, float]) -> float:
        """Series built (with their moments) per second by the build step."""
        return len(self.models) / step_seconds["build"]

    def check(self, texts: dict[str, str]) -> Verdicts:
        import oracles

        v = Verdicts()
        means = {}
        laws = {}
        for line, case in zip(texts["build"].splitlines(), self.cases):
            protocol, n, q, probs = case
            words = line.split()
            fields = dict(w.split("=", 1) for w in words[4:9])
            coeffs = np.frombuffer(bytes.fromhex(words[9]), dtype=np.float64)
            ok = len(coeffs) == int(fields["k_max"]) + 1 and float(fields["tail"]) >= 0.0
            mean = float(fields["mean"])
            ok &= abs(mean - float(oracles.slot_mean(protocol, n, probs))) <= 1e-9
            if n <= self.EXACT_N:
                law = _floats(oracles.slot_pmf(protocol, n, probs))
                laws[case] = law
                size = max(len(law), len(coeffs))
                exact = np.zeros(size)
                exact[: len(law)] = law
                got = np.zeros(size)
                got[: len(coeffs)] = coeffs
                ok &= bool(np.max(np.abs(got - exact)) <= 1e-12)
            means[case] = mean
            v.row(f"series:{protocol}:n={n}:q={q}:p={probs[0]}", ok)
        v.require(len(means) == len(self.cases), "build output is missing series")
        for n in self.FAIR_N:
            sta, auction, skip = (means[(p, n, 2, HALF)] for p in PROTOCOLS)
            v.require(skip <= auction + 1e-12 and auction <= sta + 1e-12, f"mean order broken at n={n}")
        lines = texts["invert"].splitlines()
        v.require(len(lines) == len(self.inversions), "inversion output is missing rows")
        for line, (i, k) in zip(lines, self.inversions):
            law = laws[self.cases[i]]
            prob = float(line.split()[-2])
            exact = law[k] if k < len(law) else 0.0
            protocol, n = self.cases[i][:2]
            v.row(f"invert:{protocol}:n={n}:k={k}", abs(prob - exact) <= 1e-6)
        return v


# ---------------------------------------------------------------------------


class DistanceLaws:
    """The distance-law experiment families via cli_main: geometry alone,
    bulk lens sampling, scalar CCDF calls for KS, quad and band bisection."""

    name = "distance_laws"
    KNOWN_FAILURES = frozenset()
    REPS = 40000
    FAMILIES = (
        "dist_pdf_sdr", "dist_pdf_cdr", "iter_gain_nearest",
        "iter_gain_furthest", "exp_dist_nearest", "exp_dist_furthest",
    )
    N_POINTS = 5  # the experiments' largest multiplicity, 2..5 by default
    ROUNDS = 3

    def __init__(self, seed: int) -> None:
        self.argv = {
            family: ["experiment", "--id", family, "--reps", str(self.REPS), "--seed", str(seed + i)]
            for i, family in enumerate(self.FAMILIES)
        }

    def steps(self, tracer=None):
        return [(name, lambda argv=argv: call_cli(argv)) for name, argv in self.argv.items()]

    def render(self, step: str, raw) -> str:
        return raw

    def work_per_s(self, step_seconds: dict[str, float]) -> float:
        """Lens distances sampled and KS-checked per second by dist_pdf_cdr."""
        return self.REPS * self.N_POINTS / step_seconds["dist_pdf_cdr"]

    def check(self, texts: dict[str, str]) -> Verdicts:
        import oracles
        from scipy.stats import binom

        v = Verdicts()
        alpha = ALPHA / 3700
        n = self.N_POINTS
        dkw = oracles.dkw_epsilon(self.REPS, alpha)
        per_round = max(self.REPS // (self.ROUNDS + 1), 1000)
        lens = oracles.priority_slice(1.0, 1)

        def lens_pdf(piece, ds):
            """relaysel's documented lens density: the central difference of
            the CCDF with step 1e-5 R, clamped to [0, R], on the oracle law."""
            lo, hi = np.maximum(ds - FD_STEP, 0.0), np.minimum(ds + FD_STEP, 1.0)
            m_lo = np.array([piece.mass(x) for x in lo])
            m_hi = np.array([piece.mass(x) for x in hi])
            return lambda rank: np.maximum(
                (binom.cdf(rank - 1, n, m_lo) - binom.cdf(rank - 1, n, m_hi)) / (hi - lo), 0.0
            )

        def sector_pdf(ds):
            return lambda rank: n * binom.pmf(rank - 1, n - 1, ds * ds) * 2.0 * ds

        # pdf and ccdf tables on the 201-point grid
        for family, label in (("dist_pdf_sdr", "sdr"), ("dist_pdf_cdr", "cdr")):
            diag, header, rows = parse_table(texts[family])
            v.require(len(rows) == 201 * n, f"{family}: {len(rows)} rows")
            ds = np.array([float(r[1]) for r in rows[:201]])
            if label == "sdr":
                masses, pdf_of = ds * ds, sector_pdf(ds)
            else:
                masses, pdf_of = np.array([lens.mass(d) for d in ds]), lens_pdf(lens, ds)
            for rank in range(1, n + 1):
                block = rows[(rank - 1) * 201 : rank * 201]
                ccdf = binom.cdf(rank - 1, n, masses)
                pdf = pdf_of(rank)
                for j, row in enumerate(block):
                    ok = int(row[0]) == rank and abs(float(row[4]) - ccdf[j]) <= 1e-9
                    ok &= abs(float(row[2]) - pdf[j]) <= PDF_TOL
                    v.row(f"{family}:rank{rank}:d{j}", ok)
                v.row(f"{family}:ks_rank{rank}", 0.0 <= float(diag[f"ks_rank{rank}"]) <= dkw)

        # iterated-priority tables: sector and the lens narrowed over three rounds
        slices = [oracles.priority_slice(1.0, t) for t in range(1, self.ROUNDS + 1)]
        for family, rank in (("iter_gain_nearest", 1), ("iter_gain_furthest", n)):
            diag, header, rows = parse_table(texts[family])
            v.require(len(rows) == 201 * (self.ROUNDS + 1), f"{family}: {len(rows)} rows")
            ds = np.array([float(r[2]) for r in rows[:201]])
            regions = [sector_pdf(ds)] + [lens_pdf(piece, ds) for piece in slices]
            for t, pdf_of in enumerate(regions):
                label = "sdr" if t == 0 else "cdr"
                pdf = pdf_of(rank)
                for j, row in enumerate(rows[t * 201 : (t + 1) * 201]):
                    ok = row[0] == label and int(row[1]) == t and abs(float(row[3]) - pdf[j]) <= PDF_TOL
                    v.row(f"{family}:{label}{t}:d{j}", ok)
                ks = float(diag[f"ks_{label}_round{t}"])
                v.row(f"{family}:ks_{label}_round{t}", 0.0 <= ks <= oracles.dkw_epsilon(per_round, alpha))
            exact = [oracles.expected_order_slice(s, rank, n) for s in slices]
            reported = [float(x) for x in diag["round_means"].strip("()").split(",")]
            ok = all(abs(a - b) <= 5e-7 + 1e-8 for a, b in zip(reported, exact))  # rounded to 6 places
            if rank == 1:
                ok &= all(b > a for a, b in zip(reported, reported[1:]))
            v.row(f"{family}:round_means", ok)

        # expected distances: closed forms on the sector, quadrature on the slices
        z_gate = oracles.z_gate(alpha)
        for family, nearest in (("exp_dist_nearest", True), ("exp_dist_furthest", False)):
            diag, header, rows = parse_table(texts[family])
            v.require(len(rows) == (self.ROUNDS + 1) * 4, f"{family}: {len(rows)} rows")
            table = {}
            for series, cell_n, analytic, empirical, se in rows:
                m = int(cell_n)
                rank = 1 if nearest else m
                if series == "sdr":
                    exact = oracles.expected_order_sector(rank, m)
                else:
                    t = int(series.removeprefix("cdr_round"))
                    exact = oracles.expected_order_slice(slices[t - 1], rank, m)
                table[(series, m)] = float(analytic)
                ok = abs(float(analytic) - exact) <= 1e-7
                ok &= abs(float(empirical) - exact) <= z_gate * float(se)
                v.row(f"{family}:{series}:n{m}", ok)
            if nearest:
                labels = ["sdr"] + [f"cdr_round{t}" for t in range(1, self.ROUNDS + 1)]
                ns = sorted({m for _, m in table})
                for m in ns:
                    rounds = [table[(f"cdr_round{t}", m)] for t in range(1, self.ROUNDS + 1)]
                    v.require(all(b > a for a, b in zip(rounds, rounds[1:])), f"nearest not rising by round at n={m}")
                for label in labels:
                    by_n = [table[(label, m)] for m in ns]
                    v.require(all(b < a for a, b in zip(by_n, by_n[1:])), f"{label}: nearest not falling with n")
        return v


FD_STEP = 1e-5  # relaysel's difference step for lens densities, R = 1
# A mass error of 1e-13 becomes ~5e-8 in a difference quotient of step 1e-5.
PDF_TOL = 1e-6

WORKLOADS = {w.name: w for w in (Agreement, AnalyticLaws, DistanceLaws)}

"""The four workloads: certify, flow, ballmap and cli.

Each workload is a single closed-loop client: one operation at a time,
the next starting only after the previous one returns. A run does a
fixed amount of work for a given ``--seconds`` (a number of rounds sized
on the reference machine), so every count repeats exactly for a seed.
Round r draws fresh inputs from ``numpy.random.default_rng([seed, r])``
outside the timed region; only the package call itself is timed.

Package functions are looked up on their modules at call time, so the
traced run sees them through the wrappers of ``spans.install``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import lorentzflow.ballmap as B
import lorentzflow.certify as C
import lorentzflow.polarization as P
import lorentzflow.poly as PL
import lorentzflow.samples as S
import lorentzflow.sep as SP

import inputs as I

MASS_TOL = 1e-10  # acceptance criterion 06
SEMIGROUP_TOL = 1e-10  # acceptance criterion 06
EQUIVARIANCE_TOL = 1e-6  # acceptance criterion 09
BALL_NORM_TOL = 1e-12
PROBE_STREAM = 10**6  # rng stream of the defect probe, apart from the rounds
REFERENCE_STREAM = 1729  # rng seed of the inputs every seed shares


def clear_caches() -> None:
    """Forget cached bases and lifted decompositions, so a set-up pays
    what a fresh process pays."""
    for fn in (PL.subset_basis, P.lifted_decomposition):
        while not hasattr(fn, "cache_clear"):
            fn = fn.__wrapped__
        fn.cache_clear()


# Median time of calibration_seconds over the 40 runs of a ten-seed check
# on the reference machine (2 cores, 7.8 GB, Python 3.11, numpy 2.4).
CALIBRATION_REFERENCE_S = 0.0165
CALIBRATION_SAMPLES = 5
CALIBRATION_INTERVAL_S = 2.0


def calibration_seconds() -> float:
    """Time of a fixed mix of the work the package does, none of it in the
    package: an interpreter loop over a dict, small convolutions and small
    symmetric eigensolves. It measures the machine's speed of the moment."""
    a = np.arange(144.0).reshape(12, 12) % 7.0
    a = a + a.T
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(80000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    for _ in range(1200):
        np.convolve(a[0, :6], [1.0, 0.5])
    for _ in range(400):
        np.linalg.eigvalsh(a)
    return time.perf_counter() - t0


class SpeedProbe:
    """The machine's speed of the moment relative to the reference machine.

    On a shared machine the speed drifts by up to a half from one minute
    to the next with the load of other tenants, and moves less within a
    few seconds. End-to-end times are therefore multiplied by the scale
    measured at most two seconds before them (reference calibration time
    over the median of a few calibration samples), so that they read as
    on the reference machine. A disabled probe always returns 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.scale = 1.0
        self.scales: list = []
        self._last = -math.inf

    def refresh(self, force: bool = False) -> float:
        now = time.perf_counter()
        if self.enabled and (force or now - self._last > CALIBRATION_INTERVAL_S):
            samples = [calibration_seconds() for _ in range(CALIBRATION_SAMPLES)]
            self.scale = CALIBRATION_REFERENCE_S / statistics.median(samples)
            self.scales.append(self.scale)
            self._last = time.perf_counter()
        return self.scale


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Ledger:
    """Operations of one run: their times by kind, and which failed.

    A run makes several passes over all its rounds' inputs. An operation
    is identified by its round and a key unique in the round, and its
    time is the median of its passes: on a shared machine the other
    tenants slow single operations down by up to a half for seconds at a
    time, and the median of passes spread over the run is steadier than
    either their mean or their minimum.
    """

    def __init__(self, tracer, probe: SpeedProbe | None = None):
        self.tracer = tracer
        self.probe = probe or SpeedProbe(enabled=False)
        self.attempted = 0
        self.failed_ops: set = set()
        self.failures: list = []
        self.passes: dict = {}  # (round, key) -> (kind, seconds of each pass)
        self.round = 0
        self.pass_index = 0

    def start_pass(self, r: int, p: int) -> None:
        self.round, self.pass_index = r, p

    def op(self, key, kind, fn, *args, **kwargs):
        """Time one operation, scaled to the reference machine's speed. An
        exception is a failure; None is returned."""
        scale = self.probe.refresh()
        self.attempted += 1
        self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every exception is a counted failure
            self.fail(kind, f"{key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            seconds = (time.perf_counter() - t0) * scale
            self.passes.setdefault((self.round, key), (kind, []))[1].append(seconds)

    def check(self, ok, kind, detail) -> bool:
        if not ok:
            self.fail(kind, detail)
        return bool(ok)

    def fail(self, kind, detail) -> None:
        self.failed_ops.add(self.attempted)
        if len(self.failures) < 20:
            self.failures.append({"op": self.attempted, "kind": kind, "detail": str(detail)[:300]})

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def times(self, kind=None) -> list:
        """Each operation's median time over its passes, for one kind or all."""
        return [statistics.median(ts) for k, ts in self.passes.values() if kind is None or k == kind]

    def rate(self, kind=None) -> float:
        """Operations per second of operation time."""
        t = self.times(kind)
        return len(t) / sum(t) if t else float("nan")


class untraced:
    """Pause the tracer around output checks, so spans cover operations only."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.was = self.tracer.enabled
        self.tracer.enabled = False

    def __exit__(self, *exc):
        self.tracer.enabled = self.was


class Workload:
    """Base: ``setup`` builds what operations share; ``make_round`` draws
    the inputs of one round; ``run_round`` performs and checks them."""

    name = ""
    round_seconds = 10.0  # nominal length of one round on the reference machine
    passes = 2  # passes over all rounds; an operation's time is their median
    setup_repeats = 7  # set-ups per run; the run reports their median

    def __init__(self, root: Path, seed: int, sizes: dict, tracer, workdir: Path):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.workdir = workdir
        self.report: dict = {}

    def rounds(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.round_seconds)))

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])

    def setup(self) -> None:
        raise NotImplementedError

    def setup_seconds(self, probe: SpeedProbe) -> list:
        """Run the set-up several times, each time scaled to the reference
        machine's speed; the run reports the median."""
        out = []
        for _ in range(self.setup_repeats):
            scale = probe.refresh(force=True)
            t0 = time.perf_counter()
            self.setup()
            out.append((time.perf_counter() - t0) * scale)
        return out

    def prepare(self) -> None:
        """Untimed work that only input generation needs."""

    def make_round(self, r: int):
        raise NotImplementedError

    def run_round(self, items, ledger: Ledger) -> None:
        raise NotImplementedError

    def end_to_end(self, ledger: Ledger) -> dict:
        return {"peak_rss_mb": peak_rss_mb()}


# ---------------------------------------------------------------- certify


class CertifyWorkload(Workload):
    """Lorentzian and stable certificates on a stream of inputs whose
    class is known by construction."""

    name = "certify"
    round_seconds = 12.0

    def setup(self):
        # a user of the certificates pays only the import
        _child_seconds(self.root, ["-c", "import lorentzflow"], self.workdir)

    def prepare(self):
        """Decompositions used only to make forward-flowed inputs."""
        self.decs = {nd: SP.uniform_decomposition(*nd) for nd in self.sizes["certify_multiaffine"]}
        self.probe_nd = self.sizes["sampler"]
        self.probe_dec = SP.uniform_decomposition(*self.probe_nd)

    def make_round(self, r):
        rng = self.rng(r)
        items = []  # (label, class, poly, run stable certificate)
        for (n, d), classes in self.sizes["certify_multiaffine"].items():
            part = I.multiaffine_part(I.positive_forms(rng, d, n))
            make = {
                "interior_flow": ("interior", lambda: SP.flow(I.partition_product(rng, n, d), 0.5, self.decs[(n, d)])),
                "interior_product": ("interior", lambda: part),
                "partition_boundary": ("boundary", lambda: I.partition_product(rng, n, d)),
                "transversal_boundary": ("boundary", lambda: I.transversal_boundary(rng, n, d)),
                "hessian_fail": ("nonmember", lambda: I.hessian_fail(rng, n, d)),
                "negative_coefficient": ("nonmember", lambda: I.negative_coefficient(rng, part)),
            }
            stable = (n, d) in self.sizes["certify_stable"]
            for name in classes:
                cls, build = make[name]
                items.append((f"{name}({n},{d})", cls, build(), stable))
        for kappa, d in self.sizes["certify_capped"]:
            if all(k >= d for k in kappa):
                f = I.capped_form_product(rng, len(kappa), d)
            else:
                f = I.capped_block_product(rng, kappa, d)
            items.append((f"capped{kappa}", "interior", f, True))
        for n, d in self.sizes["certify_elementary"]:
            items.append((f"elementary({n},{d})", "interior", I.elementary(n, d), False))
        return items, r

    def run_round(self, work, ledger):
        items, r = work
        for label, cls, f, stable in items:
            lor = C.certify_hom if isinstance(f, PL.HomPoly) else C.certify_multiaffine
            v = ledger.op(label + "/lorentzian", "lorentzian", lor, f)
            self._judge(ledger, "lorentzian", label, cls, v)
            if stable:
                v = ledger.op(label + "/stable", "stable", C.certify_stable, f, 256)
                self._judge(ledger, "stable", label, cls, v)
        # known defect probe (ROADMAP item 5): recorded, not an operation
        rng = np.random.default_rng([self.seed, r, PROBE_STREAM])
        t0 = time.perf_counter()
        try:
            g = S.random_interior_member(PL.subset_basis(*self.probe_nd), self.probe_dec, rng)
            with untraced(self.tracer):
                ok = C.certify_multiaffine(g).is_strict
            outcome = "strict_member" if ok else "not_strict"
        except RuntimeError as exc:
            outcome = f"RuntimeError: {exc}"
        self.report.setdefault("sampler_probe", []).append(
            {"seconds": time.perf_counter() - t0, "outcome": outcome}
        )

    def _judge(self, ledger, kind, label, cls, v):
        tally = self.report.setdefault("verdicts", {}).setdefault(kind, defaultdict(int))
        if v is None:
            return
        tally[f"{cls}:{v.status.value}"] += 1
        if cls == "nonmember":
            if kind == "lorentzian":
                ledger.check(not v.is_member, kind, f"{label}: member verdict on a non-member")
        else:
            ledger.check(v.is_member, kind, f"{label}: rejected a member ({v.witness})")
            if cls == "boundary":
                ledger.check(not v.is_strict, kind, f"{label}: strict verdict with a zero coefficient")

    def recall(self, kind):
        tally = self.report.get("verdicts", {}).get(kind, {})
        total = sum(c for k, c in tally.items() if k.startswith("interior:"))
        strict = tally.get("interior:strict_interior", 0)
        return strict / total if total else float("nan")

    def end_to_end(self, ledger):
        out = super().end_to_end(ledger)
        self.report["lorentzian_cert_per_s"] = ledger.rate("lorentzian")
        self.report["stable_cert_per_s"] = ledger.rate("stable")
        self.report["lorentzian_strict_recall"] = self.recall("lorentzian")
        self.report["stable_strict_recall"] = self.recall("stable")
        return out


# ---------------------------------------------------------------- flow


class FlowWorkload(Workload):
    """Set up the decompositions once, then apply many flows."""

    name = "flow"
    round_seconds = 10.0
    passes = 16  # operations take milliseconds, so passes are cheap
    setup_repeats = 2  # one set-up takes about 15 s; three would not fit the run length

    def setup(self):
        clear_caches()
        n, d = self.sizes["flow_multiaffine"]
        self.dec = SP.uniform_decomposition(n, d)
        kappa, cd = self.sizes["flow_capped"]
        self.plan = P.PolarizationPlan(len(kappa), cd, kappa)
        self.lifted = P.lifted_decomposition(self.plan.lifted_n, cd)

    def make_round(self, r):
        rng = self.rng(r)
        n, d = self.sizes["flow_multiaffine"]
        kappa, cd = self.sizes["flow_capped"]
        per_input = self.sizes["flows_per_input"]
        ops = []
        for k in range(self.sizes["flow_inputs"]):
            if k % 2:
                f = I.multiaffine_part(I.positive_forms(rng, d, n))
            else:
                f = I.partition_product(rng, n, d)
            for j in range(per_input):
                s = float(rng.uniform(0.05, 2.0))
                ops.append(("flow", f, s if j % 3 else -s / 4))
        for k in range(self.sizes["polarized_inputs"]):
            h = I.capped_form_product(rng, len(kappa), cd)
            for j in range(per_input):
                ops.append(("polarized_flow", h, float(rng.uniform(0.05, 2.0))))
        return ops

    def run_round(self, ops, ledger):
        dec, plan, lifted = self.dec, self.plan, self.lifted
        semigroup_done = False
        for key, (kind, f, s) in enumerate(ops):
            if kind == "flow":
                out = ledger.op(key, kind, self._flow_with_coords, f, s)
                if out is None:
                    continue
                g, norm = out
                with untraced(self.tracer):
                    self._check_flow(ledger, f, g, s, norm, SP.centered_norm(f, dec))
                    if not semigroup_done:
                        semigroup_done = True
                        left = SP.flow(SP.flow(f, 0.5 * s, dec), -0.25 * s, dec)
                        right = SP.flow(f, 0.25 * s, dec)
                        err = float(np.linalg.norm(left.coeffs - right.coeffs))
                        ledger.check(err <= SEMIGROUP_TOL, kind, f"semigroup error {err}")
            else:
                g = ledger.op(key, kind, P.polarized_flow, f, s, plan, lifted)
                if g is None:
                    continue
                with untraced(self.tracer):
                    before = SP.centered_norm(P.polarize_up(f, plan), lifted)
                    after = SP.centered_norm(P.polarize_up(g, plan), lifted)
                    self._check_flow(ledger, f, g, s, after, before)

    def _flow_with_coords(self, f, s):
        g = SP.flow(f, s, self.dec)
        SP.eigen_coords(g, self.dec)
        return g, SP.centered_norm(g, self.dec)

    @staticmethod
    def _check_flow(ledger, f, g, s, after, before):
        mass = abs(g.value_at_ones() - f.value_at_ones())
        ledger.check(mass <= MASS_TOL, "flow", f"mass error {mass}")
        if s > 0:
            ledger.check(after < before, "flow", f"forward flow by {s} did not contract")

    def end_to_end(self, ledger):
        out = super().end_to_end(ledger)
        self.report["flow_per_s"] = ledger.rate()
        return out


# ---------------------------------------------------------------- ballmap


class BallmapWorkload(Workload):
    """Escape-time searches against the three membership oracles."""

    name = "ballmap"
    round_seconds = 16.0

    def setup(self):
        clear_caches()
        self.decs = {}
        for _, shape, _, _, _ in self.sizes["ball_jobs"]:
            if shape in self.decs:
                continue
            if isinstance(shape[0], tuple):
                kappa, d = shape
                plan = P.PolarizationPlan(len(kappa), d, kappa)
                self.decs[shape] = (P.lifted_decomposition(plan.lifted_n, d), plan)
            else:
                self.decs[shape] = (SP.uniform_decomposition(*shape), None)

    def make_round(self, r):
        # The slow, path-dependent escapes run on reference inputs that do
        # not depend on the seed: one of them costs as much as ten seeded
        # (8,4) escapes, and its cost varies by a third between inputs, so
        # seeding them would make a run's throughput mostly a draw.
        seeded, reference = self.rng(r), np.random.default_rng([REFERENCE_STREAM, r])
        esc = []  # (label, oracle space, input kind, poly, dec, plan)
        for space, shape, kind, n_seeded, n_reference in self.sizes["ball_jobs"]:
            dec, plan = self.decs[shape]
            for k in range(n_seeded + n_reference):
                rng = seeded if k < n_seeded else reference
                if kind == "block":
                    kappa, d = shape
                    f = P.polarized_flow(I.capped_block_product(rng, kappa, d), 0.3, plan, dec)
                elif kind == "product":
                    n, d = shape
                    f = SP.flow(I.multiaffine_part(I.positive_forms(rng, d, n)), 0.3, dec)
                else:
                    f = SP.flow(I.partition_product(rng, *shape), 0.5, dec)
                tag = "seeded" if k < n_seeded else "reference"
                esc.append((f"{space}/{kind}{shape}/{tag}#{k}", space, kind, f, dec, plan))
        return esc, float(seeded.uniform(0.05, 0.3))

    def run_round(self, work, ledger):
        esc, shift = work
        for label, space, kind, f, dec, plan in esc:
            res = ledger.op(label, space, B.escape_time, f, _oracle(space), dec, plan=plan)
            if res is None:
                continue
            with untraced(self.tracer):
                nrm = float(np.linalg.norm(res.ball_point))
                ledger.check(
                    abs(nrm - math.exp(-res.sigma)) <= BALL_NORM_TOL,
                    space,
                    f"{label}: |ball_point|={nrm} but exp(-sigma)={math.exp(-res.sigma)}",
                )
                ledger.check(res.sigma > 0.0, space, f"{label}: sigma={res.sigma}")
            if kind == "product" and "equivariance" not in self.report:
                # one flow-equivariance pair per run: escaping from the
                # input flowed forward by t takes t longer
                moved = SP.flow(f, shift, dec)
                res2 = ledger.op(label + "/equivariance", space, B.escape_time, moved, _oracle(space), dec, plan=plan)
                if res2 is not None:
                    err = abs(res2.sigma - res.sigma - shift)
                    self.report["equivariance"] = {"label": label, "shift": shift, "error": err}
                    ledger.check(err <= EQUIVARIANCE_TOL, space, f"{label}: equivariance error {err}")

    def boundary_equivariance(self) -> float:
        """Known defect probe, outside the operations: the same pair on a
        flowed partition product, whose backward path meets false
        rejections of true members near the boundary, so the bisection can
        stop at a different crossing. Returns the pair's error."""
        rng = self.rng(PROBE_STREAM)
        space, shape = self.sizes["ball_probe"]
        dec, _ = self.decs[shape]
        f = SP.flow(I.partition_product(rng, *shape), 0.5, dec)
        shift = float(rng.uniform(0.05, 0.3))
        base = B.escape_time(f, _oracle(space), dec)
        moved = B.escape_time(SP.flow(f, shift, dec), _oracle(space), dec)
        err = abs(moved.sigma - base.sigma - shift)
        self.report["boundary_equivariance"] = {"shape": shape, "shift": shift, "error": err}
        return err

    def end_to_end(self, ledger):
        out = super().end_to_end(ledger)
        self.report["escape_per_s"] = ledger.rate()
        return out


def _oracle(space):
    if space == "lorentzian":
        return B.multiaffine_lorentzian_oracle()
    if space == "capped":
        return B.capped_lorentzian_oracle()
    return B.stable_oracle()


# ---------------------------------------------------------------- cli


def _python_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd, timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` without its timeout, whose polling wait rounds a
    child's time up to steps of up to 50 ms; a timer kills a child that
    hangs, and any exception here kills the child before it propagates."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _child_seconds(root: Path, args, workdir: Path) -> float:
    t0 = time.perf_counter()
    proc = run_child(
        [sys.executable, *args], 120, cwd=workdir, env=_python_env(root),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}")
    return elapsed


class CliWorkload(Workload):
    """A fixed script of fresh ``python -m lorentzflow`` processes."""

    name = "cli"
    round_seconds = 10.0

    def setup(self):
        # a no-op command: interpreter start, package import, parser
        _child_seconds(self.root, ["-m", "lorentzflow", "--help"], self.workdir)
        self.child_summaries = []

    def make_round(self, r):
        from lorentzflow import io as pio

        rng = self.rng(r)
        d = self.workdir / f"round{r}"
        (d / "samples").mkdir(parents=True, exist_ok=True)
        (n, k), (sn, sk), (kappa, cd), spectrum = (
            self.sizes["cli_multiaffine"], self.sizes["cli_small"],
            self.sizes["cli_capped"], self.sizes["cli_spectrum"],
        )
        dec = SP.uniform_decomposition(n, k)
        files = {
            "member": SP.flow(I.partition_product(rng, n, k), 0.5, dec),
            "small": SP.flow(I.partition_product(rng, sn, sk), 0.5, SP.uniform_decomposition(sn, sk)),
            "capped": I.capped_block_product(rng, kappa, cd),
        }
        for name, f in files.items():
            (d / f"{name}.json").write_text(pio.dumps(pio.poly_to_obj(f)))
        kap = ",".join(str(x) for x in kappa)
        seed = str(int(rng.integers(1, 2**31)))
        script = [
            ("certify", ["certify", "--input", "member.json"], 0, _check_certify),
            ("certify", ["certify", "--input", "member.json", "--mode", "stable"], 0, _check_certify),
            ("flow", ["flow", "--input", "member.json", "--times", "0,0.1,1"], 0, _check_csv(3)),
            ("flow", ["flow", "--input", "capped.json", "--polarized", "--times", "0,0.5"], 0, _check_csv(2)),
            ("ballmap", ["ballmap", "--input", "small.json"], 0, _check_ballmap),
            ("polarize", ["polarize", "--input", "capped.json", "--direction", "up", "--output", "lifted.json"], 0, None),
            ("polarize", ["polarize", "--input", "lifted.json", "--direction", "down", "--kappa", kap], 0,
             _check_round_trip(files["capped"])),
            ("strata", ["strata", "--input", "capped.json"], 0, _check_strata),
            ("spectrum", ["spectrum", "--n", str(spectrum[0]), "--d", str(spectrum[1])], 0,
             _check_spectrum(math.comb(*spectrum))),
            ("sample", ["sample", "--n", str(sn), "--d", str(sk), "--kind", "multiaffine", "--interior", "0.5",
                        "--count", "2", "--seed", seed, "--output-dir", "samples"], 0, _check_sample(2)),
        ]
        return d, script

    def run_round(self, work, ledger):
        d, script = work
        for key, (sub, argv, want, check) in enumerate(script):
            if self.tracer.enabled:
                summary = d / f"trace-{ledger.attempted + 1}.json"
                cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(summary), *argv]
            else:
                summary = None
                cmd = [sys.executable, "-m", "lorentzflow", *argv]
            proc = ledger.op(key, sub, run_child, cmd, 170, cwd=d, env=_python_env(self.root),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc is None:
                continue
            if summary is not None and summary.exists():
                self.child_summaries.append(json.loads(summary.read_text()))
            if not ledger.check(proc.returncode == want, sub,
                                f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-200:]}"):
                continue
            if check is not None:
                try:
                    problem = check(proc.stdout)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problem = f"unparsable output: {exc}"
                ledger.check(problem is None, sub, f"{' '.join(argv)}: {problem}")

    def end_to_end(self, ledger):
        self.report["cli_cmd_per_s"] = ledger.rate()
        return {"peak_rss_mb": peak_rss_mb(children=True)}


def _check_certify(out):
    obj = json.loads(out)
    if obj["status"] == "rejected":
        return "a member was rejected"
    return None


def _check_csv(rows):
    def check(out):
        lines = out.strip().splitlines()
        width = len(lines[0].split(","))
        if len(lines) != rows + 1 or any(len(l.split(",")) != width for l in lines):
            return f"expected {rows} rows of {width} columns"
        for line in lines[1:]:
            fields = line.split(",")
            [float(v) for v in fields[:-1]]
            if fields[-1] == "rejected":
                return "a flowed member was rejected"
        return None

    return check


def _check_ballmap(out):
    obj = json.loads(out)
    if abs(obj["norm"] - math.exp(-obj["sigma"])) > BALL_NORM_TOL:
        return f"|ball_point|={obj['norm']} but exp(-sigma)={math.exp(-obj['sigma'])}"
    return None


def _check_round_trip(original):
    def check(out):
        obj = json.loads(out)
        got = {tuple(t["exponent"]): t["coeff"] for t in obj["terms"]}
        err = max(abs(got.get(a, 0.0) - c) for a, c in original.terms.items())
        return None if err <= 1e-12 else f"round trip error {err}"

    return check


def _check_strata(out):
    obj = json.loads(out)
    return None if obj["kind"] == "m_convex" and obj["m_convex"] else f"unexpected report {obj['kind']}"


def _check_spectrum(size):
    def check(out):
        obj = json.loads(out)
        if obj["basis_size"] != size or len(obj["eigenvalues"]) != size:
            return f"expected {size} eigenvalues"
        return None if abs(obj["eigenvalues"][0] - 1.0) <= 1e-12 else "top eigenvalue is not 1"

    return check


def _check_sample(count):
    def check(out):
        obj = json.loads(out)
        if len(obj["samples"]) != count:
            return f"expected {count} samples"
        bad = [s for s in obj["samples"] if s["status"] == "rejected"]
        return "a sample was rejected" if bad else None

    return check


WORKLOADS = {
    w.name: w for w in (CertifyWorkload, FlowWorkload, BallmapWorkload, CliWorkload)
}


ALL_CLASSES = (
    "interior_flow", "interior_product", "partition_boundary",
    "transversal_boundary", "hessian_fail", "negative_coefficient",
)

# Input sizes. FULL is the benchmark; SMOKE keeps every layer and metric
# at toy sizes for the benchmark's own test.
FULL = {
    # classes per size; at (12,6) the exchange check on a transversal
    # support (3.4 s) and the stable certificate (3-4 s an input) would
    # take most of a pass, so they are left out there
    "certify_multiaffine": {
        (8, 4): ALL_CLASSES,
        (10, 5): ALL_CLASSES,
        (12, 6): ("interior_flow", "interior_product", "partition_boundary", "hessian_fail",
                  "negative_coefficient"),
    },
    "certify_stable": [(8, 4), (10, 5)],
    "certify_capped": [((2, 2, 2, 2), 4), ((4, 4, 4, 4), 4)],
    "certify_elementary": [(14, 7), (16, 8)],
    "sampler": (8, 4),
    "flow_multiaffine": (12, 6),
    "flow_capped": ((4, 4, 4, 4), 4),
    "flow_inputs": 8,
    "polarized_inputs": 4,
    "flows_per_input": 10,
    # (oracle, shape, input kind, seeded count, reference count)
    "ball_jobs": [
        ("lorentzian", (8, 4), "product", 4, 0),
        ("lorentzian", (8, 4), "partition", 4, 0),
        ("lorentzian", (10, 5), "product", 0, 1),
        ("capped", ((3, 3, 2, 2), 4), "block", 0, 1),
        ("capped", ((2, 2, 2, 2), 4), "block", 3, 0),
        ("stable", (6, 3), "partition", 0, 1),
        ("stable", ((2, 2, 2, 2), 2), "block", 1, 1),
    ],
    "ball_probe": ("lorentzian", (8, 4)),
    "cli_multiaffine": (10, 5),
    "cli_small": (8, 4),
    "cli_capped": ((3, 3, 3, 3), 4),
    "cli_spectrum": (12, 6),
}

SMOKE = {
    "certify_multiaffine": {(6, 3): ALL_CLASSES},
    "certify_stable": [(6, 3)],
    "certify_capped": [((2, 2), 2), ((1, 2, 2), 2)],
    "certify_elementary": [(6, 3)],
    "sampler": (6, 3),
    "flow_multiaffine": (6, 3),
    "flow_capped": ((2, 2), 2),
    "flow_inputs": 2,
    "polarized_inputs": 1,
    "flows_per_input": 3,
    "ball_jobs": [
        ("lorentzian", (6, 3), "product", 1, 0),
        ("lorentzian", (6, 3), "partition", 1, 0),
        ("capped", ((2, 2), 2), "block", 1, 0),
        ("stable", ((2, 2), 2), "block", 0, 1),
    ],
    "ball_probe": ("lorentzian", (6, 3)),
    "cli_multiaffine": (6, 3),
    "cli_small": (6, 3),
    "cli_capped": ((2, 2), 2),
    "cli_spectrum": (6, 3),
}

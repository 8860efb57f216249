"""Per-layer tracing of the fentropy package from outside.

Every traced public function is replaced by a wrapper in each module that
holds it under the same name (the defining module and every module that
imported it by name), so calls between library modules are seen as well as
calls from the benchmark. Methods are wrapped on their class.

Two kinds of wrapper:

- span: one record per call (name, job, id of the calling span, start,
  duration, self time, work counts), kept in memory until the run ends.
- leaf: hot functions with no traced callee (``reduce_letters`` runs
  millions of times) only bump counters: calls, seconds and work.

Self time is a span's duration minus the time of the traced calls made
inside it. Work counts that need extra computation (residuals, back
residuals) are taken with tracing switched off, and their cost is charged
to ``overhead_s`` instead of to the caller's self time.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter

# A frame is [span id, seconds spent in traced callees]; frame 0 is the root.
_ROOT = -1


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = -1  # index of the running job; every span records it
        self.frames = [[_ROOT, 0.0]]
        self.spans = []  # (name, job, parent span, start, dur, self_s, work)
        self.leaves = {}  # name -> [calls, seconds, work]
        self.leaf_durations = {}  # name -> array of per-call seconds
        self.overhead_s = 0.0

    def _charge_work(self, fn, *args):
        """Run a work-count callback untraced, charging it to overhead."""
        self.enabled = False
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            self.frames[-1][1] += dt
            self.overhead_s += dt
            self.enabled = True

    def span(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frames = tracer.frames
            sid = len(tracer.spans)
            tracer.spans.append(None)
            frame = [sid, 0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                frames.pop()
                frames[-1][1] += dur
                tracer.spans[sid] = (name, tracer.job, frames[-1][0], t0, dur,
                                     dur - frame[1], None)
            if work is not None:
                counts = tracer._charge_work(work, args, kwargs, result)
                tracer.spans[sid] = tracer.spans[sid][:6] + (counts,)
            return result

        return wrapped

    def leaf(self, name, fn, work=None, keep_durations=False):
        tracer = self
        self.leaves.setdefault(name, [0, 0.0, 0])
        if keep_durations:
            self.leaf_durations.setdefault(name, array("d"))

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            tracer.frames[-1][1] += dt
            r = tracer.leaves[name]
            r[0] += 1
            r[1] += dt
            if work is not None:
                r[2] += work(args, result)
            if keep_durations:
                tracer.leaf_durations[name].append(dt)
            return result

        return wrapped


def _modules():
    from fentropy import divergence, free_boundary, majorant, sigma_walk, words
    import fentropy

    return [fentropy, words, divergence, free_boundary, sigma_walk, majorant]


def _replace_everywhere(original, wrapped, modules):
    """Rebind every module attribute that is `original` to `wrapped`."""
    hits = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapped)
                hits.append((mod, attr, original))
    return hits


# --- work counts --------------------------------------------------------------

def _w_letters(args, result):
    return len(args[0])


def _w_words(args, result):
    return len(result)


def _w_atoms(args, kwargs, result):
    return {"atoms": len(args[0].atoms)}


def _w_solve_q(args, kwargs, result):
    res = result.residuals(args[0])
    return {"residual": max(abs(r) for r in res.values())}


def _w_t_inverse(args, kwargs, result):
    from fentropy import free_boundary as fb

    lam, f = args[0], args[1]
    back = fb.t_map(result, f)
    return {"back_residual": max(abs(back.p[j] - lam.p[j]) for j in lam.p)}


def _w_pushforward(args, kwargs, result):
    return {"cylinders_in": len(args[1].masses)}


def _w_cylinder_entropy(args, kwargs, result):
    return {"depth": args[1].depth}


def _w_engine_build(args, kwargs, result):
    engine = args[0]
    nbytes = engine.refine_matrix.nbytes + sum(
        b.nbytes for b in engine.push_matrices.values())
    return {"matrix_bytes": nbytes}


def _w_scan(args, kwargs, result):
    return {"samples": result["samples"],
            "infinite": result["infinite_entropy_samples"]}


def _w_exact(args, kwargs, result):
    return {"support": len(result.entries)}


def _w_sample_endpoints(args, kwargs, result):
    return {"trajectories": args[2] if len(args) > 2 else kwargs["trajectories"]}


def _w_boundary_empirical(args, kwargs, result):
    return {"trajectories": result["trajectories"], "discards": result["discards"]}


def _w_folner(args, kwargs, result):
    return {"points": len(result["curve"])}


def _w_rho_norm(args, kwargs, result):
    n = sum(1 for m in args[0].space.atoms.values() if m > 0)
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
    return {"subsets": (2**n - 1) if mode == "exact" else n}


# (module attribute path, work callback)
SPANS = [
    ("divergence.f_divergence", _w_atoms),
    ("free_boundary.solve_q", _w_solve_q),
    ("free_boundary.t_inverse", _w_t_inverse),
    ("free_boundary.t_map", None),
    ("free_boundary.harmonic_measure", None),
    ("free_boundary.pushforward", _w_pushforward),
    ("free_boundary.cylinder_entropy", _w_cylinder_entropy),
    ("free_boundary.closed_form_harmonic_entropy", None),
    ("free_boundary.EntropyEngine.__init__", _w_engine_build),
    ("free_boundary.minimality_scan", _w_scan),
    ("free_boundary.entropy_gradient_at_harmonic", None),
    ("sigma_walk.exact_distribution", _w_exact),
    ("sigma_walk.abel_measure", None),
    ("sigma_walk.abel_identity_residual", None),
    ("sigma_walk.poisson_transform_cylinder", None),
    ("sigma_walk.check_harmonic", None),
    ("sigma_walk.martingale_check", None),
    ("sigma_walk.folner_entropy_curve", _w_folner),
    ("sigma_walk.sample_endpoints", _w_sample_endpoints),
    ("sigma_walk.boundary_empirical", _w_boundary_empirical),
    ("majorant.vallee_poussin", None),
    ("majorant.split_integrable", None),
    ("majorant.rho_norm", _w_rho_norm),
    ("majorant.rho_abs_continuity", None),
    ("majorant.majorant_for_measure", None),
    ("majorant.combine", None),
    ("majorant.concave_envelope", None),
    ("majorant.Majorant.validate", None),
]

# (path, work callback, keep per-call durations)
LEAVES = [
    ("words.reduce_letters", _w_letters, False),
    ("words.enumerate_words", _w_words, False),
    ("free_boundary.EntropyEngine.entropy", None, True),
]


def _resolve(path):
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
    parts = path.split(".")
    owner = mods[parts[0]]
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Instrumentation:
    """Installs the wrappers on the live modules and takes them off again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.restore = []

    def install(self):
        modules = _modules()
        for path, work in SPANS:
            self._wrap(path, lambda fn, p=path, w=work: self.tracer.span(p, fn, w), modules)
        for path, work, keep in LEAVES:
            self._wrap(path, lambda fn, p=path, w=work, k=keep: self.tracer.leaf(p, fn, w, k),
                       modules)

    def _wrap(self, path, make_wrapper, modules):
        owner, attr = _resolve(path)
        original = vars(owner)[attr]
        wrapped = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            self.restore.append((owner, attr, original))
        else:
            self.restore.extend(_replace_everywhere(original, wrapped, modules))

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore = []


# --- aggregation --------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer metrics over `jobs` traced jobs; sums are given per job."""
    by_name: dict = {}
    for sp in tracer.spans:
        if sp is not None:
            by_name.setdefault(sp[0], []).append(sp)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(sp[5] for sp in by_name.get(name, ()))

    def durs(name):
        return [sp[4] for sp in by_name.get(name, ())]

    def work(name, key):
        return [sp[6][key] for sp in by_name.get(name, ()) if sp[6] is not None]

    per_job = 1.0 / max(jobs, 1)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def calls_self(path, p50_unit=None):
        put(f"{path}.calls", calls(path) * per_job, "count/job")
        put(f"{path}.self_s", self_s(path) * per_job, "s/job")
        if p50_unit == "ms":
            put(f"{path}.p50_ms", _median(durs(path)) * 1e3, "ms")

    def rate(total, seconds):
        return total / seconds if seconds > 0 else 0.0

    for path, unit in (("words.reduce_letters", "letters"),
                       ("words.enumerate_words", "words")):
        n, secs, w = tracer.leaves.get(path, (0, 0.0, 0))
        if path == "words.reduce_letters":
            put(f"{path}.calls", n * per_job, "count/job")
        put(f"{path}.{unit}", w * per_job, f"{unit}/job")
        put(f"{path}.self_s", secs * per_job, "s/job")

    calls_self("divergence.f_divergence")
    put("divergence.f_divergence.atoms",
        sum(work("divergence.f_divergence", "atoms")) * per_job, "atoms/job")

    calls_self("free_boundary.solve_q")
    put("free_boundary.solve_q.p50_us", _median(durs("free_boundary.solve_q")) * 1e6, "us")
    put("free_boundary.solve_q.max_residual",
        max(work("free_boundary.solve_q", "residual"), default=0.0), "1")
    calls_self("free_boundary.t_inverse")
    put("free_boundary.t_inverse.back_residual_max",
        max(work("free_boundary.t_inverse", "back_residual"), default=0.0), "1")
    for name in ("harmonic_measure", "pushforward", "cylinder_entropy"):
        calls_self(f"free_boundary.{name}")
    put("free_boundary.pushforward.cylinders_in",
        sum(work("free_boundary.pushforward", "cylinders_in")) * per_job, "count/job")
    ce = by_name.get("free_boundary.cylinder_entropy", ())
    for depth in (3, 4, 5):
        put(f"free_boundary.cylinder_entropy.p50_ms_depth{depth}",
            _median([sp[4] for sp in ce if sp[6]["depth"] == depth]) * 1e3, "ms")

    build = "free_boundary.EntropyEngine.__init__"
    put("free_boundary.EntropyEngine.build_calls", calls(build) * per_job, "count/job")
    put("free_boundary.EntropyEngine.build_s", sum(durs(build)) * per_job, "s/job")
    put("free_boundary.EntropyEngine.matrix_bytes",
        max(work(build, "matrix_bytes"), default=0), "bytes-computed")
    ent = "free_boundary.EntropyEngine.entropy"
    n, _, _ = tracer.leaves.get(ent, (0, 0.0, 0))
    put(f"{ent}.calls", n * per_job, "count/job")
    put(f"{ent}.p50_us", _median(tracer.leaf_durations.get(ent, ())) * 1e6, "us")
    scan = "free_boundary.minimality_scan"
    samples = sum(work(scan, "samples"))
    put(f"{scan}.samples_per_s", rate(samples, sum(durs(scan))), "1/s")
    put(f"{scan}.glue_self_s", self_s(scan) * per_job, "s/job")
    put(f"{scan}.infinite_share",
        sum(work(scan, "infinite")) / samples if samples else 0.0, "frac")

    for name in ("exact_distribution", "abel_measure", "abel_identity_residual",
                 "poisson_transform_cylinder", "check_harmonic", "martingale_check",
                 "folner_entropy_curve"):
        calls_self(f"sigma_walk.{name}")
    support = max(work("sigma_walk.exact_distribution", "support"), default=0)
    put("sigma_walk.exact_distribution.support_max", support, "count")
    from fentropy import sigma_walk

    put("sigma_walk.exact_distribution.budget_frac",
        support / sigma_walk.ELEMENT_BUDGET, "frac")
    se = "sigma_walk.sample_endpoints"
    put(f"{se}.trajectories_per_s", rate(sum(work(se, "trajectories")), sum(durs(se))), "1/s")
    be = "sigma_walk.boundary_empirical"
    traj = sum(work(be, "trajectories"))
    disc = sum(work(be, "discards"))
    put(f"{be}.trajectories_per_s", rate(traj, sum(durs(be))), "1/s")
    put(f"{be}.accept_ratio", traj / (traj + disc) if traj else 0.0, "frac")
    put("sigma_walk.folner_entropy_curve.points",
        sum(work("sigma_walk.folner_entropy_curve", "points")) * per_job, "count/job")

    for name in ("vallee_poussin", "split_integrable", "rho_norm", "combine",
                 "concave_envelope", "Majorant.validate"):
        calls_self(f"majorant.{name}", p50_unit="ms")
    put("majorant.rho_norm.subsets",
        sum(work("majorant.rho_norm", "subsets")) * per_job, "count/job")
    return out

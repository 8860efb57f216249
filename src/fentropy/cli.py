"""Command-line front end binding the core modules.

Reports are emitted as canonical JSON (sorted keys, 17 significant digits) so
that identical configs and seeds reproduce byte-identical bytes; wall-clock
timing is opt-in for that reason. Output files are written via a temp file
and renamed, never left partial.

Each handler imports the library names it uses, so a process loads only the
modules of its subcommand; solve-q, harmonic, tmap and tinv load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    BudgetExceeded,
    FentropyError,
    ParseError,
    UnsupportedPayloadForCsv,
    ValidationError,
)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out):
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        x = float(obj)
        if math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        elif math.isnan(x):
            out.append('"nan"')
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, val) in enumerate(sorted(obj.items(), key=lambda kv: str(kv[0]))):
            if k:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _write(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, val in enumerate(obj):
            if k:
                out.append(",")
            _write(val, out)
        out.append("]")
    elif hasattr(obj, "tolist"):
        # numpy scalars and arrays, through their Python equivalents
        _write(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def emit_csv(results: dict) -> str:
    """Flatten curve/table payloads to CSV with a header row."""
    if "curve" in results:
        rows = results["curve"]
        header = sorted(rows[0]) if rows else ["a", "h"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(format(float(row[h]), ".17g") for h in header))
        return "\n".join(lines) + "\n"
    if "table" in results:
        table = results["table"]
        first = next(iter(table.values()), {})
        header = ["key"] + sorted(first)
        lines = [",".join(header)]
        for key in sorted(table):
            row = table[key]
            lines.append(",".join([json.dumps(key)] + [
                format(float(row[h]), ".17g") for h in header[1:]
            ]))
        return "\n".join(lines) + "\n"
    raise UnsupportedPayloadForCsv("payload has neither a curve nor a table")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_mu(path: str):
    from .free_boundary import GeneratorMeasure

    return GeneratorMeasure.from_json(_load_json(path))


def _load_rho(path: str):
    from .majorant import Majorant

    rho = Majorant.from_json(_load_json(path))
    rho.validate()
    return rho


def _parse_floats(s: str):
    try:
        values = [float(x) for x in s.split(",") if x]
    except ValueError as exc:
        raise ParseError(f"bad number in {s!r}: {exc}") from exc
    if not values:
        raise ParseError(f"no numbers in {s!r}")
    return values


def _parse_levels(s: str) -> range:
    """'lo:hi' with integers 0 <= lo <= hi, as range(lo, hi + 1)."""
    try:
        lo, hi = (int(x) for x in s.split(":"))
    except ValueError as exc:
        raise ParseError(f"levels must be lo:hi, got {s!r}") from exc
    if not 0 <= lo <= hi:
        raise ParseError(f"levels must satisfy 0 <= lo <= hi, got {s!r}")
    return range(lo, hi + 1)


# --- command handlers ---------------------------------------------------------

def cmd_solve_q(args):
    from .free_boundary import solve_q
    from .words import letter_order

    mu = _load_mu(args.mu)
    qv = solve_q(mu, tol=args.tol)
    res = qv.residuals(mu)
    return {
        "q": {str(j): qv.q[j] for j in letter_order(mu.d)},
        "v": {str(j): qv.v[j] for j in letter_order(mu.d)},
        "max_residual": max(abs(r) for r in res.values()),
        "v_sum": math.fsum(qv.v.values()),
    }


def cmd_harmonic(args):
    from .free_boundary import harmonic_measure

    mu = _load_mu(args.mu)
    return harmonic_measure(mu, args.depth).to_json()


def cmd_entropy(args):
    from .divergence import generator_from_string
    from .free_boundary import CylinderMeasure, cylinder_entropy, harmonic_measure, t_inverse

    lam = _load_mu(getattr(args, "lambda"))
    f = generator_from_string(args.f)
    if args.nu:
        nu = CylinderMeasure.from_json(_load_json(args.nu))
    else:
        nu = harmonic_measure(t_inverse(lam, f), args.depth)
    return {"h": cylinder_entropy(lam, nu, f), "depth": nu.depth}


def cmd_tmap(args):
    from .divergence import generator_from_string
    from .free_boundary import t_map

    mu = _load_mu(args.mu)
    return t_map(mu, generator_from_string(args.f)).to_json()


def cmd_tinv(args):
    from .divergence import generator_from_string
    from .free_boundary import t_inverse

    lam = _load_mu(getattr(args, "lambda"))
    return t_inverse(lam, generator_from_string(args.f), tol=args.tol).to_json()


def cmd_scan(args):
    from .divergence import generator_from_string
    from .free_boundary import minimality_scan

    lam = _load_mu(getattr(args, "lambda"))
    return minimality_scan(
        lam, generator_from_string(args.f), args.depth, args.samples, args.seed,
        zero_fraction=args.zero_fraction,
        uniform_tail_fraction=args.uniform_tail_fraction,
    )


def cmd_gradient(args):
    from .divergence import generator_from_string
    from .free_boundary import entropy_gradient_at_harmonic

    lam = _load_mu(getattr(args, "lambda"))
    grad = entropy_gradient_at_harmonic(
        lam, generator_from_string(args.f), args.depth, h_step=args.h_step
    )
    return {"gradient": grad.tolist(), "max_abs_component": float(abs(grad).max())}


def cmd_walk_exact(args):
    from .sigma_walk import StochasticSequence, exact_distribution

    s = StochasticSequence.from_json(_load_json(args.sigma))
    dist = exact_distribution(s, args.level)
    enc = s.group.encode
    return {
        "level": dist.n,
        "total": dist.total,
        "entries": {f"{j}|{enc(g)}": m for (j, g), m in dist.entries.items()},
    }


def cmd_walk_sample(args):
    from .sigma_walk import StochasticSequence, sample_trajectory

    s = StochasticSequence.from_json(_load_json(args.sigma))
    traj = sample_trajectory(s, args.steps, args.seed)
    enc = s.group.encode
    return {"trajectory": [{"n": st.n, "i": st.i, "g": enc(st.g)} for st in traj]}


def cmd_walk_boundary(args):
    from .sigma_walk import boundary_empirical

    mu = _load_mu(args.mu)
    return boundary_empirical(mu, args.steps, args.trajectories, args.seed, args.depth)


def cmd_harmonic_check(args):
    from .sigma_walk import LevelFunction, StochasticSequence, check_harmonic

    s = StochasticSequence.from_json(_load_json(args.sigma))
    h = LevelFunction.from_json(_load_json(args.h), s.group)
    return {"max_residual": check_harmonic(s, h, _parse_levels(args.levels))}


def cmd_validate_sigma(args):
    from .sigma_walk import StochasticSequence, validate_sigma

    s = StochasticSequence.from_json(_load_json(args.sigma))
    return validate_sigma(s)


def cmd_abel(args):
    from .sigma_walk import StochasticSequence, abel_measure

    s = StochasticSequence.from_json(_load_json(args.sigma))
    ab = abel_measure(s, args.t, args.r, args.a, args.K, args.eps)
    enc = s.group.encode
    return {
        "t": ab.t, "r": ab.r, "a": ab.a, "K": ab.K, "N": ab.N,
        "tail_mass": ab.tail_mass,
        "stored_total": ab.stored_total,
        "entries": {f"{n}|{j}|{enc(g)}": m for (n, j, g), m in ab.entries.items()},
    }


def cmd_abel_identity(args):
    from .sigma_walk import StochasticSequence, abel_identity_residual

    s = StochasticSequence.from_json(_load_json(args.sigma))
    return {"max_residual": abel_identity_residual(s, args.t, args.a, args.K, args.eps)}


def cmd_folner(args):
    from .divergence import FiniteMeasure, generator_from_string
    from .sigma_walk import folner_entropy_curve

    lam = FiniteMeasure.from_json(_load_json(args.lambda_z))
    lam = FiniteMeasure({int(k): v for k, v in lam.atoms.items()})
    f = generator_from_string(args.f)
    return folner_entropy_curve(
        lam, f, _parse_floats(args.a_values), args.eps, max_level=args.max_level
    )


def cmd_rho_norm(args):
    from .majorant import WeightedFunction, rho_norm

    wf = WeightedFunction.from_json(_load_json(args.function))
    return {"norm": rho_norm(wf, _load_rho(args.rho), mode=args.mode)}


def cmd_rho_ac(args):
    from .divergence import FiniteMeasure
    from .majorant import rho_abs_continuity

    m = FiniteMeasure.from_json(_load_json(args.m))
    nu = FiniteMeasure.from_json(_load_json(args.nu))
    return {"absolutely_continuous": rho_abs_continuity(m, nu, _load_rho(args.rho))}


def cmd_envelope(args):
    from .majorant import concave_envelope

    samples = _load_json(args.samples)
    if not (isinstance(samples, list) and all(isinstance(p, list) for p in samples)):
        raise ParseError(f"{args.samples}: samples must be a JSON list of [t, y] pairs")
    return concave_envelope(samples).to_json()


def _parse_growth(spec: str):
    spec = spec.strip().lower()
    if spec.startswith("pow:"):
        try:
            k = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad exponent in growth spec {spec!r}") from exc
        if not 1.0 < k < math.inf:
            raise ParseError("pow:<k> needs a finite k > 1 for superlinearity")

        return lambda t: t**k
    if spec == "tlogt":
        return lambda t: t * math.log1p(t)
    raise ParseError(f"unknown growth spec {spec!r}; use pow:<k> or tlogt")


def cmd_vp(args):
    from .majorant import vallee_poussin

    rho, K = vallee_poussin(_parse_growth(args.g), args.M)
    return {"rho": rho.to_json(), "K": K}


def cmd_split(args):
    from .majorant import WeightedFunction, rho_norm, split_integrable

    wf = WeightedFunction.from_json(_load_json(args.function))
    rho = _load_rho(args.rho)
    b = split_integrable(wf, rho, args.C)
    rest = WeightedFunction(
        wf.space, {k: (0.0 if k in b else v) for k, v in wf.values.items()}
    )
    return {
        "bad_set": sorted(str(x) for x in b),
        "post_split_norm": rho_norm(rest, rho, mode="exact"),
    }


SUBCOMMANDS = {
    "solve-q": cmd_solve_q,
    "harmonic": cmd_harmonic,
    "entropy": cmd_entropy,
    "tmap": cmd_tmap,
    "tinv": cmd_tinv,
    "scan": cmd_scan,
    "gradient": cmd_gradient,
    "validate-sigma": cmd_validate_sigma,
    "walk-exact": cmd_walk_exact,
    "walk-sample": cmd_walk_sample,
    "walk-boundary": cmd_walk_boundary,
    "harmonic-check": cmd_harmonic_check,
    "abel": cmd_abel,
    "abel-identity": cmd_abel_identity,
    "folner": cmd_folner,
    "rho-norm": cmd_rho_norm,
    "rho-ac": cmd_rho_ac,
    "envelope": cmd_envelope,
    "vp": cmd_vp,
    "split": cmd_split,
}


def build_parser() -> argparse.ArgumentParser:
    # defaults that mirror the library's are literals, so that building the parser
    # imports no library module; tests pin each one against the library
    # SUPPRESS keeps subparser re-parsing from clobbering globally parsed flags
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--out", help="output path (written atomically)")
    common.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock seconds (breaks byte determinism)")
    ap = argparse.ArgumentParser(prog="fentropy", parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **arguments):
        p = sub.add_parser(name, parents=[common])
        for flag, kwargs in arguments.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)

    add("solve-q", mu={"required": True}, tol={"type": float, "default": 1e-12})
    add("harmonic", mu={"required": True}, depth={"type": int, "required": True})
    # "lambda" is a Python keyword, so those flags are passed as **{"lambda": ...}
    add("entropy", **{"lambda": {"required": True}}, f={"required": True},
        depth={"type": int, "default": 2}, nu={})
    add("tmap", mu={"required": True}, f={"required": True})
    add("tinv", **{"lambda": {"required": True}}, f={"required": True},
        tol={"type": float, "default": 1e-10})
    add("scan", **{"lambda": {"required": True}}, f={"required": True},
        depth={"type": int, "required": True}, samples={"type": int, "required": True},
        seed={"type": int, "required": True},
        zero_fraction={"type": float, "default": 0.05},
        uniform_tail_fraction={"type": float, "default": 0.1})
    add("gradient", **{"lambda": {"required": True}}, f={"required": True},
        depth={"type": int, "required": True}, h_step={"type": float, "default": 1e-5})
    add("validate-sigma", sigma={"required": True})
    add("walk-exact", sigma={"required": True}, level={"type": int, "required": True})
    add("walk-sample", sigma={"required": True}, steps={"type": int, "required": True},
        seed={"type": int, "required": True})
    add("walk-boundary", mu={"required": True}, steps={"type": int, "required": True},
        trajectories={"type": int, "required": True},
        seed={"type": int, "required": True}, depth={"type": int, "required": True})
    add("harmonic-check", sigma={"required": True}, h={"required": True},
        levels={"default": "1:4"})
    add("abel", sigma={"required": True}, t={"type": int, "required": True},
        r={"type": int, "required": True}, a={"type": float, "required": True},
        K={"type": int, "default": 0}, eps={"type": float, "default": 1e-10})
    add("abel-identity", sigma={"required": True}, t={"type": int, "required": True},
        a={"type": float, "required": True}, K={"type": int, "default": 0},
        eps={"type": float, "default": 1e-10})
    add("folner", lambda_z={"required": True}, f={"required": True},
        a_values={"required": True}, eps={"type": float, "default": 1e-6},
        max_level={"type": int, "default": 18})
    add("rho-norm", function={"required": True}, rho={"required": True},
        mode={"default": "exact", "choices": ["exact", "prefix"]})
    add("rho-ac", m={"required": True}, nu={"required": True}, rho={"required": True})
    add("envelope", samples={"required": True})
    add("vp", g={"required": True}, M={"type": float, "required": True})
    add("split", function={"required": True}, rho={"required": True},
        C={"type": float, "required": True})
    return ap


def run(argv) -> tuple[int, str]:
    ap = build_parser()
    args = ap.parse_args(argv)
    start = time.monotonic()
    handler = SUBCOMMANDS[args.command]
    out_path = getattr(args, "out", None)
    want_csv = getattr(args, "csv", False)
    want_timing = getattr(args, "timing", False)
    results = handler(args)
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("out", "csv", "timing") and not callable(v)
    }
    report = {
        "command": args.command,
        "config": config,
        "results": results,
        "version": __version__,
    }
    if want_timing:
        report["wall_clock_seconds"] = time.monotonic() - start
    if want_csv:
        payload = emit_csv(results)
    else:
        payload = canonical_json(report) + "\n"
    if out_path:
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, out_path)
        return 0, ""
    return 0, payload


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, payload = run(argv)
        if payload:
            sys.stdout.write(payload)
        return code
    except FentropyError as exc:
        sys.stderr.write(canonical_json(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        if isinstance(exc, BudgetExceeded):
            return 3
        return 2 if isinstance(exc, ValidationError) else 4


if __name__ == "__main__":
    sys.exit(main())

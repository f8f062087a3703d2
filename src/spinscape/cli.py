"""Batch command-line front door.

Subcommands wire the library modules into reproducible experiments and emit
machine-readable reports: JSON with a top-level ``schema_version`` (plus a
timestamp field excluded from byte comparison), CSV with a header row naming
units.  Every subcommand is a pure function of its resolved configuration
and seeds; the exit code is 0 only when all embedded assertions pass.

Flags: ``--lattice KxLxM`` (or ``KxL`` for 2D), ``--boundary``, ``--q``,
``--beta`` (repeatable), ``--seed``, ``--limit-states``, ``--out``, and
``--config FILE`` (simple ``key = value`` lines mirroring the flags).
Environment variables ``SPINSCAPE_STATE_LIMIT`` and ``SPINSCAPE_STEP_BUDGET``
override the default budgets.

``potential`` (which loads scipy) and ``dynamics`` are imported inside the
commands that run them, ``simulate``, ``capacity`` and ``kappa``, so the
others start with numpy alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from .canon import PathSeq, canonical_path, classify_gateway, escape_path, is_canonical
from .lattice import Lattice2D, LatticeSpec, OPEN, PERIODIC, SpinConfig, is_ground
from .landscape import (
    DEFAULT_STATE_LIMIT,
    barrier_report,
    comm_height,
    enumerate_space,
    export_set,
    gamma_formula,
    typical_sets,
)

SCHEMA_VERSION = "1.0"

__all__ = [
    "main",
    "cmd_barrier",
    "cmd_simulate",
    "cmd_capacity",
    "cmd_kappa",
    "cmd_paths",
    "cmd_classify",
    "cmd_enumerate",
]


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _parse_lattice(text: str):
    parts = text.lower().replace("×", "x").split("x")
    dims = tuple(int(p) for p in parts)
    if len(dims) not in (2, 3):
        raise argparse.ArgumentTypeError("lattice must be KxL or KxLxM")
    return dims


def make_spec(dims, q: int, boundary: str):
    if len(dims) == 3:
        return LatticeSpec(K=dims[0], L=dims[1], M=dims[2], q=q, boundary=boundary)
    return Lattice2D(K=dims[0], L=dims[1], q=q, boundary=boundary)


def _read_config_file(path: str) -> dict:
    """Simple ``key = value`` lines; '#' starts a comment; keys mirror flags
    (dashes or underscores)."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "beta":
                out.setdefault("beta", []).extend(float(v) for v in val.split())
            else:
                out[key] = val
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config file < flags < environment budget overrides into one
    plain dict embedded in every report."""
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg.update(_read_config_file(args.config))
        unknown = sorted(set(cfg) - set(vars(args)))
        if unknown:
            raise SystemExit(f"error: unknown config key(s) for {args.command}: "
                             + ", ".join(unknown))
    for key in ("lattice", "boundary", "q", "seed", "limit_states", "out",
                "beta", "n_samples", "state_code", "spin_a", "spin_b",
                "escape_n", "kind", "replay", "what"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    # normalize types for file-sourced values
    if isinstance(cfg.get("lattice"), str):
        cfg["lattice"] = _parse_lattice(cfg["lattice"])
    for key in ("q", "seed", "limit_states", "n_samples", "spin_a", "spin_b",
                "escape_n"):
        if key in cfg and not isinstance(cfg[key], int):
            cfg[key] = int(cfg[key])
    if "beta" in cfg:
        cfg["beta"] = [float(b) for b in np.atleast_1d(cfg["beta"])]
    if "state_code" in cfg and not isinstance(cfg["state_code"], int):
        cfg["state_code"] = int(cfg["state_code"])
    env_limit = os.environ.get("SPINSCAPE_STATE_LIMIT")
    if env_limit and "limit_states" not in cfg:
        cfg["limit_states"] = int(env_limit)
    env_budget = os.environ.get("SPINSCAPE_STEP_BUDGET")
    if env_budget:
        cfg["step_budget"] = int(env_budget)
    cfg.setdefault("boundary", PERIODIC)
    cfg.setdefault("q", 2)
    cfg.setdefault("seed", 0)
    cfg.setdefault("limit_states", DEFAULT_STATE_LIMIT)
    return cfg


def _report_skeleton(command: str, cfg: dict) -> dict:
    clean = {k: (list(v) if isinstance(v, (tuple, list)) else v) for k, v in cfg.items()}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": clean,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "assertions": [],
    }


def _assert(report: dict, name: str, ok: bool, detail=None) -> None:
    entry = {"name": name, "passed": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    report["assertions"].append(entry)


def _emit(report: dict, out_path: str | None) -> int:
    report["all_passed"] = all(a["passed"] for a in report["assertions"])
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["all_passed"] else 1


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _need_spec(cfg: dict):
    if "lattice" not in cfg:
        raise SystemExit("error: --lattice is required")
    return make_spec(cfg["lattice"], cfg["q"], cfg["boundary"])


def _budget_error(report: dict, err: Exception, out) -> int:
    report["error"] = {"type": "budget-refusal", "message": str(err)}
    _assert(report, "budget", False, str(err))
    return _emit(report, out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_barrier(cfg: dict) -> int:
    """Brute-force barrier (when enumerable) vs the closed formula."""
    report = _report_skeleton("barrier", cfg)
    spec = _need_spec(cfg)
    brute = None
    try:
        space = enumerate_space(spec, limit=cfg["limit_states"])
        g = space.ground_states()
        brute = comm_height(space, g[1], g[2])
        report["brute_pair"] = [1, 2]
    except ValueError as err:
        report["brute_skipped"] = str(err)
    report["barrier"] = barrier_report(spec, brute)
    formula = report["barrier"]["formula"]
    if brute is not None:
        _assert(
            report,
            "brute_le_formula",
            brute <= formula,
            {"brute": brute, "formula": formula},
        )
        report["match"] = report["barrier"].get("match")
    _assert(report, "formula_positive", formula > 0)
    return _emit(report, cfg.get("out"))


def _ks_exp1(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the normalized samples vs Exp(1)."""
    x = np.sort(samples / samples.mean())
    n = len(x)
    F = 1.0 - np.exp(-x)
    up = np.arange(1, n + 1) / n - F
    lo = F - np.arange(0, n) / n
    return float(max(up.max(), lo.max()))


def cmd_simulate(cfg: dict) -> int:
    """Seeded hitting-time ensemble; CSV samples plus a JSON summary."""
    from . import dynamics, potential

    report = _report_skeleton("simulate", cfg)
    spec = _need_spec(cfg)
    betas = cfg.get("beta") or [3.0]
    n_samples = cfg.get("n_samples", 200)
    seed = cfg["seed"]
    try:
        space = enumerate_space(spec, limit=cfg["limit_states"])
    except ValueError as err:
        return _budget_error(report, err, cfg.get("out"))
    g = space.ground_states()
    start = g[1]
    target_mask = np.zeros(space.n_states, dtype=bool)
    for a, s in g.items():
        if a != 1:
            target_mask[s] = True
    rows = []
    summaries = {}
    lattice_str = "x".join(str(d) for d in cfg["lattice"])
    budget = cfg.get("step_budget", 50_000_000)
    for bi, beta in enumerate(betas):
        try:
            times, steps = dynamics.sample_hitting_times(
                space, start, target_mask, beta, n_samples,
                seed=seed + bi, return_steps=True, max_steps=budget,
            )
        except RuntimeError as err:  # the step budget ran out
            return _budget_error(report, err, cfg.get("out"))
        for j in range(n_samples):
            rows.append((seed + bi, beta, lattice_str, times[j], int(steps[j])))
        exact = potential.mean_hitting_exact(
            potential.chain_from_space(space, beta), start, np.flatnonzero(target_mask)
        )
        se = float(times.std(ddof=1) / math.sqrt(n_samples))
        summaries[str(beta)] = {
            "n_samples": n_samples,
            "mean": float(times.mean()),
            "variance": float(times.var(ddof=1)),
            "exact_mean": exact,
            "ks_exp1": _ks_exp1(times),
            "jumps": int(steps.sum()),
            "step_budget": budget,
        }
        _assert(
            report,
            f"mean_within_3se_beta_{beta}",
            abs(times.mean() - exact) <= 3 * se,
            {"mean": float(times.mean()), "exact": exact, "se": se},
        )
    ks_list = [summaries[str(b)]["ks_exp1"] for b in betas]
    if len(betas) > 1:
        _assert(report, "ks_trend_nonincreasing",
                all(ks_list[i + 1] <= ks_list[i] + 0.05 for i in range(len(ks_list) - 1)),
                {"ks": ks_list})
    report["summaries"] = summaries
    out = cfg.get("out")
    if out:
        csv_path = out + ".csv" if not out.endswith(".csv") else out
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["seed", "beta", "lattice",
                        "hitting_time_continuous_units", "steps_count"])
            w.writerows(rows)
        report["csv"] = csv_path
        json_out = out[:-4] + ".json" if out.endswith(".csv") else out + ".json"
    else:
        json_out = None
    return _emit(report, json_out)


def cmd_capacity(cfg: dict) -> int:
    """Exact capacities, hitting times and test-function diagnostics."""
    from . import potential

    report = _report_skeleton("capacity", cfg)
    spec = _need_spec(cfg)
    betas = cfg.get("beta") or [3.0]
    try:
        space = enumerate_space(spec, limit=cfg["limit_states"])
    except ValueError as err:
        return _budget_error(report, err, cfg.get("out"))
    g = space.ground_states()
    P, Q = [g[1]], [g[a] for a in g if a != 1]
    if isinstance(spec, LatticeSpec):  # the test function's beta-independent inputs
        ts = typical_sets(space, A=(1,), B=tuple(a for a in g if a != 1))
        ts_BA = typical_sets(space, A=tuple(a for a in g if a != 1), B=(1,), gamma=ts.gamma)
        bundle = potential.constants(spec)
    per_beta = {}
    for beta in betas:
        chain = potential.chain_from_space(space, beta)
        h = potential.equilibrium_potential(chain, P, Q)
        cap = potential.dirichlet(chain, h)
        cap2 = potential.dirichlet_generator(chain, h)
        mh_cap = float(np.sum(chain.mu * h) / cap)  # the capacity route, on the same h
        mh_dir = potential.mean_hitting_exact(chain, P[0], Q, method="direct")
        entry = {
            "capacity": cap,
            # the lattice-symmetry classes the potential was solved on
            "potential_solved_on": {"classes": potential.potential_classes(chain, P, Q),
                                    "states": chain.n},
            "dirichlet_rel_gap": abs(cap - cap2) / cap,
            "mean_hitting_capacity_route": mh_cap,
            "mean_hitting_direct_route": mh_dir,
            "mean_hitting_rel_gap": abs(mh_cap - mh_dir) / mh_cap,
        }
        _assert(report, f"dirichlet_formulas_agree_beta_{beta}",
                entry["dirichlet_rel_gap"] <= 1e-10, entry["dirichlet_rel_gap"])
        _assert(report, f"mean_hitting_routes_agree_beta_{beta}",
                entry["mean_hitting_rel_gap"] <= 1e-8, entry["mean_hitting_rel_gap"])
        if isinstance(spec, LatticeSpec):
            h_tilde, info = potential.test_function(space, ts, ts_BA, bundle, beta)
            diag = potential.h1_diagnostics(space, h_tilde, beta, P, Q)
            entry["test_function"] = {k: v for k, v in diag.items()}
            entry["test_function_warnings"] = info["warnings"]
            _assert(report, f"dirichlet_principle_beta_{beta}",
                    diag["dirichlet_principle_holds"], diag["dirichlet_h_tilde"])
        per_beta[str(beta)] = entry
    report["results"] = per_beta
    return _emit(report, cfg.get("out"))


def cmd_kappa(cfg: dict) -> int:
    """Emit the prefactor constants bundle."""
    from . import potential

    report = _report_skeleton("kappa", cfg)
    spec = _need_spec(cfg)
    if not isinstance(spec, LatticeSpec):
        raise SystemExit("error: kappa needs a 3D lattice")
    e_values = None
    window_note = "degenerate or non-enumerable window; bound fallback"
    if spec.boundary == PERIODIC and spec.q ** spec.n_sites <= cfg["limit_states"]:
        try:
            space = enumerate_space(spec, limit=cfg["limit_states"])
            ts = typical_sets(space, A=(1,), B=tuple(range(2, spec.q + 1)))
            e1 = potential.e_constant(ts)
            e_values = {n: e1 for n in range(1, spec.q)}
            window_note = "auxiliary-chain capacity"
        except ValueError as err:  # the state budget or a degenerate window
            window_note = f"fallback ({err})"
    bundle = potential.constants(spec, e_values=e_values)
    report["constants"] = {
        "q": bundle.q,
        "b": {str(k): v for k, v in bundle.b.items()},
        "e": {str(k): v for k, v in bundle.e.items()},
        "c": {str(k): v for k, v in bundle.c.items()},
        "kappa": bundle.kappa,
        "kappa2d_stand_in": bundle.kappa2d,
        "provenance": bundle.provenance,
        "e_source": window_note,
        "non_reproducible": bundle.non_reproducible,
    }
    _assert(report, "kappa_positive", bundle.kappa > 0)
    _assert(report, "c_symmetry",
            all(abs(bundle.c[n] - (bundle.b[n] + bundle.e[n] + bundle.e[spec.q - n]))
                < 1e-15 for n in bundle.c))
    return _emit(report, cfg.get("out"))


def cmd_paths(cfg: dict) -> int:
    """Generate or replay canonical and escape paths with per-step ledgers."""
    report = _report_skeleton("paths", cfg)
    replay = cfg.get("replay")
    if replay:
        with open(replay, encoding="utf-8") as fh:
            text = fh.read().strip()
        path = PathSeq.from_json(text)  # validates the ledger on load
        _assert(report, "replay_ledger_bit_exact", path.to_json() == text,
                {"steps": len(path)})
        report["replayed"] = {"steps": len(path), "max_energy": path.max_energy}
        return _emit(report, cfg.get("out"))
    spec = _need_spec(cfg)
    if not isinstance(spec, LatticeSpec):
        raise SystemExit("error: paths needs a 3D lattice")
    a, b = cfg.get("spin_a", 1), cfg.get("spin_b", 2)
    kind = cfg.get("kind", "canonical")
    if kind == "canonical":
        path = canonical_path(spec, a, b)
        expected_peak = gamma_formula(spec)
    elif kind == "escape":
        n = cfg.get("escape_n", 1)
        path = escape_path(spec, a, b, n)
        expected_peak = 2 * spec.K * spec.L + 2 * n * n + 2 * n - 2
    else:
        raise SystemExit(f"error: unknown path kind {kind!r}")
    path.validate()
    text = path.to_json()
    round_trip = PathSeq.from_json(text)
    _assert(report, "ledger_replay_bit_exact", round_trip.to_json() == text)
    report["path"] = {
        "kind": kind,
        "steps": len(path),
        "max_energy": path.max_energy,
        "expected_peak": expected_peak,
        "stages": {k: list(v) for k, v in path.stages.items()},
    }
    _assert(report, "peak_matches_expected", path.max_energy == expected_peak,
            {"peak": path.max_energy, "expected": expected_peak})
    out = cfg.get("out")
    if out:
        ledger_path = out + ".path.json"
        with open(ledger_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        report["ledger_file"] = ledger_path
    return _emit(report, out)


def cmd_classify(cfg: dict) -> int:
    """Label a configuration: ground / regular / canonical / gateway / none."""
    report = _report_skeleton("classify", cfg)
    spec = _need_spec(cfg)
    if "state_code" not in cfg:
        raise SystemExit("error: classify needs --state-code")
    n_codes = spec.q ** spec.n_sites
    if not 0 <= cfg["state_code"] < n_codes:
        raise SystemExit(f"error: --state-code must lie in [0, {n_codes}) on this lattice")
    sigma = SpinConfig.from_code(spec, cfg["state_code"])
    label: dict = {"label": "none"}
    g = is_ground(sigma)
    if g is not None:
        label = {"label": "ground", "spin": g}
    else:
        gw = classify_gateway(sigma) if isinstance(spec, LatticeSpec) else None
        if gw is not None:
            label = {
                "label": "gateway",
                "type": gw.type,
                "a": gw.a,
                "b": gw.b,
                "slab_floors": gw.P.length,
                "active_floor": gw.m0,
                "orientation": gw.orientation,
            }
        elif isinstance(spec, LatticeSpec):
            desc = is_canonical(sigma)
            if desc is not None:
                floor2d = SpinConfig.from_code(spec.floor_spec(), desc.floor_code)
                regular = bool(np.all(floor2d.spins == floor2d.spins[0]))
                label = {
                    "label": "regular" if regular else "canonical",
                    "a": desc.a,
                    "b": desc.b,
                    "slab_floors": desc.P.length,
                    "active_floor": desc.m0,
                    "orientation": desc.orientation,
                }
    report["classification"] = label
    _assert(report, "classified", True)
    return _emit(report, cfg.get("out"))


def cmd_enumerate(cfg: dict) -> int:
    """Export enumerated spaces and typical sets as sorted code lists."""
    report = _report_skeleton("enumerate", cfg)
    spec = _need_spec(cfg)
    try:
        space = enumerate_space(spec, limit=cfg["limit_states"])
    except ValueError as err:
        return _budget_error(report, err, cfg.get("out"))
    report["n_states"] = space.n_states
    report["energy_min"] = int(space.energies.min())
    report["energy_max"] = int(space.energies.max())
    what = cfg.get("what", "typical")
    out = cfg.get("out")
    params = {"lattice": list(cfg["lattice"]), "q": cfg["q"],
              "boundary": cfg["boundary"]}
    if what == "typical" and isinstance(spec, LatticeSpec):
        ts = typical_sets(space, A=(1,), B=tuple(range(2, spec.q + 1)))
        report["gamma"] = ts.gamma
        report["m_K"] = ts.m_K
        report["set_sizes"] = {
            "bulk": int(ts.bulk.sum()),
            "edge_A": int(ts.edge_A.sum()),
            "edge_B": int(ts.edge_B.sum()),
            "hat_S": int(ts.hat_S.sum()),
        }
        report["checks"] = ts.checks
        report["warnings"] = ts.warnings
        degenerate = any("degenerate" in w for w in ts.warnings)
        for name, ok in ts.checks.items():
            # structural checks are only theorems on nondegenerate windows
            _assert(report, f"typical_{name}", ok or degenerate,
                    {"holds": ok, "degenerate_instance": degenerate})
        if out:
            files = {}
            for name, mask in (("bulk", ts.bulk), ("edge_A", ts.edge_A),
                               ("edge_B", ts.edge_B), ("hat_S", ts.hat_S)):
                path = f"{out}.{name}.codes"
                export_set(path, np.flatnonzero(mask), name, params)
                files[name] = path
            report["files"] = files
    else:
        low = np.flatnonzero(space.energies < gamma_formula(spec))
        report["n_below_formula_barrier"] = int(len(low))
        if out:
            path = f"{out}.below_barrier.codes"
            export_set(path, low, "below_barrier", params)
            report["files"] = {"below_barrier": path}
        _assert(report, "grounds_enumerated",
                len(space.ground_states()) == spec.q)
    json_out = f"{out}.report.json" if out else None
    return _emit(report, json_out)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lattice", type=_parse_lattice, help="KxLxM or KxL")
    p.add_argument("--boundary", choices=[PERIODIC, OPEN], default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--beta", type=float, action="append", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--limit-states", type=int, default=None, dest="limit_states")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="key = value config file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinscape",
        description="Energy-landscape toolkit for lattice spin dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    handlers = {}
    for name, fn, extra in (
        ("barrier", cmd_barrier, []),
        ("simulate", cmd_simulate, [("--n-samples", {"type": int, "dest": "n_samples"})]),
        ("capacity", cmd_capacity, []),
        ("kappa", cmd_kappa, []),
        ("paths", cmd_paths, [
            ("--kind", {"choices": ["canonical", "escape"], "dest": "kind"}),
            ("--spin-a", {"type": int, "dest": "spin_a"}),
            ("--spin-b", {"type": int, "dest": "spin_b"}),
            ("--escape-n", {"type": int, "dest": "escape_n"}),
            ("--replay", {"dest": "replay"}),
        ]),
        ("classify", cmd_classify, [("--state-code", {"type": int, "dest": "state_code"})]),
        ("enumerate", cmd_enumerate, [("--what", {"choices": ["typical", "space"], "dest": "what"})]),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        for flag, kw in extra:
            p.add_argument(flag, **kw)
        handlers[name] = fn

    args = parser.parse_args(argv)
    cfg = _resolve(args)
    return handlers[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())

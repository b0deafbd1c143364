"""Seeded workload generators for the epiecon benchmark.

Each workload is one CLI command on one generated configuration.  The seed
changes the inputs (infected band, contact kernel shape or table entries,
sweep levels, optimizer jitter seed) but never the grid sizes, so the work
per command stays fixed across seeds.  The program only ever sees the
generated JSON document.

Each command takes 0.2-0.4 s on an unloaded core.  The shared benchmark
host switches a core between a fast and a ~1.5x slower speed in phases of a
fraction of a second to several seconds; a short command lets the reference
kernel runs on either side of it (worker.reference_kernel) see the same
speed as the command, and fits 30-75 commands in a run (see README.md,
"Steadiness and bounds").

Why each workload exists (the layer it puts on the critical path):

optimize       Policy search, the main user job.  About 104 epi.simulate
               calls per command (two iterations of 48 finite-difference
               probes on 4x2 blocks, plus line search) and the Hamiltonian
               gap certificate.  It exercises the fused-core, rank-1 and
               batched-gradient work.
check          Verification.  maximize_h1 / h1_part dominate (17 and about
               4,500 calls); the simulator is a small share, so this is the
               workload that bypasses simulator changes.
sweep-table    Many scenarios built cold from one large dense-kernel config.
               Per-point config deepcopy, build_scenario and simulate share
               the time.  The only dense `table` kernel, so it bypasses the
               rank-1 contact path (prediction there: no change).
simulate-fine  One simulation on a 1600-cell grid: a large working set where
               the O(n^2) matvec and memory set the per-step cost, not
               Python overhead.  It shows what a change tuned for small grids
               costs on large ones.

`check` never uses a `table` kernel: on the seed commit `epiecon check`
with a table kernel exits 2, because the coarse companion grid reuses the
fine n_age x n_age table (see README.md).
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

WORKLOADS = {
    "optimize": "policy search: ~104 simulations plus the gap certificate; "
                "epi on the critical path",
    "check": "verification: maximize_h1/h1_part dominate, the simulator is a "
             "small share (bypass for simulator changes)",
    "sweep-table": "16 scenarios built cold from a dense 200x200 table kernel: "
                   "config copy and build plus dense simulate",
    "simulate-fine": "one 1600-cell, 160-step simulation: large working set, "
                     "O(n^2) matvec and memory bound",
}

COMMAND = {"optimize": "optimize", "check": "check",
           "sweep-table": "sweep", "simulate-fine": "simulate"}

# grid sizes per workload; "tiny" is the harness smoke-test scale
SIZES = {
    "full": {"optimize": (100, 20), "check": (80, 16),
             "sweep-table": (200, 40), "simulate-fine": (1600, 160)},
    "tiny": {"optimize": (16, 8), "check": (16, 8),
             "sweep-table": (16, 4), "simulate-fine": (16, 16)},
}


def _base(rng: random.Random, n_age: int, n_steps: int) -> dict:
    """The demo_covid calibration with a seeded infected band and contact rate."""
    lo = round(rng.uniform(15.0, 30.0), 3)
    return {
        "grid": {"a_max": 100.0, "n_age": n_age, "t0": 0.0, "n_steps": n_steps},
        "epidemic": {
            "mu_S": {"type": "gompertz", "base": 1e-4, "rate": 0.085},
            "mu_R": {"type": "gompertz", "base": 1e-4, "rate": 0.085},
            "mu_I_base": {"type": "gompertz", "base": 5e-4, "rate": 0.08},
            "gamma": {"type": "constant", "value": 1.0},
            "beta": {"type": "band", "lo_age": 20.0, "hi_age": 40.0,
                     "value": 0.05, "background": 0.0},
            "xi": {"type": "logistic", "lo": 0.001, "hi": 0.30,
                   "midpoint": 72.0, "width": 5.0},
            "contact": {"type": "constant",
                        "m0": round(rng.uniform(2.0, 3.0), 4)},
            "saturation": {"xi_cap": 1.0, "psi": 2.0, "smooth": 0.5},
            "initial": {
                "s": {"type": "constant", "value": 10.0},
                "i": {"type": "band", "lo_age": lo,
                      "hi_age": round(lo + rng.uniform(20.0, 35.0), 3),
                      "value": round(rng.uniform(0.005, 0.02), 5),
                      "background": 0.0},
                "r": {"type": "constant", "value": 0.0},
            },
        },
        "economy": {
            "alpha": {"type": "band", "lo_age": 20.0, "hi_age": 65.0,
                      "value": 1.0, "background": 0.0},
            "e": {"type": "constant", "value": 1.0},
            "delta": 0.05,
            "production": {"type": "linear", "a_k": 0.04, "a_l": 1.0},
            "phi": {"type": "power", "q": 1.0},
            "congestion": {"type": "linear", "d1": 0.5},
            "K0": 1350.0,
        },
        "objective": {
            "which": "J1", "rho": 0.03, "nu": 1.0,
            "utility": {"type": "shifted_crra", "u0": 0.1, "sigma": 0.5,
                        "eps_c": 0.01, "w0": 0.5},
        },
        "policy": {"preset": "laissez_faire", "c_level": 0.35},
        "verification": {
            "value_function": {
                "type": "linear",
                "w1": {"type": "bump", "center": 50.0, "width": 18.0, "height": 1.0},
                "w2": {"type": "bump", "center": 50.0, "width": 18.0, "height": 0.5},
                "w3": {"type": "bump", "center": 50.0, "width": 18.0, "height": 1.0},
                "q": 0.1,
            },
            "adjoint_pairs": 50,
            "horizon_multipliers": [1.0, 2.0, 4.0],
            "seed": 0,
        },
    }


def _optimize(rng, cfg):
    # a coarse certificate search keeps the simulator the larger share
    cfg["search"] = {"theta_levels": [0.0, 0.5, 1.0], "eta_levels": [0.0, 1.0],
                     "n_age_blocks": 2, "c_max": 2.0}
    cfg["optimizer"] = {"initial_step": 1e-5, "max_backtracks": 20,
                        "max_iters": 2, "n_age_blocks": 2, "n_time_blocks": 4,
                        "tol": 1e-12, "jitter": 0.01,
                        "seed": rng.randrange(2**31)}


def _check(rng, cfg):
    m0 = cfg["epidemic"]["contact"]["m0"]
    cfg["epidemic"]["contact"] = {
        "type": "separable", "m0": m0,
        "shape": {"type": "logistic", "lo": round(rng.uniform(0.3, 0.6), 4),
                  "hi": round(rng.uniform(1.0, 1.5), 4),
                  "midpoint": round(rng.uniform(30.0, 60.0), 3),
                  "width": round(rng.uniform(5.0, 15.0), 3)}}
    cfg["search"] = {"theta_levels": [0.0, 0.25, 0.5, 0.75, 1.0],
                     "eta_levels": [0.0, 0.5, 1.0], "n_age_blocks": 8,
                     "c_max": 2.0}
    cfg["verification"]["seed"] = rng.randrange(2**31)


def _sweep_table(rng, cfg):
    n = cfg["grid"]["n_age"]
    m0 = cfg["epidemic"]["contact"]["m0"]
    width = rng.uniform(8.0, 15.0)
    da = cfg["grid"]["a_max"] / n
    # assortative: contacts concentrate near the diagonal, with seeded noise
    table = []
    for j in range(n):
        row = []
        for k in range(n):
            near = 2.718281828459045 ** (-(((j - k) * da / width) ** 2))
            row.append(m0 * (0.2 + 0.8 * near) * rng.uniform(0.8, 1.2))
        table.append(row)
    cfg["epidemic"]["contact"] = {"type": "table", "values": table}
    cfg["objective"] = {"which": "J6", "rho": 0.03,
                        "composite": {"J5": 1.0, "J6": -20.0}}
    cfg["policy"] = {"preset": "blocks", "c_level": 0.35,
                     "theta_level": 1.0, "eta_level": 1.0}
    del cfg["verification"]

    def levels():
        return sorted(round(rng.uniform(0.2, 1.0), 4) for _ in range(4))

    cfg["sweep"] = {"axes": [{"path": "policy.theta_level", "values": levels()},
                             {"path": "policy.eta_level", "values": levels()}]}


def _simulate_fine(rng, cfg):
    horizon = cfg["grid"]["n_steps"] * cfg["grid"]["a_max"] / cfg["grid"]["n_age"]
    cfg["output"] = {"snapshot_times": [round(horizon * f, 6) for f in
                                        (0.0, 0.1, 0.25, 0.4, 0.6, 0.8, 1.0)]}
    del cfg["verification"]


_SHAPE = {"optimize": _optimize, "check": _check,
          "sweep-table": _sweep_table, "simulate-fine": _simulate_fine}


def make_config(workload: str, seed: int, scale: str = "full") -> dict:
    """The configuration document for ``workload`` at ``seed``."""
    rng = random.Random(f"epiecon-bench:{workload}:{seed}")
    n_age, n_steps = SIZES[scale][workload]
    cfg = _base(rng, n_age, n_steps)
    _SHAPE[workload](rng, cfg)
    return cfg

"""Wrapper-coverage self-test: one traced op per workload at a tiny size.

Each per-layer metric must be nonzero exactly where the workload is predicted
to reach that layer.  A library change that rebinds a function the wrappers
no longer see then shows as a failed check instead of a silently vanished
layer.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

# Metrics predicted nonzero per workload; every other layer metric must be 0.
NONZERO = {
    "solve": {
        "volterra.kappa_calls", "volterra.kappa_pairs", "volterra.pairs_per_call",
        "volterra.kappa_s", "volterra.picard_s", "volterra.picard_self_s",
        "volterra.residual_s", "volterra.stability_s",
        "quadrature.weights_builds", "quadrature.weights_s",
        "grid.lp_norm_calls", "grid.lp_norm_s",
    },
    "certify": {
        "gronwall.certify_s", "gronwall.certify_self_s", "gronwall.oracle_s",
        "gronwall.oracle_convs", "gronwall.theta_n_s",
        "quadrature.weights_builds", "quadrature.weights_s",
        "quadrature.convs", "quadrature.conv_s",
        "grid.lp_norm_calls", "grid.lp_norm_s",
    },
    "cli": {
        "volterra.kappa_calls", "volterra.kappa_pairs", "volterra.pairs_per_call",
        "volterra.kappa_s", "volterra.picard_s", "volterra.picard_self_s",
        "volterra.residual_s",
        "gronwall.certify_s", "gronwall.certify_self_s", "gronwall.oracle_s",
        "gronwall.oracle_convs", "gronwall.theta_n_s",
        "quadrature.weights_builds", "quadrature.weights_s",
        "quadrature.convs", "quadrature.conv_s",
        "cases.blowup_s", "cases.blowup_solves",
        "estimates.checks", "estimates.check_s",
        "grid.lp_norm_calls", "grid.lp_norm_s",
        "cli.example414_s", "cli.verify_s", "cli.solve_s", "cli.estimates_s",
        "cli.output_s", "cli.output_bytes",
    },
}


def check(name: str, seed: int, scratch) -> list[str]:
    """Problems found for one workload; empty when coverage is as predicted."""
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.installed():
        wl = workloads.make(name, seed, tiny=True, scratch=scratch)
    tracer.spans.clear()
    problems = []
    try:
        tracer.op = 0
        with tracer.installed():
            wl.tracer = tracer
            out = wl.op(0)
        if name == "cli":
            tracer.count("cli.output_bytes", wl.output_bytes())
        ok, _ = wl.check(out, 0)
        if not ok:
            problems.append(f"{name}: tiny op failed its correctness check")
    finally:
        wl.close()
    for metric, value in tracer.layer_metrics(1).items():
        want = metric in NONZERO[name]
        if want and not value > 0:
            problems.append(f"{name}: {metric} = {value}, predicted nonzero")
        if not want and value != 0:
            problems.append(f"{name}: {metric} = {value}, predicted zero")
    return problems


def main() -> int:
    import run

    run.prepare_imports()
    problems = []
    for name in NONZERO:
        problems += check(name, 1, run.scratch_dir())
    for line in problems:
        print(line)
    print("selftest:", "fail" if problems else "pass")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

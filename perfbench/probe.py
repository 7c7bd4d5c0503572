"""Set-up probe: time, in a fresh interpreter, what a workload pays before work.

    python3 perfbench/probe.py CONFIG.yaml [CONFIG.yaml ...]

Imports fxdispatch from the checkout's `src/`, loads each config, makes one
warm-up call into each module the workloads use (on the four-generator
reference case, so the warm-up pays for lazy set-up and any JIT compile
rather than for work), and prints `{"raw_setup_s": s, "setup_s": s}`: the
wall time, and the wall time scaled to the reference CPU by calibration
slices run during the set-up (calibrate.py).
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "configs" / "reference_case.yaml"
#: seconds between two calibration slices during a probe, which lasts 0.2-0.6 s
PROBE_INTERVAL_S = 0.025


def import_fxdispatch():
    """Import the package from the checkout, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "fxdispatch" / "__init__.py").is_file():
        raise ImportError(f"no fxdispatch sources under {src}")
    sys.path.insert(0, str(src))
    import fxdispatch
    import fxdispatch.cli

    if pathlib.Path(fxdispatch.__file__).resolve().parent != src / "fxdispatch":
        raise ImportError(f"imported fxdispatch from {fxdispatch.__file__}, not from {src}")
    return fxdispatch


def warm_up(fx) -> None:
    """One call into each module on the reference case."""
    ref = fx.config.load_config(str(REFERENCE))
    fx.cli.evaluate_gates(ref)  # cli, analysis, topology, linalg, grid_model
    fx.oracle.solve_equilibrium(ref.generators, ref.loss, ref.system().dbar)
    params = dataclasses.replace(ref.params, t_end=2 * ref.params.dt)
    fx.dynamics.run(ref.system(), params, stride=1)


def main(paths) -> None:
    # the slice needs numpy, which fxdispatch imports too, so it is imported
    # inside the timed set-up but before slices start
    from calibrate import Sampler

    with Sampler(PROBE_INTERVAL_S) as sampler:
        fx = import_fxdispatch()
        for path in paths:
            fx.config.load_config(path)
        warm_up(fx)
    elapsed = time.perf_counter() - T0
    print(json.dumps({"raw_setup_s": elapsed, "setup_s": sampler.scaled(elapsed)}))


if __name__ == "__main__":
    main(sys.argv[1:])

"""The benchmark's workloads: the input each one generates and the afcec
command it runs on it.

A workload's input is a pure function of the seed: the seed is passed to
`afcec generate` and, for the clustering commands, as the fit seed. The
program sees only the generated CSV. bench/README.md gives the reason for
each workload and the layer each one stresses.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # afcec subcommand; also selects the output check
    generate: tuple  # `afcec generate` flags other than --seed/--out; () = no input
    args: tuple  # command flags other than --input/--seed/--output-model
    n: int  # rows of the generated input (0 when there is none)
    restart_pool: bool = False  # run with AFCEC_THREADS = usable cores

    def generate_argv(self, seed, path):
        return ["generate", *self.generate, "--seed", str(seed), "--out", str(path)]

    def command_argv(self, seed, input_path, model_path):
        argv = [self.command, *self.args]
        if self.generate:
            argv += ["--input", str(input_path), "--seed", str(seed)]
        if self.command == "fit":
            argv += ["--output-model", str(model_path)]
        return argv


# Fits start from k-means++ seeding and stop after a fixed number of Lloyd
# iterations: from a random partition the iteration count and the k
# trajectory, and with them the run time, vary by a factor of 2 to 4 between
# seeds, so no run length gives steady figures. Every seed tried converges
# later than these caps (strokes after >= 29 iterations, helix after >= 22).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "strokes2d-quad",
            "fit",
            ("--kind", "strokes", "--n", "50000", "--noise", "0.1"),
            ("--k", "20", "--family", "quadratic", "--init", "kmeanspp", "--max-iters", "20"),
            50000,
        ),
        Workload(
            "helix3d-cubic",
            "fit",
            ("--kind", "parametric3d", "--n", "10000", "--noise", "0.1"),
            ("--k", "20", "--family", "cubic", "--init", "kmeanspp", "--max-iters", "10"),
            10000,
        ),
        Workload(
            "ring-sweep",
            "sweep",
            ("--kind", "circle", "--n", "2000", "--noise", "0.1"),
            ("--k-max", "10", "--restarts", "4", "--family", "quadratic", "--max-iters", "10"),
            2000,
            restart_pool=True,
        ),
        Workload("aca-table", "acagmm-check", (), (), 0),
    )
}

"""Command-line front end.

stdout carries machine-readable JSON or CSV only; logs go to stderr.
Exit codes: 0 ok, 1 configuration error, 2 data error, 3 degenerate fit.
"""

import argparse
import json
import logging
import sys

from numpy.linalg import LinAlgError

from . import acagmm, data, engine, selection
from .curves import BUILTIN_KINDS, builtin_family
from .errors import (
    AfcecError,
    AllClustersDegenerate,
    DegenerateCluster,
    InvalidConfig,
    InvalidSpec,
    IoError,
    ParseError,
    RankDeficient,
)

log = logging.getLogger("afcec")

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit contract reserves 2 for data
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._config_exit(message))

    def _config_exit(self, message):
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG


def build_parser():
    parser = _Parser(prog="afcec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by fit and sweep; _engine_setup turns them into a config,
    # and EngineConfig's field defaults are the flags' defaults
    cfg = engine.EngineConfig
    engine_flags = argparse.ArgumentParser(add_help=False)
    engine_flags.add_argument("--input", required=True)
    engine_flags.add_argument("--family", choices=BUILTIN_KINDS, default="quadratic")
    engine_flags.add_argument("--epsilon", type=float, default=cfg.epsilon)
    engine_flags.add_argument("--deletion-fraction", type=float, default=cfg.deletion_fraction)
    engine_flags.add_argument("--restarts", type=int, default=1)
    engine_flags.add_argument("--seed", type=int, default=cfg.seed)
    engine_flags.add_argument("--init", choices=engine.INITS, default=cfg.init)
    engine_flags.add_argument("--max-iters", type=int, default=cfg.max_iters)
    engine_flags.add_argument("--ll-mode", choices=selection.LL_MODES, default="mixture")

    p_fit = sub.add_parser("fit", parents=[engine_flags], help="cluster a CSV dataset")
    p_fit.add_argument("--k", type=int, required=True)
    p_fit.add_argument("--output-model")
    p_fit.add_argument("--output-plot")

    p_gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p_gen.add_argument("--kind", choices=data.GENERATOR_KINDS, required=True)
    p_gen.add_argument("--n", type=int, default=data.GeneratorSpec.n)
    p_gen.add_argument("--noise", type=float, default=data.GeneratorSpec.noise_sigma)
    p_gen.add_argument("--seed", type=int, default=data.GeneratorSpec.seed)
    p_gen.add_argument("--out", required=True)

    p_sweep = sub.add_parser(
        "sweep", parents=[engine_flags], help="fit k=1..K, emit score table CSV"
    )
    p_sweep.add_argument("--k-max", type=int, default=10)

    p_aca = sub.add_parser("acagmm-check", help="normalization table CSV")
    p_aca.add_argument("--a-grid", default=",".join(str(v) for v in acagmm.DEFAULT_A_GRID))
    p_aca.add_argument(
        "--sigma-grid", default=",".join(str(v) for v in acagmm.DEFAULT_SIGMA_GRID)
    )
    p_aca.add_argument("--box", type=float, default=acagmm.DEFAULT_BOX)
    p_aca.add_argument("--n", type=int, default=acagmm.DEFAULT_N)
    return parser


def _engine_setup(args, k):
    """Load --input and build the validated EngineConfig for k clusters from
    the shared fit/sweep flags; raises before anything is written to stdout."""
    ds = data.load_csv(args.input)
    if args.restarts < 1:
        raise InvalidConfig("--restarts must be >= 1")
    cfg = engine.EngineConfig(
        k_init=k,
        family=builtin_family(args.family, ds.d - 1),
        epsilon=args.epsilon,
        deletion_fraction=args.deletion_fraction,
        max_iters=args.max_iters,
        seed=args.seed,
        init=args.init,
    )
    cfg.validate_for((ds.n, ds.d))
    return ds, cfg


def cmd_fit(args):
    ds, cfg = _engine_setup(args, args.k)
    # one cache serves the fit and the scoring, so its design is built once
    cache = engine.DesignCache(ds.rows)
    best, all_costs = engine.fit_restarts(cache, cfg, args.restarts)
    sc = selection.score(cache, best, ll_mode=args.ll_mode)
    del cache  # free the design before the model is saved
    log.info(
        "fit: k=%d, %d iterations, %d restart(s), cost %.6f",
        best.k, best.iterations, len(all_costs), best.final_cost,
    )
    if args.output_model:
        data.save_model(best, args.output_model)
        log.info("model written to %s", args.output_model)
    if args.output_plot:
        data.export_plot_data(ds, best, args.output_plot)
        log.info("plot data written to %s", args.output_plot)
    print(json.dumps({
        "cost": best.final_cost,
        "loglik": sc.loglik,
        "bic": sc.bic,
        "aic": sc.aic,
        "k_final": best.k,
        "iterations": best.iterations,
    }))
    return 0


def cmd_generate(args):
    spec = data.GeneratorSpec(kind=args.kind, n=args.n, noise_sigma=args.noise, seed=args.seed)
    ds = data.generate(spec)
    data.save_csv(ds, args.out)
    log.info("wrote %d x %d dataset to %s", ds.n, ds.d, args.out)
    return 0


def cmd_sweep(args):
    ds, cfg = _engine_setup(args, args.k_max)
    # one cache serves every k's fits and scoring, so its design is built once
    cache = engine.DesignCache(ds.rows)
    other_mode = "max" if args.ll_mode == "mixture" else "mixture"
    sys.stdout.write(data.csv_lines(
        [["k", "k_final", "cost", "loglik_mixture", "loglik_max", "n_params", "bic", "aic"]]
    ))
    # row k is fit --k k's model; the k values run in lockstep batches, and a k
    # whose restarts all fail raises once the rows before it are written
    ks = range(1, args.k_max + 1)
    for k, (best, _) in zip(ks, engine._best_per_k(cache, cfg, ks, args.restarts)):
        sc = selection.score(cache, best, args.ll_mode)
        ll = {
            args.ll_mode: sc.loglik,
            other_mode: selection.log_likelihood(cache, best, other_mode),
        }
        sys.stdout.write(data.csv_lines([[
            k, best.k, best.final_cost, ll["mixture"], ll["max"], sc.n_params, sc.bic, sc.aic,
        ]]))
        log.info("k=%d -> k_final=%d", k, best.k)
    return 0


def _parse_grid(text, name):
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise InvalidConfig(f"--{name} must be comma-separated numbers, got {text!r}") from None
    if not vals:
        raise InvalidConfig(f"--{name} is empty")
    return vals


def cmd_acagmm_check(args):
    a_grid = _parse_grid(args.a_grid, "a-grid")
    sigma_grid = _parse_grid(args.sigma_grid, "sigma-grid")
    rows = acagmm.normalization_table(a_grid, sigma_grid, args.box, args.n)
    columns = ["a", "sigma1", "sigma2", "raw_integral", "corrected_integral", "excluded_mass"]
    sys.stdout.write(data.csv_lines([columns] + [[r[c] for c in columns] for r in rows]))
    return 0


COMMANDS = {
    "fit": cmd_fit,
    "generate": cmd_generate,
    "sweep": cmd_sweep,
    "acagmm-check": cmd_acagmm_check,
}


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    # LinAlgError is a ValueError, but no flag is at fault: the numbers broke down
    except (DegenerateCluster, AllClustersDegenerate, RankDeficient, LinAlgError) as e:
        log.error("degenerate fit: %s", e)
        return EXIT_DEGENERATE
    except (InvalidConfig, InvalidSpec, ValueError) as e:
        log.error("configuration error: %s", e)
        return EXIT_CONFIG
    except (ParseError, IoError, FileNotFoundError, OSError) as e:
        log.error("data error: %s", e)
        return EXIT_DATA
    except AfcecError as e:
        log.error("error: %s", e)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: expert data, training, evaluation, inspection.

Subcommands: gen-expert | train | train-bc | eval | inspect.
Hyperparameters travel in JSON config files; flags carry only paths and
identity. Every artifact-producing run echoes its fully resolved config
to a config.json next to its outputs, and re-running any command from
that echo reproduces the outputs byte for byte.

Exit codes: 0 success, 1 runtime error, 2 usage error. A fault in a
config or checkpoint file exits 1 before anything is written, naming the
file (``net.file_errors``); a fault in a dataset file names its line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from types import SimpleNamespace

from . import net, objectives, trainer
from .actor import load_actor
from .data import load_dataset, metadata, save_dataset
from .envs import env_spec
from .errors import MimicError


def cmd_gen_expert(args):
    dataset = trainer.generate_expert(args.env, args.n, args.threshold, args.seed)
    save_dataset(dataset, args.out)
    objectives.save_config(
        {"command": "gen-expert", "env_id": args.env, "n": args.n,
         "threshold": args.threshold, "seed": args.seed, "out": args.out},
        args.out + ".config.json",
    )
    mean, lo, hi = dataset.return_stats
    print(f"wrote {args.out}: {dataset.n_trajectories} trajectories, "
          f"{len(dataset)} transitions")
    print(f"returns: mean {mean:.3f}, min {lo:.3f}, max {hi:.3f} "
          f"(threshold {args.threshold})")
    return 0


def cmd_train(args):
    with open(args.config, encoding="utf-8") as f, net.file_errors("config", args.config):
        config = trainer.TrainConfig.from_dict(json.load(f))
    dataset = load_dataset(args.expert)
    result = trainer.train(config, dataset, out_dir=args.out, verbose=True)
    last = result.metrics.eval_rows[-1]
    print(f"done: {result.env_steps} env steps, final eval return "
          f"{last['mean_return']:.3f} +- {last['std_return']:.3f}")
    return 0


def cmd_train_bc(args):
    with open(args.config, encoding="utf-8") as f, net.file_errors("config", args.config):
        config = objectives.BCConfig.from_dict(json.load(f))
    dataset = load_dataset(args.expert)
    policy, history = objectives.train_bc(config, dataset)
    os.makedirs(args.out, exist_ok=True)
    objectives.save_config(asdict(config), os.path.join(args.out, "config.json"))
    ckpt = os.path.join(args.out, "bc.ckpt")
    objectives.save_bc_policy(policy, ckpt)
    with net.atomic_open(os.path.join(args.out, "nll_history.csv")) as f:
        f.write("".join(["step,nll\n"] + [f"{i},{nll!r}\n" for i, nll in history]))
    print(f"wrote {ckpt}: final nll {history[-1][1]:.6f}")
    return 0


def _load_policy(path, spec):
    """The actor or BC policy saved at path, read once; it must fit spec's env."""
    checkpoint = net.load_checkpoint(path)
    with net.file_errors("checkpoint", path):
        if "log_std" in checkpoint[1]:
            policy = objectives.load_bc_policy(path, spec, checkpoint)
            params, obs_dim = policy.mean_net, policy.mean_net.n_in
        elif "noise_dim" in checkpoint[1]:
            policy = load_actor(path, checkpoint)
            if policy.env_id not in ("", spec.env_id):
                raise ValueError(f"an actor for {policy.env_id}, but --env is {spec.env_id}")
            params, obs_dim = policy.params, policy.obs_dim
        else:
            raise ValueError("holds neither an actor's noise_dim nor a BC policy's log_std")
        if (obs_dim, params.n_out) != (spec.obs_dim, spec.act_dim):
            raise ValueError(
                f"the policy maps obs_dim {obs_dim} to act_dim {params.n_out}, but "
                f"{spec.env_id} has obs_dim {spec.obs_dim} and act_dim {spec.act_dim}"
            )
    return policy


def cmd_eval(args):
    policy = _load_policy(args.actor, env_spec(args.env))
    mean, std, returns = trainer.evaluate(policy, args.env, args.episodes, args.seed)
    resolved = {"command": "eval", "actor": args.actor, "env_id": args.env,
                "episodes": args.episodes, "seed": args.seed}
    if args.json:
        print(json.dumps({"config": resolved, "mean_return": mean,
                          "std_return": std, "returns": returns}))
    else:
        print(f"{args.env}: {args.episodes} episodes from seed {args.seed}")
        print(f"mean return {mean:.3f} +- {std:.3f} "
              f"(min {min(returns):.3f}, max {max(returns):.3f})")
    return 0


def cmd_inspect(args):
    dataset = load_dataset(args.data)
    if args.json:
        print(json.dumps({"config": {"command": "inspect", "data": args.data},
                          **metadata(dataset), "n_transitions": len(dataset)}))
    else:
        mean, lo, hi = dataset.return_stats
        print(f"{args.data}: {dataset.spec.env_id}, "
              f"{dataset.n_trajectories} trajectories x {dataset.spec.horizon} steps")
        print(f"returns: mean {mean:.3f}, min {lo:.3f}, max {hi:.3f} "
              f"(filter threshold {dataset.filter_threshold})")
    return 0


def _is_negative_number(arg):
    """Whether arg starts with "-" and float() reads it: -1e6, -inf, -nan."""
    if not arg.startswith("-"):
        return False
    try:
        float(arg)
    except ValueError:
        return False
    return True


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mimicrl",
        description="Off-policy imitation learning from expert demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-expert", help="roll the scripted expert into a dataset")
    p.add_argument("--env", required=True, help="environment id")
    p.add_argument("--n", type=int, default=100, help="trajectories to keep")
    p.add_argument("--threshold", type=float, required=True,
                   help="keep only episodes with return strictly above this")
    # argparse reads a separate -1e6 or -inf as an option; no option here
    # looks like a number, so every negative number is read as a value
    p._negative_number_matcher = SimpleNamespace(match=_is_negative_number)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset file to write")
    p.set_defaults(fn=cmd_gen_expert)

    p = sub.add_parser("train", help="train the off-policy imitator")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--expert", required=True, help="expert dataset file")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("train-bc", help="train the behavior-cloning baseline")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--expert", required=True, help="expert dataset file")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(fn=cmd_train_bc)

    p = sub.add_parser("eval", help="evaluate a saved policy checkpoint")
    p.add_argument("--actor", required=True, help="actor or BC checkpoint")
    p.add_argument("--env", required=True)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("inspect", help="print dataset metadata and return stats")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MimicError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

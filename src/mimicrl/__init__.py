"""Off-policy adversarial imitation learning in plain numpy.

A bounded noise-input actor is trained by deterministic policy
gradients against a probabilistic (log-space) Q-critic whose Bellman
update minimizes Jensen-Shannon divergences that embed the optimal
discriminator, stabilized by clipped double critics and soft target
networks. Includes desk-scale deterministic environments with scripted
experts, replay and expert buffers, and a behavior-cloning baseline.
"""

from .actor import ActorPolicy, act, load_actor, make_actor, policy_gradient, sample_noise, save_actor
from .critic import (
    CriticNet,
    bernoulli_entropy,
    bernoulli_jsd,
    critic_loss_and_grads,
    load_critic,
    make_critic,
    save_critic,
    soft_update,
)
from .data import (
    ExpertDataset,
    ReplayBuffer,
    Transition,
    load_dataset,
    save_dataset,
)
from .envs import EnvSpec, EnvState, env_spec, expert_action, reset, rollout, step
from .net import (
    AdamState,
    Layer,
    NetworkParams,
    adam_step,
    finite_diff_check,
    forward,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from .objectives import (
    BCConfig,
    GaussianBCPolicy,
    RewardTable,
    bc_act,
    bc_nll_and_grads,
    make_bc_policy,
    reward_objective,
    train_bc,
)
from .trainer import (
    RunMetrics,
    TrainConfig,
    TrainResult,
    collect_episode,
    evaluate,
    generate_expert,
    train,
    update_step,
)

__version__ = "0.1.0"

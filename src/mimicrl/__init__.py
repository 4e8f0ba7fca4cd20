"""Off-policy adversarial imitation learning in plain numpy.

A bounded noise-input actor is trained by deterministic policy
gradients against a probabilistic (log-space) Q-critic whose Bellman
update minimizes Jensen-Shannon divergences that embed the optimal
discriminator, stabilized by clipped double critics and soft target
networks. Includes desk-scale deterministic environments with scripted
experts, replay and expert buffers, and a behavior-cloning baseline.
"""

from . import actor, critic, data, envs, errors, net, objectives, trainer

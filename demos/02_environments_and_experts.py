"""Tour of the two environments and their scripted experts.

Rolls the scripted controllers and a zero-action baseline on seeded
episodes, prints return statistics, and shows a single trajectory's
shape. Rewards shown here are evaluation-only; the imitation learner
never reads them.
"""

import math

import numpy as np

from mimicrl import envs


def ends_upright(raw):
    """Whether a pendulum episode's mean |theta| over its last 50 steps is
    under 0.3 (theta = 0 is upright)."""
    return np.mean([abs(math.atan2(n[1], n[0])) for _, _, n, _, _ in raw[-50:]]) < 0.3


for env_id in envs.ENV_IDS:
    spec = envs.env_spec(env_id)
    print(f"== {env_id} ==")
    print(f"obs_dim {spec.obs_dim}, act_dim {spec.act_dim}, "
          f"bounds [{spec.action_low[0]}, {spec.action_high[0]}], "
          f"horizon {spec.horizon}, dt {spec.dt}")

    episodes = [envs.rollout(env_id, s, lambda o: envs.expert_action(env_id, o))
                for s in range(50)]
    expert = [total for _, total in episodes]
    zero = [envs.rollout(env_id, s, lambda o: np.zeros(spec.act_dim))[1]
            for s in range(50)]
    print(f"expert over 50 seeded episodes: mean {np.mean(expert):9.2f}  "
          f"min {np.min(expert):9.2f}  max {np.max(expert):9.2f}")
    print(f"zero policy, same seeds:        mean {np.mean(zero):9.2f}  "
          f"min {np.min(zero):9.2f}  max {np.max(zero):9.2f}")
    if env_id == "pendulum-v0":
        upright = sum(ends_upright(raw) for raw, _ in episodes)
        print(f"expert episodes ending upright:  {upright} of {len(episodes)}")
    print()

print("== one linereacher trajectory under the PD expert ==")
state, obs = envs.reset("linereacher-v0", 7)
print(f"{'t':>4} {'x':>8} {'v':>8} {'action':>8} {'reward':>9}")
done = False
t = 0
while not done:
    action = envs.expert_action("linereacher-v0", obs)
    state, next_obs, reward, done = envs.step(state, action)
    if t % 25 == 0 or done:
        print(f"{t:4d} {obs[0]:8.4f} {obs[1]:8.4f} {action[0]:8.4f} {reward:9.4f}")
    obs = next_obs
    t += 1

print("\ndeterminism: same seed, same trajectory, bit for bit")
a = envs.rollout("linereacher-v0", 3,
                 lambda o: envs.expert_action("linereacher-v0", o))[1]
b = envs.rollout("linereacher-v0", 3,
                 lambda o: envs.expert_action("linereacher-v0", o))[1]
print(f"returns: {a!r} == {b!r}: {a == b}")

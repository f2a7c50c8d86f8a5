"""All four planners on one small instance, from the same start.

The dynamic program plans for every start at once; the exhaustive planner
searches all action sequences and is the ground truth at this size; the
two greedy planners pick one column at a time. Run:

    python3 demos/02_planner_tour.py
"""

from transectplan import (
    POLICIES,
    Hyperparams,
    TransectGrid,
    enumerate_configs,
    path_entropy,
    plan,
    plan_markov,
    robot_tracks,
    rollout,
)

h = Hyperparams(ell1=5.0, ell2=4.0, signal_var=1.0, noise_var=0.1)
grid = TransectGrid(n_rows=4, n_cols=6, omega1=5.0, omega2=5.0)
k = 2

configs = enumerate_configs(grid, k)
print(f"{len(configs)} possible column configurations for team size {k}")

policy = plan_markov(grid, h, k)
print(f"dp tables cover {policy.values.shape[0]} stages x {policy.values.shape[1]} configs")
print("stage-0 values per start:")
for x in configs:
    print(f"  start {x}: {policy.value(0, x):.4f}")

x0 = configs[0]
print(f"\n== planning from start {x0} ==")

executed = rollout(policy, x0)
print(f"dp rollout        value {path_entropy(executed, h):.4f}"
      f"   (stagewise table says {policy.value(0, x0):.4f}, an upper bound)")

for policy in POLICIES:
    if policy == "markov":
        continue
    res = plan(policy, grid, h, k, x0)
    rows = "|".join(",".join(str(r) for r in c.rows) for c in res.path.configs)
    print(f"{res.policy_kind:<12} value {res.value:.4f}"
          f"   {res.plan_seconds * 1e3:6.1f}ms   rows {rows}")

print("\nrobot tracks for the dp rollout (row per robot, column per stage):")
for rid, track in enumerate(robot_tracks(executed)):
    print(f"  robot {rid}: {track}")

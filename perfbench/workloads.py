"""The benchmark's workloads and the inputs each one is given.

Every workload uses M = 5 branches, B = 4 packages per class per branch,
gamma = 3.0 and blobs at separation 4.0 with 30% label noise.  They
differ in size, graph density, propagation range and entry point, so
that a different module of the correction loop dominates each one:

- global-2k: the README default graph (k = 50, alpha = 0.99); the dense
  graph and near-global range make the CG matvec the blocking step.
- local-8k: the acceptance trend setting (k = 5, alpha = 0.85); CG
  converges fast, so exact kNN over 8000 rows dominates, with the
  largest peak RSS.
- cli-16c-dump: 16 classes through the command line from files, with
  --out and --dump-suggestions; 32-column right-hand sides per solve, a
  16-class vote, and the only workload that reads and writes files.

Each runs one outer epoch (10-13 s on a 2-core Xeon VM), so that a 35 s
run of the benchmark fits two or three correction runs and a full
measurement of 70 runs fits in under an hour.  The epoch-2 path
(parameter mix, re-split on the learned embedding) therefore goes
unmeasured: splitter.mix_s reads 0.
"""

import os
from dataclasses import dataclass

# shared by every workload
N_BRANCHES = 5
PACKAGES = 4
GAMMA = 3.0
SEPARATION = 4.0
NOISE_RATE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "memory": run_correction on loaded arrays; "cli": pipeline.main
    classes: int
    per_class: int
    dim: int
    noise_kind: str
    k_graph: int
    alpha_prop: float
    outer_epochs: int
    accuracy_floor: float
    cg_max_iters: int = 200

    @property
    def n_samples(self):
        return self.classes * self.per_class


# accuracy floors sit 8-11 points below the lowest correction accuracy
# seen over 25 or more seeds each (0.908, 0.934, 0.856); they catch a
# broken vote or propagation, not seed-to-seed variation
WORKLOADS = {
    w.name: w
    for w in (
        Workload("global-2k", "memory", 4, 500, 16, "confusing", 50, 0.99, 1, 0.80),
        Workload("local-8k", "memory", 4, 2000, 16, "confusing", 5, 0.85, 1, 0.85),
        Workload("cli-16c-dump", "cli", 16, 150, 32, "uniform", 10, 0.9, 1, 0.75),
    )
}


def input_paths(workdir):
    return {
        "features": os.path.join(workdir, "features.bin"),
        "labels": os.path.join(workdir, "labels.csv"),
        "config": os.path.join(workdir, "config.txt"),
        "out": os.path.join(workdir, "out"),
    }


def config_values(w):
    """The run's settings as graphmend config-file keys (seed is passed apart)."""
    return {
        "n_branches": N_BRANCHES,
        "packages_per_class_per_branch": PACKAGES,
        "k_graph": w.k_graph,
        "gamma": GAMMA,
        "alpha_prop": w.alpha_prop,
        "cg_max_iters": w.cg_max_iters,
        "outer_epochs": w.outer_epochs,
    }


def write_inputs(w, seed, workdir):
    """Generate the workload's data from `seed` with graphmend.synth and
    write the feature file, the two-column label file and a config file."""
    from graphmend.core import save_features, save_labels
    from graphmend.synth import SynthConfig, make_noisy_dataset

    os.makedirs(workdir, exist_ok=True)
    paths = input_paths(workdir)
    features, noisy, clean = make_noisy_dataset(
        SynthConfig(
            n_classes=w.classes,
            per_class=w.per_class,
            dim=w.dim,
            class_separation=SEPARATION,
            noise_rate=NOISE_RATE,
            noise_kind=w.noise_kind,
            rng_seed=seed,
        )
    )
    save_features(paths["features"], features)
    save_labels(paths["labels"], noisy, clean)
    with open(paths["config"], "w") as fh:
        for key, value in config_values(w).items():
            fh.write("%s = %s\n" % (key, value))
    return paths


def pipeline_config(w, seed):
    """The in-memory equivalent of the config file plus --seed."""
    from graphmend.branches import TrainConfig
    from graphmend.graph import GraphConfig
    from graphmend.pipeline import PipelineConfig
    from graphmend.propagate import PropagationConfig
    from graphmend.splitter import SplitConfig

    return PipelineConfig(
        split=SplitConfig(N_BRANCHES, PACKAGES, seed),
        graph=GraphConfig(w.k_graph, GAMMA),
        prop=PropagationConfig(w.alpha_prop, cg_max_iters=w.cg_max_iters),
        train=TrainConfig(),
        outer_epochs=w.outer_epochs,
        seed=seed,
    )

"""swarmpulse: deterministic simulation of pulse-coupled swarmalator drone swarms.

The package covers three models of increasing realism plus the plumbing
to run them reproducibly:

* `pulse`      - classic pulse-coupled oscillators (sync-only seed model);
* `reference`  - continuous swarmalators with global communication, used
                 as the oracle the drone model is compared against;
* `drone` + `engine` + `medium` - the pairwise pulse-coupled swarmalator
                 agents talking over a collision-prone broadcast channel,
                 with dual-phase broadcast staggering and command smoothing.

`metrics` provides the observables (order parameter, spacing statistics,
rainbow correlation, broadcast fairness), and `cli`/`runner`/`scenarios`
expose bundled, fully seeded scenario runs that write plot-ready CSVs.
"""

__version__ = "0.1.0"

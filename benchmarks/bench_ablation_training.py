"""Extension — training-step cost (the paper's stated follow-up to its
inference-only "first case study").

Models one SGD step as forward + input-gradient + weight-gradient passes
plus a weight write-back, and reports the step/inference cost ratio per
workload (canonically ~3x).  Times the ``ext_training_step`` experiment,
the call the ``training.*`` claims measure.
"""

from repro.core.experiments import EXTENSIONS

run_training = EXTENSIONS["ext_training_step"]


def test_training_extension(benchmark, rsfq, workloads):
    benchmark(run_training, rsfq, workloads)

"""Fig. 8 — duplicated ifmap pixels without the data alignment unit (``fig08.*``)."""

from repro.workloads.analysis import duplication_report
from repro.workloads.models import alexnet, resnet50, vgg16

#: The three networks Fig. 8 plots.
NETWORKS = (alexnet, resnet50, vgg16)


def run_fig08():
    return {build().name: duplication_report(build()) for build in NETWORKS}


def test_fig08_duplication(benchmark):
    benchmark(run_fig08)

"""Every name the benchmark tracer wraps exists with the parameters it reads.

perfbench/tracer.py wraps public ergomix functions by "module:qualname" and
derives its work counters from their bound arguments.  A deleted or renamed
target, or a renamed parameter, would otherwise fail only a traced benchmark
run.  The tracer is loaded by file path and never installed.
"""

import importlib.util
import inspect
import os

import pytest

_TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


class _AnyArgument:
    """Stands in for every argument a counter reads: a count, an array, a path."""

    size = 2

    def __int__(self):
        return 1

    def __len__(self):
        return 1

    def __fspath__(self):
        return _TRACER_PATH


@pytest.mark.parametrize(
    "name, target",
    [(name, target) for name, (targets, _) in tracer.SPANS.items() for target in targets],
)
def test_span_target_has_the_parameters_its_counter_reads(name, target):
    _, _, original = tracer._resolve(target)
    counter = tracer.SPANS[name][1]
    if counter is None:
        return
    arguments = {param: _AnyArgument() for param in inspect.signature(original).parameters}
    # a counter reading a parameter the target lacks raises KeyError here
    assert isinstance(counter(arguments), dict)


@pytest.mark.parametrize("target", sorted(tracer.POINT_COUNTERS.values()))
def test_point_counter_target_takes_t_and_points(target):
    _, _, original = tracer._resolve(target)
    assert list(inspect.signature(original).parameters) == ["self", "t", "points"]


def test_grid_generator_target_is_a_generator():
    _, _, original = tracer._resolve(tracer.GRID_GENERATOR)
    assert inspect.isgeneratorfunction(original)

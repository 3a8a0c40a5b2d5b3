import dataclasses
import inspect
import re

import fdeflow as ff

# a solution carries its coefficient set, and a measure change and a record their
# solution: no public callable takes a solution together with any of them, so none
# can pair them wrongly
_CARRIED_BY_A_SOLUTION = {"CoefficientSet", "MeasureChange", "ForwardRecord"}


def _annotated_types(obj, returns=False) -> set:
    """Names in the parameter annotations of ``obj``, and in its return annotation if
    ``returns``; the package's annotations are strings such as ``"FdeSolution | None"``."""
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):   # not callable (FIXTURES), or an exception class
        return set()
    annotations = [p.annotation for p in sig.parameters.values()]
    if returns:
        annotations.append(sig.return_annotation)
    return {name for a in annotations for name in re.findall(r"\w+", str(a))}


def test_no_public_callable_takes_a_solution_with_what_it_carries():
    paired = {}
    for name in ff.__all__:
        types = _annotated_types(getattr(ff, name))
        if "FdeSolution" in types and types & _CARRIED_BY_A_SOLUTION:
            paired[name] = sorted(types & _CARRIED_BY_A_SOLUTION)
    assert paired == {}
    # the walk reads the annotations it is meant to
    assert {"MeasureChange", "ForwardRecord"} <= _annotated_types(ff.assemble_weak_solution)
    assert {"FdeSolution", "BrownianEnsemble"} <= _annotated_types(ff.forward_record)


def test_only_picard_window_speaks_of_a_window_solution():
    # a window's path arrays are its local fixed point; no reader of a solution takes one
    speaking = [name for name in ff.__all__
                if "WindowSolution" in _annotated_types(getattr(ff, name), returns=True)]
    assert speaking == ["picard_window"]


def test_a_global_solution_holds_no_path_array():
    fields = {f.name for f in dataclasses.fields(ff.FdeSolution)}
    assert not fields & {"V", "X", "Y", "Z"}
    assert {"V", "X", "Y", "Z"} <= {f.name for f in dataclasses.fields(ff.WindowSolution)}

import inspect
import re

import fdeflow as ff

# a solution carries its coefficient set, and a measure change its solution: no
# public callable takes a solution together with either, so none can pair them wrongly
_CARRIED_BY_A_SOLUTION = {"CoefficientSet", "MeasureChange"}


def _annotated_types(obj) -> set:
    """Names in the parameter annotations of ``obj``; the package's annotations are
    strings such as ``"FdeSolution | None"``."""
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):   # not callable (FIXTURES), or an exception class
        return set()
    return {name for p in params for name in re.findall(r"\w+", str(p.annotation))}


def test_no_public_callable_takes_a_solution_with_what_it_carries():
    paired = {}
    for name in ff.__all__:
        types = _annotated_types(getattr(ff, name))
        if "FdeSolution" in types and types & _CARRIED_BY_A_SOLUTION:
            paired[name] = sorted(types & _CARRIED_BY_A_SOLUTION)
    assert paired == {}
    # the walk reads the annotations it is meant to
    assert {"MeasureChange", "BrownianEnsemble"} <= _annotated_types(ff.assemble_weak_solution)
    assert "FdeSolution" in _annotated_types(ff.bmo_diagnostic)
